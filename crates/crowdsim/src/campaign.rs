//! AMT-style campaigns: publish a task per red dot, collect N responses.
//!
//! Section VII-C: "We created one task for each red dot. We first
//! published the 35 tasks to AMT. After receiving 10 responses for each
//! task, we computed the new position of each red dot, and published a set
//! of new tasks with updated red-dot positions." [`Campaign`] reproduces
//! that loop: each `run_task` call samples fresh workers from the pool and
//! returns their sessions and derived plays.
//!
//! # Determinism and parallelism
//!
//! Every task gets a [`SeedTree`] node derived from the campaign seed
//! and a monotone task counter; every response slot within a task gets
//! its own child RNG. Sessions are therefore independent of *how* they
//! are executed. [`Campaign::run_task`] runs one task's slots on the
//! caller's thread: a task of a dozen or so sessions costs a few
//! microseconds, less than spawning workers for it would. A caller with
//! a whole round to run uses [`Campaign::run_tasks`], which fans every
//! `(task, slot)` pair out across threads; its results are
//! bit-identical to a sequential run for any thread count.
//!
//! Respondent sampling draws `n` distinct workers with a partial
//! Fisher–Yates walk — O(n) RNG draws instead of shuffling the whole
//! pool index per task.

use crate::session::{simulate_session, SessionParams};
use crate::worker::{sample_pool, Worker};
use lightor_simkit::{SeedTree, SimRng};
use lightor_types::{LabeledVideo, Play, PlaySet, Sec, Session};
use rand::Rng;
use rayon::prelude::*;
use std::collections::HashMap;

/// The result of one crowd task (one red dot, N viewers).
#[derive(Clone, Debug)]
pub struct TaskResult {
    /// Raw sessions, one per responding worker.
    pub sessions: Vec<Session>,
    /// Play records derived from the sessions.
    pub plays: PlaySet,
}

/// A worker pool plus deterministic task dispatch.
#[derive(Clone, Debug)]
pub struct Campaign {
    workers: Vec<Worker>,
    params: SessionParams,
    root: SeedTree,
    tasks_run: u64,
}

/// Draw `n` distinct indices from `0..pool` — a sparse partial
/// Fisher–Yates: exactly `n` RNG draws and O(n) memory, instead of
/// shuffling (and touching) the entire pool index per task.
fn sample_respondents(rng: &mut SimRng, pool: usize, n: usize) -> Vec<usize> {
    let n = n.min(pool);
    // `swapped[i]` records the value a full Fisher–Yates array would
    // hold at position i after the swaps so far.
    let mut swapped: HashMap<usize, usize> = HashMap::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.gen_range(i..pool);
        let vj = *swapped.get(&j).unwrap_or(&j);
        let vi = *swapped.get(&i).unwrap_or(&i);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out
}

impl Campaign {
    /// Create a campaign backed by `n_workers` simulated workers.
    /// The paper recruited 492.
    pub fn new(n_workers: usize, seed: u64) -> Self {
        let root = SeedTree::new(seed).child("campaign");
        let mut rng = root.child("pool").rng();
        Campaign {
            workers: sample_pool(n_workers, 10_000, &mut rng),
            params: SessionParams::default(),
            root,
            tasks_run: 0,
        }
    }

    /// Override the behaviour parameters (for ablations).
    pub fn with_params(mut self, params: SessionParams) -> Self {
        self.params = params;
        self
    }

    /// Number of workers in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Number of tasks dispatched so far.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Reserve the next task's seed node and sample its respondents.
    fn prepare_task(&mut self, n_responses: usize) -> (SeedTree, Vec<usize>) {
        let task_node = self.root.child("task").index(self.tasks_run);
        self.tasks_run += 1;
        let mut pick_rng = task_node.child("pick").rng();
        let picks = sample_respondents(&mut pick_rng, self.workers.len(), n_responses);
        (task_node, picks)
    }

    /// Simulate one prepared slot: respondent `picks[slot]` of the task
    /// rooted at `task_node` watches `video` around `dot`.
    fn simulate_slot(
        &self,
        task_node: &SeedTree,
        video: &LabeledVideo,
        dot: Sec,
        slot: usize,
        worker_index: usize,
    ) -> Session {
        let mut rng = task_node.child("worker").index(slot as u64).rng();
        simulate_session(
            video,
            dot,
            &self.workers[worker_index],
            &self.params,
            &mut rng,
        )
    }

    fn collect_result(sessions: Vec<Session>) -> TaskResult {
        let mut plays: Vec<Play> = Vec::new();
        for session in &sessions {
            plays.extend(session.plays());
        }
        TaskResult {
            sessions,
            plays: PlaySet::new(plays),
        }
    }

    /// Publish one task: `n_responses` distinct workers watch `video`
    /// around `dot` and their interactions are logged. The slots run on
    /// the caller's thread (see the module docs); the sessions equal
    /// those [`Campaign::run_tasks`] gives the same task.
    pub fn run_task(&mut self, video: &LabeledVideo, dot: Sec, n_responses: usize) -> TaskResult {
        let (task_node, picks) = self.prepare_task(n_responses);
        let sessions: Vec<Session> = picks
            .into_iter()
            .enumerate()
            .map(|(slot, wi)| self.simulate_slot(&task_node, video, dot, slot, wi))
            .collect();
        Self::collect_result(sessions)
    }

    /// Publish a whole round of tasks at once: task `i` runs at
    /// `tasks[i]`'s video/dot with `n_responses` respondents each.
    ///
    /// Equivalent to calling [`Campaign::run_task`] once per entry in
    /// order — same seed derivation, same results — but every
    /// `(task, slot)` pair lands in one flat parallel domain, so a
    /// round's sessions saturate the thread pool even when individual
    /// tasks are small. This is the eval harness's fan-out shape.
    pub fn run_tasks(
        &mut self,
        tasks: &[(&LabeledVideo, Sec)],
        n_responses: usize,
    ) -> Vec<TaskResult> {
        let prepared: Vec<(SeedTree, Vec<usize>)> = tasks
            .iter()
            .map(|_| self.prepare_task(n_responses))
            .collect();
        // Flatten to (task, slot, worker) so rayon sees one long domain.
        let units: Vec<(usize, usize, usize)> = prepared
            .iter()
            .enumerate()
            .flat_map(|(t, (_, picks))| {
                picks
                    .iter()
                    .enumerate()
                    .map(move |(slot, &wi)| (t, slot, wi))
            })
            .collect();
        let sessions: Vec<Session> = units
            .par_iter()
            .map(|&(t, slot, wi)| {
                let (node, _) = &prepared[t];
                let (video, dot) = tasks[t];
                self.simulate_slot(node, video, dot, slot, wi)
            })
            .collect();
        // Regroup in task order (slot counts are per-task).
        let mut out = Vec::with_capacity(tasks.len());
        let mut cursor = sessions.into_iter();
        for (_, picks) in &prepared {
            let task_sessions: Vec<Session> = cursor.by_ref().take(picks.len()).collect();
            out.push(Self::collect_result(task_sessions));
        }
        out
    }

    /// A collector closure for the Extractor's iterative loop: each call
    /// is one crowd round at the given dot position.
    pub fn collector<'a>(
        &'a mut self,
        video: &'a LabeledVideo,
        n_responses: usize,
    ) -> impl FnMut(Sec) -> PlaySet + 'a {
        move |dot| self.run_task(video, dot, n_responses).plays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightor_types::{ChannelId, ChatLogView, GameKind, Highlight, VideoId, VideoMeta};

    fn test_video() -> LabeledVideo {
        LabeledVideo {
            meta: VideoMeta {
                id: VideoId(0),
                channel: ChannelId(0),
                game: GameKind::Dota2,
                duration: Sec(3600.0),
                viewers: 500,
            },
            chat: ChatLogView::empty(),
            highlights: vec![Highlight::from_secs(1990.0, 2005.0)],
        }
    }

    #[test]
    fn task_returns_requested_responses() {
        let mut c = Campaign::new(100, 1);
        let v = test_video();
        let r = c.run_task(&v, Sec(1995.0), 10);
        assert_eq!(r.sessions.len(), 10);
        assert!(!r.plays.is_empty());
        assert_eq!(c.tasks_run(), 1);
        assert_eq!(c.pool_size(), 100);
    }

    #[test]
    fn responses_capped_by_pool() {
        let mut c = Campaign::new(5, 2);
        let v = test_video();
        let r = c.run_task(&v, Sec(1995.0), 50);
        assert_eq!(r.sessions.len(), 5);
    }

    #[test]
    fn distinct_workers_per_task() {
        let mut c = Campaign::new(100, 3);
        let v = test_video();
        let r = c.run_task(&v, Sec(1995.0), 20);
        let users: std::collections::HashSet<_> = r.sessions.iter().map(|s| s.user).collect();
        assert_eq!(
            users.len(),
            20,
            "workers must be sampled without replacement"
        );
    }

    #[test]
    fn sample_respondents_matches_full_fisher_yates() {
        // The sparse walk must equal the classic array-based partial
        // Fisher–Yates (same RNG stream, same output).
        for (pool, n, seed) in [(10, 10, 1u64), (100, 7, 2), (492, 10, 3), (5, 50, 4)] {
            let mut a_rng = SeedTree::new(seed).rng();
            let sparse = sample_respondents(&mut a_rng, pool, n);

            let n_eff = n.min(pool);
            let mut b_rng = SeedTree::new(seed).rng();
            let mut idx: Vec<usize> = (0..pool).collect();
            for i in 0..n_eff {
                let j = b_rng.gen_range(i..pool);
                idx.swap(i, j);
            }
            assert_eq!(sparse, idx[..n_eff], "pool {pool} n {n}");
            // Distinctness.
            let set: std::collections::HashSet<_> = sparse.iter().collect();
            assert_eq!(set.len(), n_eff);
        }
    }

    #[test]
    fn successive_tasks_differ() {
        let mut c = Campaign::new(100, 4);
        let v = test_video();
        let a = c.run_task(&v, Sec(1995.0), 10);
        let b = c.run_task(&v, Sec(1995.0), 10);
        // Same dot, but fresh respondents / randomness.
        assert_ne!(a.plays, b.plays);
        assert_eq!(c.tasks_run(), 2);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let v = test_video();
        let mut c1 = Campaign::new(50, 7);
        let mut c2 = Campaign::new(50, 7);
        let a = c1.run_task(&v, Sec(2000.0), 10);
        let b = c2.run_task(&v, Sec(2000.0), 10);
        assert_eq!(a.plays, b.plays);
    }

    #[test]
    fn run_tasks_matches_sequential_run_task() {
        let v = test_video();
        let dots = [Sec(1992.0), Sec(2000.0), Sec(2030.0)];

        let mut seq = Campaign::new(80, 11);
        let expected: Vec<TaskResult> = dots.iter().map(|&d| seq.run_task(&v, d, 8)).collect();

        let mut batch = Campaign::new(80, 11);
        let tasks: Vec<(&LabeledVideo, Sec)> = dots.iter().map(|&d| (&v, d)).collect();
        let got = batch.run_tasks(&tasks, 8);

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.sessions, e.sessions);
            assert_eq!(g.plays, e.plays);
        }
        assert_eq!(batch.tasks_run(), seq.tasks_run());
        // And the counter keeps advancing across batches.
        let more = batch.run_tasks(&tasks[..1], 8);
        assert_eq!(more.len(), 1);
        assert_eq!(batch.tasks_run(), 4);
    }

    #[test]
    fn collector_advances_rounds() {
        let v = test_video();
        let mut c = Campaign::new(50, 8);
        {
            let mut collect = c.collector(&v, 8);
            let p1 = collect(Sec(1995.0));
            let p2 = collect(Sec(1990.0));
            assert!(!p1.is_empty() && !p2.is_empty());
        }
        assert_eq!(c.tasks_run(), 2);
    }
}
