//! The three workloads of the Figure 5 loop and the run every one of
//! them goes through: set up (many times untraced, once traced), warm
//! up, then one phase at the workload's fixed rate — the whole run
//! untraced; half the run traced, followed by the layer probes, the
//! in-process replay and the goodput ladder.

use crate::common::*;
use crate::conn::{self, Conn};
use crate::ladder::{self, Ladder};
use crate::phase::{self, Abort, AckTotals, Expect, Kind, LaneOut, LanePlan, Op};
use crate::procs::{Fleet, RunDir};
use crate::replay::Replay;
use crate::sched;
use crate::stats;
use crate::trace::Tracer;
use lightor_chatsim::SimPlatform;
use lightor_crowdsim::Campaign;
use lightor_platform::wire::{
    DotsResponse, EventDto, StatsResponse, StreamAccepted, StreamBatchDto,
};
use lightor_platform::ServiceConfig;
use lightor_types::Sec;
use std::cell::Cell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least [`MIN_SETUPS`], then more until
/// [`SETUP_BUDGET`] has passed or [`MAX_SETUPS`] were made; `setup_s` is
/// their median, so a cheap set-up rests on many samples.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Minimum samples at the fixed rate, so p99 has ten beyond it.
const MIN_SAMPLES: usize = 1000;
/// Generator lag p99 above this share of the latency limit marks the
/// run invalid: the schedule, not the server, set the latencies.
const MAX_LAG_SHARE: f64 = 0.1;
/// Closed-loop pairs in the relay probe (router vs direct).
const RELAY_PAIRS: usize = 300;
/// Batches in the stream probe of workloads without writes.
const STREAM_PROBE_BATCHES: usize = 64;
/// Pause between two timings of the reference job.
const REFERENCE_PERIOD: Duration = Duration::from_millis(250);
/// CPU µs the reference job takes on a quiet 2-vCPU Xeon host of the
/// kind the benchmark was tuned on; CPU times are reported scaled to it.
const REFERENCE_US: f64 = 600.0;
/// `sync_data` calls in the disk-floor probe.
const FSYNC_PROBES: usize = 200;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub run: RunDir,
    pub spans_path: PathBuf,
    dirs: Cell<usize>,
}

impl Ctx {
    pub fn new(
        seed: u64,
        seconds: f64,
        trace: bool,
        bin_dir: PathBuf,
        run: RunDir,
        spans_path: PathBuf,
    ) -> Self {
        Ctx {
            seed,
            seconds,
            trace,
            bin_dir,
            run,
            spans_path,
            dirs: Cell::new(0),
        }
    }

    /// A fresh directory under the run directory.
    fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.run.sub(&format!("{tag}-{n}"))
    }
}

/// The servers one run drives.
pub struct Topology {
    pub fleet: Fleet,
    /// Where clients connect: the router when there is one.
    pub front: SocketAddr,
    pub backends: Vec<SocketAddr>,
    pub router: Option<SocketAddr>,
}

fn spawn_serve(ctx: &Ctx, fleet: &mut Fleet) -> Result<SocketAddr, String> {
    let dir = ctx.fresh_dir("serve")?;
    let args = vec![
        "--port".into(),
        "0".into(),
        "--data-dir".into(),
        dir.display().to_string(),
        "--seed".into(),
        ctx.seed.to_string(),
    ];
    fleet.spawn(
        "lightor-serve",
        &ctx.bin_dir.join("lightor-serve"),
        &args,
        &ctx.run.path,
        "lightor-serve listening on http://",
        &["catalog:"],
    )
}

fn spawn_router(
    ctx: &Ctx,
    fleet: &mut Fleet,
    backends: &[SocketAddr],
) -> Result<SocketAddr, String> {
    let mut args = vec!["--port".to_string(), "0".to_string()];
    for b in backends {
        args.push("--backend".into());
        args.push(b.to_string());
    }
    fleet.spawn(
        "lightor-router",
        &ctx.bin_dir.join("lightor-router"),
        &args,
        &ctx.run.path,
        "lightor-router listening on http://",
        &[],
    )
}

/// What fixes a workload's measurement.
pub struct Plan {
    pub name: &'static str,
    /// The operation whose latency and goodput the workload reports.
    pub primary: Kind,
    /// Prefix of the issue-level metric names (`dots`, `ack`, `first_sight`).
    pub label: &'static str,
    pub goodput_name: &'static str,
    pub goodput_unit: &'static str,
    pub limit_ms: f64,
    pub fixed_rate: f64,
    pub ladder: Ladder,
    /// Primary requests per ladder probe, so verdicts rest on similar
    /// sample sizes — fewer when a low rate would stretch the probe past
    /// its share of the run.
    pub probe_ops: usize,
}

pub trait Workload {
    fn plan(&self) -> &Plan;
    fn expect(&self) -> &Expect;
    fn platform(&self) -> &SimPlatform;
    /// Start the servers.
    fn spawn(&self, ctx: &Ctx) -> Result<Topology, String>;
    /// Untimed warm-up; returns the requests it sent, for the replay.
    fn warm_up(&mut self, topo: &Topology, rep: &mut Report) -> Result<Vec<Op>, String>;
    /// The lanes of one phase at primary rate `rate` lasting `secs`.
    fn lanes(&mut self, topo: &Topology, rate: f64, secs: f64) -> Result<Vec<LanePlan>, String>;
    /// Ops a phase generated but never attempted (an aborted probe).
    fn unattempted(&mut self, _ops: Vec<Op>) {}
    /// A video every traced probe can use (tracked after warm-up).
    fn probe_video(&self) -> u64;
    /// Videos whose refinement state the replay reports.
    fn state_videos(&self) -> Vec<u64>;
}

/// Paced `n` ops over one lane.
fn paced_lane(addr: SocketAddr, ops: Vec<Op>, rate: f64) -> LanePlan {
    let due = sched::paced(ops.len(), rate);
    LanePlan { addr, ops, due }
}

/// One op list split round-robin over two lanes at a combined `rate`.
fn two_lanes(addr: SocketAddr, ops: Vec<Op>, rate: f64) -> Vec<LanePlan> {
    let due = sched::paced(ops.len(), rate);
    let mut lanes: Vec<LanePlan> = (0..2)
        .map(|_| LanePlan {
            addr,
            ops: Vec::new(),
            due: Vec::new(),
        })
        .collect();
    for (i, (op, at)) in ops.into_iter().zip(due).enumerate() {
        lanes[i % 2].ops.push(op);
        lanes[i % 2].due.push(at);
    }
    lanes
}

fn ops_for(n: f64) -> usize {
    n.ceil().max(1.0) as usize
}

fn dots_op(video: u64) -> Op {
    Op {
        kind: Kind::Dots,
        video,
        raw: conn::get(&format!("/video/{video}/dots")),
    }
}

/// The same request, on a video nobody has opened yet.
fn first_sight_op(video: u64) -> Op {
    Op {
        kind: Kind::FirstSight,
        ..dots_op(video)
    }
}

/// Send `ops` one after another on one connection, checking each body.
fn closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    expect: &Expect,
) -> Result<(Vec<f64>, AckTotals), String> {
    let mut c = Conn::new(addr);
    let mut times = Vec::with_capacity(ops.len());
    let mut acks = AckTotals::default();
    for op in ops {
        let t = Instant::now();
        let resp = c.send(&op.raw).ok_or_else(|| {
            format!(
                "warm-up/probe request on video {} failed: {:?}",
                op.video, c.failures
            )
        })?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        match op.kind {
            Kind::Dots | Kind::FirstSight => {
                let body: DotsResponse = resp.json().map_err(|e| e.to_string())?;
                expect.check_dots(op.video, &body)?;
            }
            Kind::Stream => {
                let ack: StreamAccepted = resp.json().map_err(|e| e.to_string())?;
                acks.ack(&ack);
                if ack.lines_rejected != 0 {
                    return Err(format!(
                        "video {}: lines rejected {:?}",
                        op.video, ack.rejected
                    ));
                }
            }
        }
    }
    Ok((times, acks))
}

/// Crowd sessions simulated around a video's dots, as event lists.
struct SessionPool {
    sessions: Vec<Vec<EventDto>>,
}

impl SessionPool {
    fn simulate(
        platform: &SimPlatform,
        video: u64,
        dots: &[f64],
        per_dot: usize,
        campaign: &mut Campaign,
    ) -> Self {
        let sim = platform
            .ground_truth(lightor_types::VideoId(video))
            .expect("catalog video");
        let mut sessions = Vec::new();
        for &at in dots {
            for s in campaign.run_task(&sim.video, Sec(at), per_dot).sessions {
                if !s.events.is_empty() {
                    sessions.push(s.events.iter().map(|&e| EventDto::from(e)).collect());
                }
            }
        }
        SessionPool { sessions }
    }

    /// One NDJSON line: session `i` (mod pool) sent as `client`'s batch `seq`.
    fn line(&self, video: u64, client: u64, seq: u64, i: usize) -> String {
        serde_json::to_string(&StreamBatchDto {
            video,
            client,
            seq: Some(seq),
            events: self.sessions[i % self.sessions.len()].clone(),
        })
        .expect("batch serializes")
    }
}

fn stream_op(video: u64, lines: &[String]) -> Op {
    let mut body = lines.join("\n").into_bytes();
    body.push(b'\n');
    Op {
        kind: Kind::Stream,
        video,
        raw: conn::post("/sessions/stream", &body),
    }
}

fn current_dots(addr: SocketAddr, video: u64) -> Result<Vec<f64>, String> {
    let d: DotsResponse = conn::get_json(addr, &format!("/video/{video}/dots"))?;
    Ok(d.dots.iter().map(|d| d.at_seconds).collect())
}

fn durations(platform: &SimPlatform) -> HashMap<u64, f64> {
    platform
        .all_videos()
        .map(|v| (v.video.meta.id.0, v.video.meta.duration.0))
        .collect()
}

fn expect_for(platform: &SimPlatform) -> Expect {
    Expect {
        top_k: ServiceConfig::default().top_k,
        durations: durations(platform),
    }
}

fn sorted_catalog(platform: &SimPlatform) -> Vec<u64> {
    let mut ids: Vec<u64> = platform.all_videos().map(|v| v.video.meta.id.0).collect();
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------
// dots_read
// ---------------------------------------------------------------------

pub struct DotsRead {
    plan: Plan,
    platform: SimPlatform,
    expect: Expect,
    catalog: Vec<u64>,
    zipf: Zipf,
    rng: Rng,
}

/// Warm reads after every video's first sight, before timing.
const DOTS_WARM_READS: usize = 400;

impl DotsRead {
    pub fn new(seed: u64) -> Self {
        let platform = platform_for(seed, 3);
        let catalog = sorted_catalog(&platform);
        let mut rng = Rng::new(seed ^ 0xD0_75);
        let mut by_popularity = catalog.clone();
        rng.shuffle(&mut by_popularity);
        DotsRead {
            plan: Plan {
                name: "dots_read",
                primary: Kind::Dots,
                label: "dots",
                goodput_name: "dots_goodput_rps",
                goodput_unit: "req/s",
                limit_ms: 20.0,
                fixed_rate: 3000.0,
                ladder: Ladder::spanning(100.0, 100_000.0, 1.05),
                probe_ops: 15_000,
            },
            expect: expect_for(&platform),
            platform,
            catalog,
            zipf: Zipf::new(by_popularity),
            rng,
        }
    }

    fn next_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| dots_op(self.zipf.draw(&mut self.rng)))
            .collect()
    }
}

impl Workload for DotsRead {
    fn plan(&self) -> &Plan {
        &self.plan
    }
    fn expect(&self) -> &Expect {
        &self.expect
    }
    fn platform(&self) -> &SimPlatform {
        &self.platform
    }

    fn spawn(&self, ctx: &Ctx) -> Result<Topology, String> {
        let mut fleet = Fleet::default();
        let backends = vec![spawn_serve(ctx, &mut fleet)?, spawn_serve(ctx, &mut fleet)?];
        let router = spawn_router(ctx, &mut fleet, &backends)?;
        Ok(Topology {
            fleet,
            front: router,
            backends,
            router: Some(router),
        })
    }

    fn warm_up(&mut self, topo: &Topology, _rep: &mut Report) -> Result<Vec<Op>, String> {
        let mut ops: Vec<Op> = self.catalog.iter().map(|&v| first_sight_op(v)).collect();
        ops.extend(self.next_ops(DOTS_WARM_READS));
        closed_loop(topo.front, &ops, &self.expect)?;
        Ok(ops)
    }

    fn lanes(&mut self, topo: &Topology, rate: f64, secs: f64) -> Result<Vec<LanePlan>, String> {
        let ops = self.next_ops(ops_for(rate * secs));
        Ok(two_lanes(topo.front, ops, rate))
    }

    fn probe_video(&self) -> u64 {
        self.catalog[0]
    }

    fn state_videos(&self) -> Vec<u64> {
        self.catalog.clone()
    }
}

// ---------------------------------------------------------------------
// ingest_mixed
// ---------------------------------------------------------------------

/// Hot videos taking the writes.
const HOT_VIDEOS: usize = 4;
/// Distinct clients per hot video: its simulated audience
/// (`meta.viewers`), capped so warm-up stays within a run's budget.
const AUDIENCE_CAP: u64 = 300;
/// Dots reads per second beside the writes.
const INGEST_READ_RATE: f64 = 200.0;
/// NDJSON lines per warm-up POST.
const WARM_LINES_PER_POST: usize = 100;
/// Sessions simulated per dot for each pool.
const SESSIONS_PER_DOT: usize = 40;

pub struct IngestMixed {
    plan: Plan,
    platform: SimPlatform,
    expect: Expect,
    hot: Vec<u64>,
    audience: HashMap<u64, u64>,
    /// Next client (round-robin) and next sequence per `(video, client)`.
    cursor: HashMap<u64, u64>,
    next_seq: HashMap<(u64, u64), u64>,
    pools: HashMap<u64, SessionPool>,
    campaign: Campaign,
    rng: Rng,
}

impl IngestMixed {
    pub fn new(seed: u64) -> Self {
        let platform = platform_for(seed, 3);
        // The most-watched videos are the hot ones.
        let mut by_viewers: Vec<(u32, u64)> = platform
            .all_videos()
            .map(|v| (v.video.meta.viewers, v.video.meta.id.0))
            .collect();
        by_viewers.sort_unstable_by(|a, b| b.cmp(a));
        let hot: Vec<u64> = by_viewers
            .iter()
            .take(HOT_VIDEOS)
            .map(|&(_, id)| id)
            .collect();
        let audience = by_viewers
            .iter()
            .take(HOT_VIDEOS)
            .map(|&(viewers, id)| (id, u64::from(viewers).min(AUDIENCE_CAP)))
            .collect();
        IngestMixed {
            plan: Plan {
                name: "ingest_mixed",
                primary: Kind::Stream,
                label: "ack",
                goodput_name: "ack_goodput_bps",
                goodput_unit: "batches/s",
                limit_ms: 100.0,
                fixed_rate: 100.0,
                ladder: Ladder::spanning(10.0, 5_000.0, 1.05),
                probe_ops: 600,
            },
            expect: expect_for(&platform),
            platform,
            hot,
            audience,
            cursor: HashMap::new(),
            next_seq: HashMap::new(),
            pools: HashMap::new(),
            campaign: Campaign::new(200, seed ^ 0x1_96E5),
            rng: Rng::new(seed ^ 0x1_96E5),
        }
    }

    fn simulate_pools(&mut self, addr: SocketAddr) -> Result<(), String> {
        for &v in &self.hot {
            let dots = current_dots(addr, v)?;
            let pool = SessionPool::simulate(
                &self.platform,
                v,
                &dots,
                SESSIONS_PER_DOT,
                &mut self.campaign,
            );
            self.pools.insert(v, pool);
        }
        Ok(())
    }

    /// The next timed batch: a hot video, its next audience member, that
    /// member's next sequence number.
    fn next_batch(&mut self) -> Op {
        let video = self.hot[self.rng.below(self.hot.len())];
        let audience = self.audience[&video];
        let cursor = self.cursor.entry(video).or_default();
        let client = *cursor % audience + 1;
        *cursor += 1;
        let seq = self.next_seq.entry((video, client)).or_insert(2);
        let pool = &self.pools[&video];
        let line = pool.line(video, client, *seq, self.rng.below(pool.sessions.len()));
        *seq += 1;
        stream_op(video, &[line])
    }
}

impl Workload for IngestMixed {
    fn plan(&self) -> &Plan {
        &self.plan
    }
    fn expect(&self) -> &Expect {
        &self.expect
    }
    fn platform(&self) -> &SimPlatform {
        &self.platform
    }

    fn spawn(&self, ctx: &Ctx) -> Result<Topology, String> {
        let mut fleet = Fleet::default();
        let addr = spawn_serve(ctx, &mut fleet)?;
        Ok(Topology {
            fleet,
            front: addr,
            backends: vec![addr],
            router: None,
        })
    }

    fn warm_up(&mut self, topo: &Topology, rep: &mut Report) -> Result<Vec<Op>, String> {
        // First sight of each hot video, then its whole audience sends
        // one sequenced batch each, simulated around the initial dots.
        let mut ops: Vec<Op> = self.hot.iter().map(|&v| first_sight_op(v)).collect();
        closed_loop(topo.front, &ops, &self.expect)?;
        self.simulate_pools(topo.front)?;
        let mut audience_ops = Vec::new();
        for &v in &self.hot {
            let pool = &self.pools[&v];
            let lines: Vec<String> = (1..=self.audience[&v])
                .map(|c| pool.line(v, c, 1, c as usize))
                .collect();
            audience_ops.extend(
                lines
                    .chunks(WARM_LINES_PER_POST)
                    .map(|chunk| stream_op(v, chunk)),
            );
        }
        let (_, acks) = closed_loop(topo.front, &audience_ops, &self.expect)?;
        let members: u64 = self.audience.values().sum();
        rep.check(
            acks.batches_folded == members && acks.batches_replayed == 0,
            format!(
                "warm-up audience of {members} clients folded {} batches",
                acks.batches_folded
            ),
        );
        ops.extend(audience_ops);
        // Timed sessions are simulated around the dots as they now stand.
        self.simulate_pools(topo.front)?;
        Ok(ops)
    }

    fn lanes(&mut self, topo: &Topology, rate: f64, secs: f64) -> Result<Vec<LanePlan>, String> {
        let writes: Vec<Op> = (0..ops_for(rate * secs))
            .map(|_| self.next_batch())
            .collect();
        let reads: Vec<Op> = (0..ops_for(INGEST_READ_RATE * secs))
            .map(|_| dots_op(self.hot[self.rng.below(self.hot.len())]))
            .collect();
        Ok(vec![
            paced_lane(topo.front, writes, rate),
            paced_lane(topo.front, reads, INGEST_READ_RATE),
        ])
    }

    fn probe_video(&self) -> u64 {
        self.hot[0]
    }

    fn state_videos(&self) -> Vec<u64> {
        self.hot.clone()
    }
}

// ---------------------------------------------------------------------
// first_sight
// ---------------------------------------------------------------------

/// Videos first-sighted in warm-up, untimed.
const FIRST_SIGHT_WARM: usize = 20;
/// Ladder probes the catalog has videos for; a search typically makes
/// 8 to 12.
const FIRST_SIGHT_PROBES: usize = 16;

pub struct FirstSight {
    plan: Plan,
    platform: SimPlatform,
    expect: Expect,
    channels: usize,
    /// Never-opened videos in seeded random order, taken from the end.
    unopened: Vec<u64>,
    /// The first video the warm-up opened.
    probe_video: u64,
}

impl FirstSight {
    /// A catalog large enough that no video is opened twice in a run of
    /// `seconds`: the warm-up and the untraced fixed phase, or the warm-up,
    /// the traced fixed phase and [`FIRST_SIGHT_PROBES`] ladder probes (an
    /// aborted probe hands its unsent videos back; a search that runs out
    /// stops at its highest pass so far). Both modes get the same catalog,
    /// so they set up the same server.
    pub fn new(seed: u64, seconds: f64) -> Self {
        let plan = Plan {
            name: "first_sight",
            primary: Kind::FirstSight,
            label: "first_sight",
            goodput_name: "first_sight_goodput_vps",
            goodput_unit: "videos/s",
            limit_ms: 100.0,
            fixed_rate: 100.0,
            ladder: Ladder::spanning(10.0, 2_000.0, 1.05),
            probe_ops: 100,
        };
        let fixed = |trace| ops_for(plan.fixed_rate * fixed_secs(seconds, plan.fixed_rate, trace));
        let needed =
            FIRST_SIGHT_WARM + fixed(false).max(fixed(true) + FIRST_SIGHT_PROBES * plan.probe_ops);
        let channels = needed.div_ceil(VIDEOS_PER_CHANNEL);
        let platform = platform_for(seed, channels);
        let mut unopened = sorted_catalog(&platform);
        Rng::new(seed ^ 0xF1_5E).shuffle(&mut unopened);
        FirstSight {
            plan,
            expect: expect_for(&platform),
            platform,
            channels,
            unopened,
            probe_video: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<Vec<Op>, String> {
        if n > self.unopened.len() {
            return Err(format!("catalog exhausted: {n} more first sights wanted"));
        }
        let videos = self.unopened.split_off(self.unopened.len() - n);
        Ok(videos.into_iter().rev().map(first_sight_op).collect())
    }
}

impl Workload for FirstSight {
    fn plan(&self) -> &Plan {
        &self.plan
    }
    fn expect(&self) -> &Expect {
        &self.expect
    }
    fn platform(&self) -> &SimPlatform {
        &self.platform
    }

    fn spawn(&self, ctx: &Ctx) -> Result<Topology, String> {
        let mut fleet = Fleet::default();
        let dir = ctx.fresh_dir("catalog")?;
        let args: Vec<String> = [
            "serve-catalog",
            "--port",
            "0",
            "--data-dir",
            &dir.display().to_string(),
            "--seed",
            &ctx.seed.to_string(),
            "--channels",
            &self.channels.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let addr = fleet.spawn(
            "serve-catalog",
            &exe,
            &args,
            &ctx.run.path,
            "lightor-serve listening on http://",
            &["catalog:"],
        )?;
        Ok(Topology {
            fleet,
            front: addr,
            backends: vec![addr],
            router: None,
        })
    }

    fn warm_up(&mut self, topo: &Topology, _rep: &mut Report) -> Result<Vec<Op>, String> {
        let ops = self.take(FIRST_SIGHT_WARM)?;
        closed_loop(topo.front, &ops, &self.expect)?;
        self.probe_video = ops[0].video;
        Ok(ops)
    }

    fn lanes(&mut self, topo: &Topology, rate: f64, secs: f64) -> Result<Vec<LanePlan>, String> {
        let ops = self.take(ops_for(rate * secs))?;
        Ok(two_lanes(topo.front, ops, rate))
    }

    fn unattempted(&mut self, ops: Vec<Op>) {
        self.unopened.extend(ops.iter().rev().map(|o| o.video));
    }

    fn probe_video(&self) -> u64 {
        self.probe_video
    }

    fn state_videos(&self) -> Vec<u64> {
        vec![self.probe_video()]
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Length of the fixed-rate phase, never fewer than [`MIN_SAMPLES`]
/// requests at `rate`: the whole run untraced, so the bounded metrics
/// rest on every second of it; half the run traced, where the goodput
/// ladder takes the other half.
fn fixed_secs(seconds: f64, rate: f64, trace: bool) -> f64 {
    let share = if trace { 0.5 } else { 1.0 };
    (seconds * share).max(MIN_SAMPLES as f64 / rate)
}

/// Ladder probes a search typically makes (retries included): each
/// gets this share of the ladder's half of the run.
const TYPICAL_PROBES: usize = 10;

/// Latencies (ms, schedule order) of every `kind` op whose record
/// passes `keep`.
fn latencies(outs: &[LaneOut], kind: Kind, keep: impl Fn(&sched::Record) -> bool) -> Vec<f64> {
    let mut v: Vec<(Duration, f64)> = Vec::new();
    for out in outs {
        for (r, l) in out.records.iter().zip(out.latencies_ms()) {
            if out.ops[r.op].kind == kind && keep(r) {
                v.push((r.due, l));
            }
        }
    }
    v.sort_by_key(|x| x.0);
    v.into_iter().map(|(_, l)| l).collect()
}

/// Completed `kind` requests per second, from the first due time to the
/// last completion.
fn achieved_rate(outs: &[LaneOut], kind: Kind) -> f64 {
    let recs: Vec<&sched::Record> = outs
        .iter()
        .flat_map(|o| o.records.iter().filter(move |r| o.ops[r.op].kind == kind))
        .collect();
    let first = recs.iter().map(|r| r.due).min().unwrap_or_default();
    let last = recs.iter().map(|r| r.done).max().unwrap_or_default();
    ratio(recs.len() as f64, last.saturating_sub(first).as_secs_f64())
}

/// Attempted ops of a phase, in due order, for the replay log.
fn attempted_ops(outs: &[LaneOut]) -> Vec<Op> {
    let mut v: Vec<(Duration, &Op)> = outs
        .iter()
        .flat_map(|o| o.records.iter().map(move |r| (r.due, &o.ops[r.op])))
        .collect();
    v.sort_by_key(|x| x.0);
    v.into_iter().map(|(_, op)| op.clone()).collect()
}

/// Per-phase accounting: attempted / succeeded / failed, by kind of
/// failure, and every body check that failed.
fn account(rep: &mut Report, phase: &str, outs: &[LaneOut]) -> AckTotals {
    let attempted: u64 = outs.iter().map(|o| o.records.len() as u64).sum();
    let failed: u64 = outs.iter().map(LaneOut::failed).sum();
    let mut kinds: std::collections::BTreeMap<String, u64> = Default::default();
    for o in outs {
        for (k, n) in &o.failures {
            *kinds.entry(k.clone()).or_default() += n;
        }
    }
    rep.attempted += attempted;
    rep.failed += failed;
    rep.line(format!(
        "phase {phase}: attempted {attempted}, succeeded {}, failed {failed} {kinds:?}",
        attempted - failed
    ));
    let mut acks = AckTotals::default();
    for o in outs {
        for m in &o.mismatches {
            rep.check(false, format!("{phase}: {m}"));
        }
        acks.add(o.acks);
    }
    acks
}

fn sum_stat(snaps: &[StatsResponse], f: impl Fn(&StatsResponse) -> u64) -> u64 {
    snaps.iter().map(f).sum()
}

fn delta(
    before: &[StatsResponse],
    after: &[StatsResponse],
    f: impl Fn(&StatsResponse) -> u64 + Copy,
) -> u64 {
    sum_stat(after, f).saturating_sub(sum_stat(before, f))
}

fn route(before: &[StatsResponse], after: &[StatsResponse], name: &str) -> RouteDelta {
    let mut d = RouteDelta::default();
    for (b, a) in before.iter().zip(after) {
        let r = route_delta(b, a, name);
        d.requests += r.requests;
        d.latency_total_us += r.latency_total_us;
    }
    d
}

fn snapshot(topo: &Topology) -> Result<Vec<StatsResponse>, String> {
    topo.backends.iter().map(|&a| stats(a)).collect()
}

/// Durable-ingest reconciliation: every batch acknowledged was folded
/// exactly once, by the client's count, the acks' and the server's.
fn check_acks(
    rep: &mut Report,
    what: &str,
    sent_ok: u64,
    acks: &AckTotals,
    before: &[StatsResponse],
    after: &[StatsResponse],
) {
    let folded = delta(before, after, |s| s.stream_batches_folded);
    let replayed = delta(before, after, |s| s.stream_batches_replayed);
    rep.check(
        sent_ok == acks.batches_folded && acks.batches_folded == folded && replayed == 0 && acks.batches_replayed == 0,
        format!(
            "{what}: batches acked {sent_ok} = ack batches_folded {} = /stats folded delta {folded}, replays {replayed}",
            acks.batches_folded
        ),
    );
}

fn successful(outs: &[LaneOut], kind: Kind) -> u64 {
    outs.iter()
        .flat_map(|o| o.records.iter().map(move |r| (r, o.ops[r.op].kind)))
        .filter(|(r, k)| r.ok && *k == kind)
        .count() as u64
}

/// The goodput search: the highest ladder step whose probe keeps p99
/// within the limit with no growing backlog, in requests per second.
/// `fixed` is the fixed-rate phase just run on `topo`; it counts as the
/// first probe. Every batch the probes get acknowledged is reconciled.
fn goodput_ladder(
    ctx: &Ctx,
    w: &mut dyn Workload,
    topo: &Topology,
    fixed: &[LaneOut],
    rep: &mut Report,
) -> Result<(f64, usize), String> {
    let p = w.plan();
    let (ladder, probe_ops, primary, limit, rate) =
        (p.ladder, p.probe_ops, p.primary, p.limit_ms, p.fixed_rate);
    let max_secs = ctx.seconds * 0.5 / TYPICAL_PROBES as f64;
    let before = snapshot(topo)?;
    let (mut acks, mut sent_ok, mut probe_no) = (AckTotals::default(), 0, 0);
    // If the fixed phase met the limit at the fixed rate, the search
    // starts above that step.
    let fixed_passed = ladder::probe_passes(
        &latencies(fixed, primary, |_| true),
        limit,
        achieved_rate(fixed, primary),
        rate,
    );
    let start = if fixed_passed {
        ladder.step_at_or_below(rate)
    } else {
        None
    };
    let (goodput, probes) = ladder.search(start, |r| {
        // A probe that fails is run once more: one transient stall of the
        // machine is not the program's capacity.
        (0..2).any(|_| {
            probe_no += 1;
            let lanes = match w.lanes(topo, r, (probe_ops as f64 / r).min(max_secs)) {
                Ok(l) => l,
                Err(e) => {
                    rep.line(format!("probe at {r:.1}/s not run: {e}"));
                    return false;
                }
            };
            let scheduled = lanes
                .iter()
                .flat_map(|l| &l.ops)
                .filter(|o| o.kind == primary)
                .count();
            let abort = Abort {
                limit_ms: limit,
                budget: scheduled / 100,
            };
            let outs = phase::run(lanes, w.expect(), Some(abort), None);
            acks.add(account(
                rep,
                &format!("probe {probe_no} at {r:.1}/s"),
                &outs,
            ));
            sent_ok += successful(&outs, Kind::Stream);
            for o in &outs {
                w.unattempted(o.ops[o.records.len()..].to_vec());
            }
            let lat = latencies(&outs, primary, |_| true);
            // An aborted probe attempted fewer than it scheduled.
            lat.len() == scheduled
                && ladder::probe_passes(&lat, limit, achieved_rate(&outs, primary), r)
        })
    });
    rep.line(format!(
        "ladder: fixed phase {} the limit; probes (rate, passed): {probes:?}",
        if fixed_passed { "met" } else { "missed" }
    ));
    let after = snapshot(topo)?;
    if sent_ok > 0 {
        check_acks(rep, "ladder", sent_ok, &acks, &before, &after);
    }
    let goodput = goodput.map_or(0.0, |i| ladder.rate(i));
    let p = w.plan();
    rep.line(format!(
        "{} = {goodput} {} (n={} probes, p99 limit {limit} ms)",
        p.goodput_name,
        p.goodput_unit,
        probes.len()
    ));
    Ok((goodput, probes.len()))
}

/// A fixed job of hashing, formatting, sorting and small socket writes
/// and reads, the kinds of work a server request does. Returns the CPU
/// seconds it took on the calling thread: timed beside a phase, it tells
/// how fast this host ran such work at that moment.
fn reference_job() -> f64 {
    use std::io::{Read, Write};
    let t = crate::procs::thread_cpu_secs();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for i in 0..2000 {
        *counts.entry(format!("video-{}", i % 700)).or_default() += i;
    }
    let mut sorted: Vec<(usize, String)> = counts.into_iter().map(|(k, n)| (n, k)).collect();
    sorted.sort();
    let text: String = sorted
        .iter()
        .map(|(n, k)| format!("{{\"{k}\":{n}}},"))
        .collect();
    let (mut a, mut b) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    let mut buf = [0u8; 512];
    for chunk in text.as_bytes().chunks(buf.len()).take(20) {
        a.write_all(chunk).expect("socket pair write");
        b.read_exact(&mut buf[..chunk.len()])
            .expect("socket pair read");
    }
    std::hint::black_box(&buf);
    crate::procs::thread_cpu_secs() - t
}

/// Run `f` while another thread times [`reference_job`] every
/// [`REFERENCE_PERIOD`] (about 0.2% of one CPU) and sends no requests;
/// returns `f`'s result and the factor that scales CPU time measured
/// meanwhile to a host on which the job takes [`REFERENCE_US`].
fn at_reference_speed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let done = std::sync::atomic::AtomicBool::new(false);
    let (out, times) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            // At least one timing, however short `f` is.
            let mut times = vec![reference_job()];
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(REFERENCE_PERIOD);
                times.push(reference_job());
            }
            times
        });
        let out = f();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (out, sampler.join().expect("reference sampler"))
    });
    (out, REFERENCE_US * 1e-6 / stats::median(&times))
}

pub fn drive(ctx: &Ctx, w: &mut dyn Workload) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut rep = Report::default();
    let (name, primary, label, limit, rate) = {
        let p = w.plan();
        (p.name, p.primary, p.label, p.limit_ms, p.fixed_rate)
    };
    rep.line(format!(
        "workload {name}: seed {}, latency limit {limit} ms, fixed rate {rate}/s, {} s",
        ctx.seed, ctx.seconds
    ));

    // Set up several times; the last topology serves the run.
    let (setups, setup_scale) = at_reference_speed(|| {
        let (mut times, mut cpu_times) = (Vec::new(), Vec::new());
        let mut topo = None;
        let setups_start = Instant::now();
        while times.is_empty()
            || (!ctx.trace
                && times.len() < MAX_SETUPS
                && (times.len() < MIN_SETUPS || setups_start.elapsed() < SETUP_BUDGET))
        {
            drop(topo.take());
            let t = Instant::now();
            let spawned = w.spawn(ctx)?;
            times.push(t.elapsed().as_secs_f64());
            cpu_times.push(spawned.fleet.cpu_secs()?);
            topo = Some(spawned);
        }
        Ok::<_, String>((times, cpu_times, topo.expect("at least one set-up")))
    });
    let (times, cpu_times, topo) = setups?;
    let setup_s = stats::median(&cpu_times) * setup_scale;
    rep.line(format!(
        "set-up: median {} s of server CPU ({setup_s} s at reference speed), {} s wall (n={})",
        stats::median(&cpu_times),
        stats::median(&times),
        times.len()
    ));
    let train_ms = snapshot(&topo)?
        .iter()
        .map(|s| s.train_boot_ms)
        .max()
        .unwrap_or(0);

    let mut log = w.warm_up(&topo, &mut rep)?;
    let warm_len = log.len();
    let before = snapshot(&topo)?;

    // The fixed-rate phase. Traced, every other request of each lane
    // carries a driver span, so traced and untraced requests share the
    // server state and their difference is the tracing overhead.
    let mut tracer = Tracer::new(t0);
    let lanes = w.lanes(&topo, rate, fixed_secs(ctx.seconds, rate, ctx.trace))?;
    let cpu_before = topo.fleet.cpu_secs()?;
    let (fixed, cpu_scale) = at_reference_speed(|| {
        phase::run(lanes, w.expect(), None, ctx.trace.then_some(&mut tracer))
    });
    let cpu_secs = topo.fleet.cpu_secs()? - cpu_before;
    let acks = account(&mut rep, "fixed", &fixed);
    let sent_ok = successful(&fixed, Kind::Stream);
    log.extend(attempted_ops(&fixed));
    let measured_len = log.len();
    let summary = stats::summarize_windowed(&latencies(&fixed, primary, |_| true), MIN_SAMPLES);
    let lags: Vec<f64> = fixed
        .iter()
        .flat_map(|o| o.records.iter().map(|r| r.lag.as_secs_f64() * 1e6))
        .collect();
    let lag_p99 = stats::percentile(&stats::sorted(&lags), 0.99);
    let lag_limit = MAX_LAG_SHARE * limit * 1e3;
    rep.line(format!(
        "validity: generator lag p99 {lag_p99:.1} us ({}; limit {lag_limit} us)",
        if lag_p99 <= lag_limit {
            "valid"
        } else {
            "INVALID: the generator fell behind its schedule"
        },
    ));
    rep.line(format!(
        "{label}_p50_ms = {} ms (n={})",
        summary.p50, summary.n
    ));
    rep.line(format!(
        "{label}_p90_ms = {} ms (n={})",
        summary.p90, summary.n
    ));
    rep.line(format!(
        "{label}_p99_ms = {} ms (n={}, median over {} windows of {}+ samples, {} beyond each p99)",
        summary.p99,
        summary.n,
        summary.windows,
        summary.n / summary.windows,
        stats::samples_beyond(summary.n / summary.windows, 0.99)
    ));
    if primary == Kind::Stream {
        let reads =
            stats::summarize_windowed(&latencies(&fixed, Kind::Dots, |_| true), MIN_SAMPLES);
        rep.line(format!("dots_p50_ms = {} ms (n={})", reads.p50, reads.n));
        rep.line(format!("dots_p99_ms = {} ms (n={})", reads.p99, reads.n));
    }
    // Server CPU over the phase per primary request; in `ingest_mixed`
    // each ack also carries its share of the reads beside it.
    let raw_cpu_us = cpu_secs * 1e6 / summary.n.max(1) as f64;
    let cpu_us_per_req = raw_cpu_us * cpu_scale;
    let reference_us = REFERENCE_US / cpu_scale;
    rep.line(format!(
        "{label}_cpu_us = {cpu_us_per_req} us of server CPU per request at reference speed \
         ({raw_cpu_us} us as measured, reference job {reference_us} us; n={})",
        summary.n
    ));
    let attempted: usize = fixed.iter().map(|o| o.records.len()).sum();
    let failed: u64 = fixed.iter().map(LaneOut::failed).sum();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    rep.line(format!("failed_frac = {failed_frac} (n={attempted})"));

    if !ctx.trace {
        let after = snapshot(&topo)?;
        if sent_ok > 0 {
            check_acks(&mut rep, "fixed", sent_ok, &acks, &before, &after);
        }
        let rss = topo.fleet.peak_rss_mb()?;
        rep.line(format!(
            "peak_rss_mb by server: {:?}",
            topo.fleet.peak_rss_by_server()?
        ));
        rep.metric("setup_s", setup_s, "s", Some(times.len()));
        rep.metric("peak_rss_mb", rss, "MiB", Some(topo.fleet.servers.len()));
        rep.metric("ok_frac", 1.0 - failed_frac, "ratio", Some(attempted));
        rep.metric("cpu_us_per_req", cpu_us_per_req, "us", Some(summary.n));
        return Ok(rep);
    }

    let after = snapshot(&topo)?;
    if sent_ok > 0 {
        check_acks(&mut rep, "fixed", sent_ok, &acks, &before, &after);
    }
    let traced_p50 = stats::summarize(&latencies(&fixed, primary, |r| r.op % 2 == 0)).p50;
    let untraced_p50 = stats::summarize(&latencies(&fixed, primary, |r| r.op % 2 == 1)).p50;
    rep.line(format!(
        "{label}_p50_ms: untraced requests {untraced_p50}, traced requests {traced_p50}"
    ));

    // Server-side layers from /stats deltas over the phase.
    let client_dots_us: Vec<f64> = fixed
        .iter()
        .flat_map(|o| o.records.iter().map(move |r| (r, o.ops[r.op].kind)))
        .filter(|(r, k)| r.ok && matches!(k, Kind::Dots | Kind::FirstSight))
        .map(|(r, _)| (r.done - r.sent).as_secs_f64() * 1e6)
        .collect();
    let dots_route = route(&before, &after, DOTS_ROUTE);
    let handler_dots = ratio(
        dots_route.latency_total_us as f64,
        dots_route.requests as f64,
    );
    let per_backend: Vec<u64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| route_delta(b, a, DOTS_ROUTE).requests)
        .collect();
    let owner_share = ratio(
        *per_backend.iter().max().unwrap_or(&0) as f64,
        per_backend.iter().sum::<u64>() as f64,
    );
    let hit_ratio = |hits: fn(&StatsResponse) -> u64, misses: fn(&StatsResponse) -> u64| {
        let (h, m) = (delta(&before, &after, hits), delta(&before, &after, misses));
        ratio(h as f64, (h + m) as f64)
    };
    let corpus_ratio = hit_ratio(|s| s.corpus_cache_hits, |s| s.corpus_cache_misses);
    let tokenized_ratio = hit_ratio(|s| s.tokenized_hits, |s| s.tokenized_misses);

    // Stream layers come from the workload's own writes; a workload
    // without writes gets a small closed-loop stream probe.
    let (stream_before, stream_after, stream_acks) = if primary == Kind::Stream {
        (before.clone(), after.clone(), acks)
    } else {
        let video = w.probe_video();
        let dots = current_dots(topo.front, video)?;
        let mut campaign = Campaign::new(200, ctx.seed ^ 0x9_0BE);
        let per_dot = STREAM_PROBE_BATCHES / dots.len().max(1) + 1;
        let pool = SessionPool::simulate(w.platform(), video, &dots, per_dot, &mut campaign);
        let ops: Vec<Op> = (0..STREAM_PROBE_BATCHES)
            .map(|i| stream_op(video, &[pool.line(video, i as u64 + 1, 1, i)]))
            .collect();
        let s0 = snapshot(&topo)?;
        let (_, probe_acks) = closed_loop(topo.front, &ops, w.expect())?;
        let s1 = snapshot(&topo)?;
        check_acks(
            &mut rep,
            "stream probe",
            ops.len() as u64,
            &probe_acks,
            &s0,
            &s1,
        );
        log.extend(ops);
        (s0, s1, probe_acks)
    };
    let stream_route = route(&stream_before, &stream_after, STREAM_ROUTE);
    let wal = delta(&stream_before, &stream_after, |s| s.kv_wal_appends);
    let rewrites = delta(&stream_before, &stream_after, |s| s.kv_shard_rewrites);

    // Relay: the same GET via the router and straight to its owner,
    // alternated. Workloads without a router get one for the probe.
    let mut probe_fleet = Fleet::default();
    let router = match topo.router {
        Some(r) => r,
        None => spawn_router(ctx, &mut probe_fleet, &topo.backends)?,
    };
    let ring =
        lightor_server::Cluster::new(lightor_server::ClusterConfig::new(topo.backends.clone()));
    let video = w.probe_video();
    let owner = topo.backends[ring.shard_for(video)];
    let op = [dots_op(video)];
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..RELAY_PAIRS {
        via.extend(closed_loop(router, &op, w.expect())?.0);
        direct.extend(closed_loop(owner, &op, w.expect())?.0);
    }
    probe_fleet.stop();
    let (via_med, direct_med) = (stats::median(&via), stats::median(&direct));

    // The in-process replay of everything the servers were sent.
    let models = models_for(ctx.seed);
    let mut replay = Replay::new(&ctx.fresh_dir("replay")?, w.platform(), &models, t0)?;
    let state_videos = w.state_videos();
    replay.run(&log[..warm_len], &state_videos);
    let start_state = state_totals(&replay, &state_videos);
    replay.run(&log[warm_len..measured_len], &state_videos);
    let end_state = state_totals(&replay, &state_videos);
    replay.run(&log[measured_len..], &state_videos);
    replay.fsync_floor(FSYNC_PROBES)?;
    for m in replay.mismatches() {
        rep.check(false, format!("replay: {m}"));
    }
    if primary == Kind::FirstSight {
        // A sample of the server's first-sight dots must equal the
        // replay's for the same seed and video.
        let served: Vec<&(u64, DotsResponse)> = fixed.iter().flat_map(|o| &o.dots).collect();
        let sample: Vec<&&(u64, DotsResponse)> =
            served.iter().step_by((served.len() / 20).max(1)).collect();
        let agree = sample
            .iter()
            .filter(|(v, d)| {
                replay.dots(*v).is_some_and(|r| {
                    r.len() == d.dots.len()
                        && r.iter()
                            .zip(&d.dots)
                            .all(|(a, b)| a.at.0 == b.at_seconds && a.score == b.score)
                })
            })
            .count();
        rep.check(
            agree == sample.len() && !sample.is_empty(),
            format!(
                "first-sight dots equal the replay's on {agree} of {} sampled videos",
                sample.len()
            ),
        );
    }

    let own = replay.tracer().self_times_us();
    let inclusive = replay.tracer().durations_us();
    let layer = |rep: &mut Report,
                 metric: &str,
                 times: &std::collections::BTreeMap<&str, Vec<f64>>,
                 span: &str| {
        let v = times.get(span).map_or(&[][..], Vec::as_slice);
        let value = if v.is_empty() { 0.0 } else { stats::median(v) };
        rep.metric(metric, value, "us", Some(v.len()));
    };
    rep.metric("driver.send_lag_p99_us", lag_p99, "us", Some(lags.len()));
    rep.metric("driver.p99_ms", summary.p99, "ms", Some(summary.n));
    rep.metric("driver.cpu_us_raw", raw_cpu_us, "us", Some(summary.n));
    rep.metric("driver.reference_us", reference_us, "us", None);
    layer(&mut rep, "http.parse_us", &own, "http.parse");
    layer(&mut rep, "http.encode_us", &own, "http.encode");
    layer(
        &mut rep,
        "router.dispatch_us.dots",
        &own,
        "router.dispatch.dots",
    );
    layer(
        &mut rep,
        "router.dispatch_us.stream",
        &own,
        "router.dispatch.stream",
    );
    rep.metric(
        "server.handler_us.dots",
        handler_dots,
        "us",
        Some(dots_route.requests as usize),
    );
    rep.metric(
        "server.handler_us.stream",
        ratio(
            stream_route.latency_total_us as f64,
            stream_route.requests as f64,
        ),
        "us",
        Some(stream_route.requests as usize),
    );
    rep.metric(
        "server.outside_handler_us.dots",
        stats::mean(&client_dots_us) - handler_dots,
        "us",
        Some(client_dots_us.len()),
    );
    rep.metric(
        "server.load_shed",
        route(&before, &after, OTHER_ROUTE).requests as f64,
        "count",
        None,
    );
    rep.metric(
        "cluster.relay_us",
        via_med - direct_med,
        "us",
        Some(RELAY_PAIRS),
    );
    rep.metric(
        "cluster.relay_ratio",
        ratio(via_med, direct_med),
        "ratio",
        Some(RELAY_PAIRS),
    );
    rep.metric(
        "cluster.owner_share",
        owner_share,
        "ratio",
        Some(dots_route.requests as usize),
    );
    layer(&mut rep, "wire.dots_encode_us", &own, "wire.dots_encode");
    layer(&mut rep, "wire.batch_decode_us", &own, "wire.batch_decode");
    layer(
        &mut rep,
        "service.cached_dots_us",
        &own,
        "service.cached_dots",
    );
    layer(
        &mut rep,
        "service.refine_batch_us",
        &own,
        "service.refine_batch",
    );
    rep.metric(
        "service.dots_refined_per_batch",
        ratio(
            stream_acks.dots_refined as f64,
            stream_acks.batches_folded as f64,
        ),
        "ratio",
        Some(stream_acks.batches_folded as usize),
    );
    layer(
        &mut rep,
        "service.open_video_first_us",
        &own,
        "service.open_video_first",
    );
    rep.metric(
        "service.corpus_cache_hit_ratio",
        corpus_ratio,
        "ratio",
        None,
    );
    rep.metric(
        "service.tokenized_hit_ratio",
        tokenized_ratio,
        "ratio",
        None,
    );
    layer(
        &mut rep,
        "lightor.refine_step_us",
        &inclusive,
        "lightor.refine_step",
    );
    layer(&mut rep, "lightor.tokenize_us", &own, "lightor.tokenize");
    layer(&mut rep, "lightor.score_us", &own, "lightor.score");
    layer(&mut rep, "store.fsync_us", &own, "store.fsync");
    layer(&mut rep, "store.kv_put_us", &own, "store.kv_put");
    let n_state = Some(state_videos.len());
    rep.metric("store.state_bytes_start", start_state.0, "bytes", n_state);
    rep.metric("store.state_bytes_end", end_state.0, "bytes", n_state);
    rep.metric("store.pending_plays_start", start_state.1, "count", n_state);
    rep.metric("store.pending_plays_end", end_state.1, "count", n_state);
    let n_acks = Some(stream_acks.acks as usize);
    rep.metric(
        "store.wal_appends_per_ack",
        ratio(wal as f64, stream_acks.acks as f64),
        "ratio",
        n_acks,
    );
    rep.metric(
        "store.shard_rewrites_per_1k_acks",
        ratio(1000.0 * rewrites as f64, stream_acks.acks as f64),
        "count",
        n_acks,
    );
    layer(&mut rep, "store.chat_put_us", &own, "store.chat_put");
    rep.metric(
        "setup.train_ms",
        train_ms as f64,
        "ms",
        Some(topo.backends.len()),
    );
    rep.metric("trace.p50_ms_untraced", untraced_p50, "ms", None);
    rep.metric("trace.p50_ms_traced", traced_p50, "ms", None);
    rep.metric(
        "trace.overhead_pct",
        100.0 * ratio(traced_p50 - untraced_p50, untraced_p50),
        "%",
        None,
    );

    tracer.absorb(replay.into_tracer());

    // The goodput ladder comes last: nothing above depends on its load.
    let (goodput, probes) = goodput_ladder(ctx, w, &topo, &fixed, &mut rep)?;
    rep.metric("driver.goodput", goodput, "1/s", Some(probes));

    // Spans are written once, when the run ends.
    tracer
        .write_jsonl(&ctx.spans_path)
        .map_err(|e| format!("{}: {e}", ctx.spans_path.display()))?;
    rep.line(format!(
        "spans: {} written to {}",
        tracer.len(),
        ctx.spans_path.display()
    ));
    Ok(rep)
}

/// Mean encoded `VideoState` bytes (the WAL record one ack appends) and
/// total pending plays over `videos`, as the replay holds them.
fn state_totals(replay: &Replay, videos: &[u64]) -> (f64, f64) {
    let mut bytes = Vec::new();
    let mut pending = 0usize;
    for &v in videos {
        let Some(state) = replay.state(v) else {
            continue;
        };
        bytes.push(serde_json::to_string(&state).map_or(0, |s| s.len()) as f64);
        if let Ok(serde::Value::Map(fields)) = serde_json::to_value(&state) {
            if let Some((_, serde::Value::Seq(dots))) = fields.iter().find(|(k, _)| k == "dots") {
                for d in dots {
                    if let Some(serde::Value::Seq(p)) = d.get_key("pending") {
                        pending += p.len();
                    }
                }
            }
        }
    }
    (stats::mean(&bytes), pending as f64)
}
