//! Running one measured phase: up to two connections ("lanes"), each a
//! thread sending its own schedule open-loop, checking every response
//! body as it arrives.

use crate::conn::{Conn, FAILED_MS};
use crate::sched::{self, Record};
use crate::trace::Tracer;
use lightor_platform::wire::{DotsResponse, StreamAccepted};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `GET /video/{id}/dots` on a video already initialized.
    Dots,
    /// `GET /video/{id}/dots` on a video never opened before.
    FirstSight,
    /// `POST /sessions/stream`, one sequenced NDJSON batch.
    Stream,
}

impl Kind {
    /// Name of the driver span around one client call of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Dots => "driver.dots",
            Kind::FirstSight => "driver.first_sight",
            Kind::Stream => "driver.stream",
        }
    }
}

/// One request: what it is and its exact wire bytes.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub video: u64,
    pub raw: Vec<u8>,
}

/// What every response must satisfy.
pub struct Expect {
    pub top_k: usize,
    /// Video id → duration in seconds.
    pub durations: HashMap<u64, f64>,
}

impl Expect {
    /// Check a dots body: the right video, `top_k` finite dots inside
    /// the video's duration.
    pub fn check_dots(&self, video: u64, body: &DotsResponse) -> Result<(), String> {
        let duration = self
            .durations
            .get(&video)
            .ok_or_else(|| format!("video {video} not in the catalog"))?;
        if body.video != video {
            return Err(format!("asked for video {video}, got {}", body.video));
        }
        if body.dots.len() != self.top_k {
            return Err(format!(
                "video {video}: {} dots, want {}",
                body.dots.len(),
                self.top_k
            ));
        }
        for d in &body.dots {
            if !(d.at_seconds.is_finite() && d.score.is_finite()) {
                return Err(format!("video {video}: non-finite dot {d:?}"));
            }
            if d.at_seconds < 0.0 || d.at_seconds > *duration {
                return Err(format!(
                    "video {video}: dot at {} outside 0..{duration}",
                    d.at_seconds
                ));
            }
        }
        Ok(())
    }
}

/// One connection's share of a phase.
pub struct LanePlan {
    pub addr: SocketAddr,
    pub ops: Vec<Op>,
    /// Due offsets from the phase start, one per op, ascending.
    pub due: Vec<Duration>,
}

/// Stream-ack totals summed over a lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckTotals {
    pub acks: u64,
    pub batches_folded: u64,
    pub batches_replayed: u64,
    pub dots_refined: u64,
}

impl AckTotals {
    pub fn add(&mut self, other: AckTotals) {
        self.acks += other.acks;
        self.batches_folded += other.batches_folded;
        self.batches_replayed += other.batches_replayed;
        self.dots_refined += other.dots_refined;
    }

    /// Count one ack.
    pub fn ack(&mut self, ack: &StreamAccepted) {
        self.add(AckTotals {
            acks: 1,
            batches_folded: ack.batches_folded,
            batches_replayed: ack.batches_replayed,
            dots_refined: ack.dots_refined,
        });
    }
}

pub struct LaneOut {
    pub ops: Vec<Op>,
    pub records: Vec<Record>,
    pub failures: BTreeMap<String, u64>,
    pub mismatches: Vec<String>,
    pub acks: AckTotals,
    /// Dots returned per video (first sights), for the replay check.
    pub dots: Vec<(u64, DotsResponse)>,
}

impl LaneOut {
    /// Latency of every attempted op in schedule order, ms; failures at
    /// [`FAILED_MS`].
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| {
                if r.ok {
                    r.latency().as_secs_f64() * 1e3
                } else {
                    FAILED_MS
                }
            })
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }
}

/// Stop a lane early once more than `budget` of the phase's requests
/// missed `limit_ms`: a ladder probe that has already failed need not
/// drain its backlog.
pub struct Abort {
    pub limit_ms: f64,
    pub budget: usize,
}

/// Run `lanes` concurrently (one thread each, at most two), starting
/// together. With `trace` set, every even-numbered request of a lane is
/// recorded as a span around its client call.
pub fn run(
    lanes: Vec<LanePlan>,
    expect: &Expect,
    abort: Option<Abort>,
    trace: Option<&mut Tracer>,
) -> Vec<LaneOut> {
    assert!(
        lanes.len() <= 2,
        "the load generator uses at most two connections"
    );
    let misses = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let origin = trace.as_ref().map(|t| t.origin());
    let outs: Vec<(LaneOut, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let misses = &misses;
                let abort = abort.as_ref();
                s.spawn(move || run_lane(lane, expect, t0, misses, abort, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let mut lanes_out = Vec::with_capacity(outs.len());
    let mut trace = trace;
    for (out, spans) in outs {
        if let (Some(t), Some(spans)) = (trace.as_deref_mut(), spans) {
            t.absorb(spans);
        }
        lanes_out.push(out);
    }
    lanes_out
}

fn run_lane(
    lane: LanePlan,
    expect: &Expect,
    t0: Instant,
    misses: &AtomicUsize,
    abort: Option<&Abort>,
    origin: Option<Instant>,
) -> (LaneOut, Option<Tracer>) {
    let LanePlan { addr, ops, due } = lane;
    let mut conn = Conn::new(addr);
    let mut mismatches = Vec::new();
    let mut acks = AckTotals::default();
    let mut dots = Vec::new();
    let mut tracer = origin.map(Tracer::new);
    let schedule: Vec<(usize, Duration)> = due.iter().copied().enumerate().collect();
    let records = sched::run_connection(t0, &schedule, |i| {
        let op = &ops[i];
        if abort.is_some_and(|a| misses.load(Ordering::Relaxed) > a.budget) {
            return None;
        }
        let sent = Instant::now();
        let resp = conn.send(&op.raw);
        if let Some(t) = tracer.as_mut().filter(|_| i % 2 == 0) {
            t.record(op.kind.span(), i as u32, sent, Instant::now());
        }
        let ok = match resp {
            None => false,
            Some(resp) => {
                if let Err(e) = check(op, &resp.body, expect, &mut acks, &mut dots) {
                    if mismatches.len() < 8 {
                        mismatches.push(e);
                    }
                }
                true
            }
        };
        if let Some(a) = abort {
            let late = t0.elapsed().saturating_sub(due[i]).as_secs_f64() * 1e3 > a.limit_ms;
            if !ok || late {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(ok)
    });
    let out = LaneOut {
        ops,
        records,
        failures: conn.failures,
        mismatches,
        acks,
        dots,
    };
    (out, tracer)
}

fn check(
    op: &Op,
    body: &[u8],
    expect: &Expect,
    acks: &mut AckTotals,
    dots: &mut Vec<(u64, DotsResponse)>,
) -> Result<(), String> {
    match op.kind {
        Kind::Dots | Kind::FirstSight => {
            let parsed: DotsResponse =
                serde_json::from_slice(body).map_err(|e| format!("dots body: {e}"))?;
            expect.check_dots(op.video, &parsed)?;
            if op.kind == Kind::FirstSight {
                dots.push((op.video, parsed));
            }
        }
        Kind::Stream => {
            let ack: StreamAccepted =
                serde_json::from_slice(body).map_err(|e| format!("stream ack: {e}"))?;
            acks.ack(&ack);
            if ack.lines_accepted != 1 || !ack.rejected.is_empty() {
                return Err(format!(
                    "video {}: ack accepted {} lines, rejected {:?}",
                    op.video, ack.lines_accepted, ack.rejected
                ));
            }
        }
    }
    Ok(())
}
