//! Pieces every workload shares: the seeded generator, the platform and
//! models a seed implies, `/stats` snapshots, and the result record.

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::wire::StatsResponse;
use lightor_types::GameKind;
use std::net::SocketAddr;

/// SplitMix64: the benchmark's own seeded stream for choosing inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) popularity over `items`: the item at rank `r` is drawn
/// with weight `1 / r`.
pub struct Zipf {
    items: Vec<u64>,
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(items: Vec<u64>) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=items.len())
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        Zipf { items, cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.unit() * total;
        let i = self.cumulative.partition_point(|&c| c <= x);
        self.items[i.min(self.items.len() - 1)]
    }
}

/// The models `lightor-serve --seed seed` trains at boot (same recipe,
/// same seeds), so an in-process service scores exactly as it does.
pub fn models_for(seed: u64) -> ModelBundle {
    let labelled = dota2_dataset(1, seed);
    let train: Vec<_> = labelled.videos.iter().collect();
    let mut campaign = Campaign::new(300, seed ^ 1);
    let initializer = train_initializer(&train, FeatureSet::Full);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 4, seed ^ 2);
    ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: format!("lightor-serve seed {seed}"),
    }
}

/// Videos per channel in every simulated catalog, as `lightor-serve`
/// lays its 12-video catalog out (3 channels × 4).
pub const VIDEOS_PER_CHANNEL: usize = 4;

/// The simulated platform `lightor-serve --seed seed` crawls, grown to
/// `channels` channels (3 for the served binary's own catalog).
pub fn platform_for(seed: u64, channels: usize) -> SimPlatform {
    SimPlatform::top_channels(GameKind::Dota2, channels, VIDEOS_PER_CHANNEL, seed ^ 3)
}

/// A server's `/stats`.
pub fn stats(addr: SocketAddr) -> Result<StatsResponse, String> {
    crate::conn::get_json(addr, "/stats")
}

/// Per-route counters of one route between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteDelta {
    pub requests: u64,
    pub latency_total_us: u64,
}

pub fn route_delta(before: &StatsResponse, after: &StatsResponse, route: &str) -> RouteDelta {
    let find = |s: &StatsResponse| {
        s.http
            .iter()
            .find(|r| r.route == route)
            .map_or((0, 0), |r| (r.requests, r.latency_total_us))
    };
    let (r0, l0) = find(before);
    let (r1, l1) = find(after);
    RouteDelta {
        requests: r1.saturating_sub(r0),
        latency_total_us: l1.saturating_sub(l0),
    }
}

pub const DOTS_ROUTE: &str = "GET /video/{id}/dots";
pub const STREAM_ROUTE: &str = "POST /sessions/stream";
pub const OTHER_ROUTE: &str = "other";

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any one fails the run.
    pub mismatches: Vec<String>,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.lines.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.mismatches.push(what);
        }
    }
}
