//! `loadbench` — open-loop end-to-end benchmark of LIGHTOR's Figure 5
//! loop, driving the real `lightor-serve` / `lightor-router` binaries.
//!
//! ```text
//! loadbench --workload <dots_read|ingest_mixed|first_sight> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run it through `loadbench/run.sh`, which builds the binaries first.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Every line before it is a
//! human-readable record of the run: environment, per-phase request
//! accounting, correctness checks, and each metric with its unit and
//! sample count. A failed correctness check exits 1. `LAYERS.md` maps
//! each per-layer metric to the end-to-end metric it should move.

mod common;
mod conn;
mod env;
mod ladder;
mod phase;
mod procs;
mod replay;
mod sched;
mod serve_catalog;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::{Ctx, Workload};

/// Where runs keep their data dirs (removed after each run) and spans.
const RUNS_DIR: &str = ".bench_runs";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<common::Report, String> {
    let root = PathBuf::from(RUNS_DIR);
    std::fs::create_dir_all(&root).map_err(|e| format!("{RUNS_DIR}: {e}"))?;
    let environment = env::Environment::probe(&root)?;
    let bin_dir = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    for bin in ["lightor-serve", "lightor-router"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!(
                "{bin} not built next to the driver in {}",
                bin_dir.display()
            ));
        }
    }
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "dots_read" => Box::new(workloads::DotsRead::new(args.seed)),
        "ingest_mixed" => Box::new(workloads::IngestMixed::new(args.seed)),
        "first_sight" => Box::new(workloads::FirstSight::new(args.seed, args.seconds)),
        other => return Err(format!("unknown workload {other}")),
    };
    let tag = format!("{}-seed{}", args.workload, args.seed);
    let run_dir = procs::RunDir::create(&root, &tag)?;
    let spans = root.join(format!("{}.spans.jsonl", args.workload));
    let ctx = Ctx::new(args.seed, args.seconds, args.trace, bin_dir, run_dir, spans);
    let mut rep = workloads::drive(&ctx, w.as_mut())?;
    rep.lines.insert(
        0,
        format!(
            "env: nproc {}, data-dir fs {}, kernel {}, {}, git {}",
            environment.nproc,
            environment.data_fs,
            environment.kernel,
            environment.rustc,
            environment.git_rev
        ),
    );
    Ok(rep)
}

/// The final line: one JSON object.
fn result_json(rep: &common::Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.mismatches.is_empty(),
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-catalog") {
        if let Err(e) = serve_catalog::main(&argv[1..]) {
            eprintln!("loadbench serve-catalog: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!("usage: loadbench --workload <dots_read|ingest_mixed|first_sight> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    procs::tighten_timer_slack();
    let mut rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &mut rep.metrics {
        if !m.value.is_finite() {
            rep.mismatches
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for l in &rep.lines {
        println!("{l}");
    }
    for m in &rep.metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("metric {} = {} {}{n}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&rep));
    if !rep.mismatches.is_empty() {
        std::process::exit(1);
    }
}
