//! `lightor-serve` — run the paper's web service end to end from one
//! command: train models on simulated labelled data, open the durable
//! service, and serve the browser-extension routes over HTTP.
//!
//! ```text
//! lightor-serve --data-dir PATH [--port N] [--workers N] [--seed N] [--quick]
//!               [--restore-from PATH]
//! ```
//!
//! `--data-dir` is required: the service keeps its chat log and
//! refinement state there, and a restart on the same dir resumes them.
//! A dir whose stored state does not decode fails the boot with an
//! error naming the key. Defaults: port 7878, 4 workers. `--quick`
//! shrinks the training corpus and simulated platform so a backend
//! boots in a fraction of the time — for smoke tests and the chaos
//! harness, which start several backends per run. Prints one
//! `listening on http://…` line once the socket is bound (smoke tests
//! wait for it) and one `catalog: <id> <id> …` line listing the
//! simulated platform's video ids (the chaos harness shards load by
//! them), then serves until killed. Before binding it also warms every
//! already-crawled corpus and prints `corpus: N loaded, M rebuilt` —
//! `loaded` decoded straight from persisted v3 tokenized sections,
//! `rebuilt` re-tokenized from raw text (a restart of a populated data
//! dir reports `0 rebuilt`).
//!
//! `--restore-from PATH` is the crash-replacement path: PATH is a dead
//! backend's data directory. Before the socket binds, its chat segments
//! and KV state (snapshot + WAL tail — [`KvStore`] replay picks up
//! every acknowledged write) are read into a bundle and imported into
//! this process's own fresh data dir, so the replacement answers for
//! the dead shard's videos the moment the `listening` line prints.
//! Prints one `restored: N videos from PATH` line before the banner.
//!
//! [`KvStore`]: lightor_platform::store::KvStore

use lightor::{ExtractorConfig, FeatureSet, HighlightExtractor, ModelBundle};
use lightor_chatsim::{dota2_dataset, SimPlatform};
use lightor_crowdsim::Campaign;
use lightor_eval::harness::{train_initializer, train_type_classifier};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::{HttpServer, ServerConfig};
use lightor_types::GameKind;
use std::sync::Arc;

struct Args {
    port: u16,
    data_dir: std::path::PathBuf,
    workers: usize,
    seed: u64,
    quick: bool,
    restore_from: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut data_dir = None;
    let mut args = Args {
        port: 7878,
        data_dir: std::path::PathBuf::new(),
        workers: 4,
        seed: 71,
        quick: false,
        restore_from: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--data-dir" => data_dir = Some(value("--data-dir")?.into()),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--quick" => args.quick = true,
            "--restore-from" => args.restore_from = Some(value("--restore-from")?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.data_dir = data_dir.ok_or("--data-dir is required")?;
    Ok(args)
}

fn main() -> std::io::Result<()> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lightor-serve: {e}");
            eprintln!(
                "usage: lightor-serve --data-dir PATH [--port N] [--workers N] [--seed N] \
                 [--quick] [--restore-from PATH]"
            );
            std::process::exit(2);
        }
    };

    // Offline phase: train the Initializer and the play-position type
    // classifier on simulated labelled videos (same recipe as the
    // browser-extension example). Wall time is reported via
    // `GET /stats` (`train_boot_ms`) so operators can see what a boot
    // cost without scraping logs.
    eprintln!("training models (seed {})...", args.seed);
    let train_started = std::time::Instant::now();
    let labelled = dota2_dataset(1, args.seed);
    let train: Vec<_> = labelled.videos.iter().collect();
    let workers_budget = if args.quick { 60 } else { 300 };
    let mut campaign = Campaign::new(workers_budget, args.seed ^ 1);
    let initializer = train_initializer(&train, FeatureSet::Full);
    let (classifier, _) = train_type_classifier(&train, &mut campaign, 4, args.seed ^ 2);
    let models = ModelBundle {
        initializer,
        extractor: HighlightExtractor::new(classifier, ExtractorConfig::default()),
        provenance: format!("lightor-serve seed {}", args.seed),
    };
    let train_boot_ms = train_started.elapsed().as_millis() as u64;

    let (channels, per_channel) = if args.quick { (2, 2) } else { (3, 4) };
    let platform = SimPlatform::top_channels(GameKind::Dota2, channels, per_channel, args.seed ^ 3);
    let mut catalog: Vec<u64> = platform.all_videos().map(|v| v.video.meta.id.0).collect();
    catalog.sort_unstable();
    let svc = Arc::new(LightorService::open(
        &args.data_dir,
        models,
        platform,
        ServiceConfig::default(),
    )?);
    svc.set_train_boot_ms(train_boot_ms);

    // Crash replacement: adopt a dead backend's range before taking
    // traffic. The dead dir's WAL replay happens inside
    // `bundle_from_dir`, so everything the old process acknowledged —
    // including writes that never made it into a snapshot — lands here.
    if let Some(dead_dir) = &args.restore_from {
        let bundle = LightorService::bundle_from_dir(dead_dir)?;
        let applied = svc.import_bundle(&bundle)?;
        println!(
            "restored: {} videos from {}",
            applied.videos,
            dead_dir.display()
        );
    }

    // Warm every already-crawled video's scoring corpus before taking
    // traffic. With the v3 tokenized sections in place this is a decode,
    // not a re-tokenization: a restart of a populated data dir prints
    // `corpus: N loaded, 0 rebuilt` (the CI server smoke asserts the
    // `0 rebuilt` half — restarts must never re-run the tokenizer).
    let (loaded, rebuilt) = svc.warm_corpora()?;
    println!("corpus: {loaded} loaded, {rebuilt} rebuilt");

    let server = HttpServer::bind(
        ("127.0.0.1", args.port),
        svc,
        ServerConfig {
            workers: args.workers.max(1),
        },
    )?;
    // The readiness line smoke tests grep for.
    println!("lightor-serve listening on http://{}", server.local_addr());
    // The video ids this backend's simulated platform knows — the
    // chaos harness and cluster smoke test drive load against these.
    println!(
        "catalog: {}",
        catalog
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!("data dir: {}", args.data_dir.display());

    // Serve until killed (std-only: no signal handling; the process
    // owner — CI, an operator, a supervisor — terminates us).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
