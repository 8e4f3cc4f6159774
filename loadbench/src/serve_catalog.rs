//! `loadbench serve-catalog` — the `first_sight` workload's server.
//!
//! `lightor-serve`'s catalog is fixed at 12 videos, too few for a run
//! in which every request is the first sight of a new video. This
//! process makes exactly the calls `lightor-serve` makes at boot —
//! train the Initializer and type classifier, `LightorService::open`,
//! `warm_corpora`, `HttpServer::bind` — and prints the same readiness
//! lines. It differs only in the size of the simulated catalog:
//!
//! ```text
//! loadbench serve-catalog --port N --data-dir PATH --seed N --channels N
//! ```

use crate::common::{models_for, platform_for};
use lightor_platform::{LightorService, ServiceConfig};
use lightor_server::{HttpServer, ServerConfig};
use std::sync::Arc;

/// `lightor-serve`'s default worker count.
const WORKERS: usize = 4;

pub fn main(args: &[String]) -> Result<(), String> {
    let (mut port, mut data_dir, mut seed, mut channels) = (0u16, None, 71u64, 3usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--port" => port = value.parse().map_err(bad)?,
            "--data-dir" => data_dir = Some(std::path::PathBuf::from(value)),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--channels" => channels = value.parse().map_err(bad)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let data_dir = data_dir.ok_or("--data-dir is required")?;

    let started = std::time::Instant::now();
    let models = models_for(seed);
    let train_boot_ms = started.elapsed().as_millis() as u64;
    let platform = platform_for(seed, channels);
    let mut catalog: Vec<u64> = platform.all_videos().map(|v| v.video.meta.id.0).collect();
    catalog.sort_unstable();
    let io = |e: std::io::Error| e.to_string();
    let svc = Arc::new(
        LightorService::open(&data_dir, models, platform, ServiceConfig::default()).map_err(io)?,
    );
    svc.set_train_boot_ms(train_boot_ms);
    let (loaded, rebuilt) = svc.warm_corpora().map_err(io)?;
    println!("corpus: {loaded} loaded, {rebuilt} rebuilt");
    let server = HttpServer::bind(
        ("127.0.0.1", port),
        svc,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(io)?;
    println!("lightor-serve listening on http://{}", server.local_addr());
    println!(
        "catalog: {} videos, ids {}..={}",
        catalog.len(),
        catalog[0],
        catalog[catalog.len() - 1]
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
