//! `lightor-router` — the cluster-mode front door: consistent-hash
//! video ids across N `lightor-serve` backends, health-check each one,
//! and proxy the single-node route table with deadlines and bounded
//! retries.
//!
//! ```text
//! lightor-router --backend HOST:PORT [--backend HOST:PORT ...]
//!                [--port N] [--workers N] [--request-timeout-ms N]
//! ```
//!
//! Defaults: port 7979, 4 workers, 2000 ms per-request deadline.
//! Prints one `listening on http://…` line once bound (smoke tests
//! grep for it), then routes until killed.
//!
//! The `--backend` list is only the *boot* ring: `POST /admin/ring`
//! swaps in a new backend set at runtime (live resharding, shard
//! replacement) — see the operations runbook in the `lightor_server`
//! crate docs for the full migration recipes.

use lightor_server::cluster::{ClusterConfig, RouterServer};
use lightor_server::ServerConfig;
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    port: u16,
    workers: usize,
    backends: Vec<SocketAddr>,
    request_timeout: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7979,
        workers: 4,
        backends: Vec::new(),
        request_timeout: Duration::from_millis(2000),
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
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--backend" => args.backends.push(
                value("--backend")?
                    .parse()
                    .map_err(|e| format!("--backend: {e}"))?,
            ),
            "--request-timeout-ms" => {
                args.request_timeout = Duration::from_millis(
                    value("--request-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--request-timeout-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.backends.is_empty() {
        return Err("at least one --backend is required".into());
    }
    Ok(args)
}

fn main() -> std::io::Result<()> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lightor-router: {e}");
            eprintln!(
                "usage: lightor-router --backend HOST:PORT [--backend HOST:PORT ...] \
                 [--port N] [--workers N] [--request-timeout-ms N]"
            );
            std::process::exit(2);
        }
    };

    let cluster_cfg = ClusterConfig {
        request_timeout: args.request_timeout,
        ..ClusterConfig::new(args.backends)
    };
    let server = RouterServer::bind(
        ("127.0.0.1", args.port),
        cluster_cfg,
        ServerConfig {
            workers: args.workers.max(1),
        },
    )?;
    // The readiness line smoke tests grep for.
    println!("lightor-router listening on http://{}", server.local_addr());

    // Route until killed (std-only: no signal handling; the process
    // owner — CI, an operator, a supervisor — terminates us).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
