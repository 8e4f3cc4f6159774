//! `lightor-supervisor` — the cluster's replication and failover
//! control plane: keep one warm standby per watched primary by
//! shipping delta bundles continuously, watch the router's `/healthz`,
//! and when a primary trips `down`, promote its standby with a live
//! ring update — no operator in the loop.
//!
//! ```text
//! lightor-supervisor --router HOST:PORT
//!                    --pair PRIMARY,STANDBY[,DATA_DIR]
//!                    [--pair ...] [--port N] [--workers N]
//!                    [--tick-ms N] [--request-timeout-ms N]
//! ```
//!
//! Defaults: port 7990, 2 workers, 250 ms tick, 2000 ms per-request
//! deadline. `DATA_DIR` is the primary's data directory when it is
//! reachable from this process — the zero-loss final-delta path for a
//! primary that dies without answering a last export. Prints one
//! `listening on http://…` line once bound (smoke tests grep for it),
//! then reconciles until killed. `GET /stats` reports per-range lag,
//! phases, and promotions.

use lightor_server::replicate::ReplicaPair;
use lightor_server::supervisor::{SupervisorConfig, SupervisorServer};
use lightor_server::ServerConfig;
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    port: u16,
    workers: usize,
    router: Option<SocketAddr>,
    pairs: Vec<ReplicaPair>,
    tick: Duration,
    request_timeout: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7990,
        workers: 2,
        router: None,
        pairs: Vec::new(),
        tick: Duration::from_millis(250),
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
            "--router" => {
                args.router = Some(
                    value("--router")?
                        .parse()
                        .map_err(|e| format!("--router: {e}"))?,
                )
            }
            "--pair" => args.pairs.push(ReplicaPair::parse(&value("--pair")?)?),
            "--tick-ms" => {
                args.tick = Duration::from_millis(
                    value("--tick-ms")?
                        .parse()
                        .map_err(|e| format!("--tick-ms: {e}"))?,
                )
            }
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
    if args.router.is_none() {
        return Err("--router is required".into());
    }
    if args.pairs.is_empty() {
        return Err("at least one --pair PRIMARY,STANDBY[,DATA_DIR] is required".into());
    }
    Ok(args)
}

fn main() -> std::io::Result<()> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lightor-supervisor: {e}");
            eprintln!(
                "usage: lightor-supervisor --router HOST:PORT \
                 --pair PRIMARY,STANDBY[,DATA_DIR] [--pair ...] \
                 [--port N] [--workers N] [--tick-ms N] \
                 [--request-timeout-ms N]"
            );
            std::process::exit(2);
        }
    };

    let cfg = SupervisorConfig {
        tick_interval: args.tick,
        request_timeout: args.request_timeout,
        ..SupervisorConfig::new(args.router.expect("validated above"), args.pairs)
    };
    let server = SupervisorServer::bind(
        ("127.0.0.1", args.port),
        cfg,
        ServerConfig {
            workers: args.workers.max(1),
        },
    )?;
    // The readiness line smoke tests grep for.
    println!(
        "lightor-supervisor listening on http://{}",
        server.local_addr()
    );

    // Reconcile until killed (std-only: no signal handling; the
    // process owner — CI, an operator — terminates us).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
