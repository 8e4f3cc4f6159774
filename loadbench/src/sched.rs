//! Open-loop scheduling with intended-time accounting.
//!
//! A phase is a list of operations, each due at a fixed offset from the
//! phase start (the arrival schedule). A connection sends each
//! operation at its due time, or at once if it is already late, and
//! times it from the *due* time: when the server stalls, the requests
//! queued behind the stall carry the wait in their latency instead of
//! hiding it (coordinated omission).
//!
//! The generator itself can also fall behind (a late wake-up, a
//! descheduled thread). That lag is what remains of `sent − due` after
//! removing the wait for the previous response on the same connection;
//! its p99 is the run's validity check.

use std::time::{Duration, Instant};

/// One operation's timing, as offsets from the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Index of the operation in the phase.
    pub op: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// Whether the call succeeded.
    pub ok: bool,
    /// Generator lag: `sent − max(due, previous done)`.
    pub lag: Duration,
}

impl Record {
    /// Latency counted from the intended send time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// A paced arrival schedule: `n` operations at `rate` per second, the
/// `i`-th due at `i / rate`.
pub fn paced(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Run one connection's share of a phase: `due` lists `(op, offset)` in
/// offset order. `call(op)` performs the operation synchronously and
/// returns whether it succeeded, or `None` to stop the connection
/// without attempting the rest. Returns one record per attempted
/// operation.
pub fn run_connection(
    start: Instant,
    due: &[(usize, Duration)],
    mut call: impl FnMut(usize) -> Option<bool>,
) -> Vec<Record> {
    let mut out = Vec::with_capacity(due.len());
    let mut prev_done = Duration::ZERO;
    for &(op, at) in due {
        let now = start.elapsed();
        if now < at {
            std::thread::sleep(at - now);
        }
        let sent = start.elapsed();
        let Some(ok) = call(op) else { break };
        let done = start.elapsed();
        out.push(Record {
            op,
            due: at,
            sent,
            done,
            ok,
            lag: sent.saturating_sub(at.max(prev_done)),
        });
        prev_done = done;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    /// A line-echo server that answers request `stall_at` only after
    /// `stall`.
    fn stalling_server(stall_at: usize, stall: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            let mut n = 0;
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"pong\n").unwrap();
                line.clear();
                n += 1;
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(80);
        let addr = stalling_server(4, stall);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let offsets = paced(30, 500.0); // one every 2 ms
        let due: Vec<(usize, Duration)> = offsets.iter().copied().enumerate().collect();
        let mut line = String::new();
        let records = run_connection(Instant::now(), &due, |_| {
            writer.write_all(b"ping\n").unwrap();
            line.clear();
            Some(reader.read_line(&mut line).unwrap() > 0)
        });
        assert_eq!(records.len(), 30);
        assert!(records.iter().all(|r| r.ok));
        // The stalled request and every request due during the stall
        // (2 ms apart) carry the remaining stall in their latency,
        // measured from when they were due, not when they went out.
        for r in &records[4..40.min(records.len())] {
            let due_after_stall_start = r.due.saturating_sub(records[4].due);
            if due_after_stall_start < stall {
                let expect = stall - due_after_stall_start;
                assert!(
                    r.latency() + Duration::from_millis(1) >= expect,
                    "op {} latency {:?} < {:?}",
                    r.op,
                    r.latency(),
                    expect
                );
                assert!(r.sent >= records[4].done || r.op == 4);
            }
        }
        // The wait was the server's: the generator's own lag stays far
        // below the stall for every request.
        let max_lag = records.iter().map(|r| r.lag).max().unwrap();
        assert!(max_lag < Duration::from_millis(20), "lag {max_lag:?}");
        // Before the stall nothing queued.
        assert!(records[..4].iter().all(|r| r.latency() < stall / 2));
    }

    #[test]
    fn paced_schedule() {
        let p = paced(5, 100.0);
        assert_eq!(p[0], Duration::ZERO);
        assert_eq!(p[4], Duration::from_millis(40));
    }

    #[test]
    fn a_late_generator_shows_as_lag_not_as_server_time() {
        // The generator starts 30 ms late on an instant "server": every
        // op is already overdue, so latency grows but so does the lag.
        let due: Vec<(usize, Duration)> = paced(3, 1000.0).into_iter().enumerate().collect();
        let start = Instant::now() - Duration::from_millis(30);
        let recs = run_connection(start, &due, |_| Some(true));
        assert!(recs[0].lag >= Duration::from_millis(29));
        assert!(recs[0].latency() >= Duration::from_millis(29));
    }
}
