//! Injectable I/O fault layer for crash/durability testing.
//!
//! The durability claims of the storage stack (WAL torn-tail recovery,
//! atomic snapshots, CRC-rejected reads) are only claims until they are
//! exercised under *failing* I/O. This module is the seam: every store
//! routes its critical writes, fsyncs, truncates, and record reads
//! through a shared [`FaultInjector`], which is a no-op in production
//! (one relaxed atomic load per operation) and lets tests arm precise
//! failures at named points — "fail the 3rd WAL append", "tear this
//! write after 5 bytes", "drop the tail of the next record read".
//!
//! Faults are runtime-armed (not `cfg(test)`-gated) so integration
//! tests of dependent crates — which compile this crate *without*
//! `cfg(test)` — can reach the seam through
//! [`LightorService::fault_injector`](crate::LightorService::fault_injector).
//! Each store instance carries its own injector, so tests sharing one
//! process never interfere.
//!
//! # Fault points
//!
//! | point | operation |
//! |---|---|
//! | `kv.wal.write` | WAL frame `write_all` |
//! | `kv.wal.sync` | WAL `sync_data` after an append |
//! | `kv.wal.trim` | `set_len` rollback after a failed WAL append |
//! | `kv.shard.write` | `snapshot.json` `write_all` |
//! | `kv.shard.sync` | `snapshot.json` `sync_all` before rename |
//! | `log.append.write` | segment record `write_all` |
//! | `log.tok.write` | tokenized-companion (v3) record `write_all` |
//! | `log.append.trim` | `set_len` rollback after a failed segment append |
//! | `log.sync` | segment `sync_data` |
//! | `log.read` | record read (post-read corruption) |

use parking_lot::Mutex;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What an armed fault does to the operation it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation outright without touching the file.
    Error,
    /// Write only the first `keep` bytes (synced so they are really on
    /// disk), then fail — a crash mid-append leaving a torn frame.
    TornWrite {
        /// Bytes that make it to disk before the "crash".
        keep: usize,
    },
    /// Drop the last `drop_bytes` bytes of the data a read returned —
    /// a short read / partial sector, which CRC checks must catch.
    ShortRead {
        /// Bytes removed from the tail of the read buffer.
        drop_bytes: usize,
    },
}

/// One armed fault: fires on matches of `point`, after skipping the
/// first `skip` matching operations, for `times` operations.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Which instrumented operation this fault targets (see the module
    /// docs for the point names).
    pub point: &'static str,
    /// Let this many matching operations through untouched first
    /// ("fail the Nth op" targeting).
    pub skip: u64,
    /// Fire on this many subsequent matches (`u64::MAX` ≈ forever).
    pub times: u64,
    /// What firing does.
    pub kind: FaultKind,
}

impl Fault {
    /// A fault that fires once, on the next matching operation.
    pub fn once(point: &'static str, kind: FaultKind) -> Self {
        Fault {
            point,
            skip: 0,
            times: 1,
            kind,
        }
    }

    /// A fault that fires on every matching operation until disarmed.
    pub fn always(point: &'static str, kind: FaultKind) -> Self {
        Fault {
            point,
            skip: 0,
            times: u64::MAX,
            kind,
        }
    }

    /// A fault that skips the first `skip` matches, then fires once.
    pub fn nth(point: &'static str, skip: u64, kind: FaultKind) -> Self {
        Fault {
            point,
            skip,
            times: 1,
            kind,
        }
    }
}

#[derive(Debug)]
struct ArmedFault {
    fault: Fault,
    seen: u64,
    fired: u64,
}

#[derive(Default)]
struct Inner {
    /// Fast path: skip the lock entirely while nothing is armed.
    enabled: AtomicBool,
    armed: Mutex<Vec<ArmedFault>>,
    /// Total fires per point since the last `disarm_all` (assertions).
    fired: Mutex<Vec<(&'static str, u64)>>,
}

/// A shareable set of armed I/O faults (cheaply cloneable handle).
///
/// The default injector has nothing armed and adds one relaxed atomic
/// load to each instrumented operation.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("armed", &self.inner.armed.lock().len())
            .finish()
    }
}

fn injected(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {point}"))
}

impl FaultInjector {
    /// An injector with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm one fault. Multiple faults may target the same point; the
    /// first armed one whose window covers the operation fires.
    pub fn arm(&self, fault: Fault) {
        self.inner.armed.lock().push(ArmedFault {
            fault,
            seen: 0,
            fired: 0,
        });
        self.inner.enabled.store(true, Ordering::SeqCst);
    }

    /// Disarm everything and reset the fired counters.
    pub fn disarm_all(&self) {
        self.inner.armed.lock().clear();
        self.inner.fired.lock().clear();
        self.inner.enabled.store(false, Ordering::SeqCst);
    }

    /// How many times faults at `point` have fired since the last
    /// [`FaultInjector::disarm_all`].
    pub fn fired(&self, point: &str) -> u64 {
        self.inner
            .fired
            .lock()
            .iter()
            .find(|(p, _)| *p == point)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// The fault to apply at `point` for this operation, if any.
    fn check(&self, point: &'static str) -> Option<FaultKind> {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let mut armed = self.inner.armed.lock();
        for a in armed.iter_mut() {
            if a.fault.point != point {
                continue;
            }
            a.seen += 1;
            if a.seen > a.fault.skip && a.fired < a.fault.times {
                a.fired += 1;
                let mut fired = self.inner.fired.lock();
                match fired.iter_mut().find(|(p, _)| *p == point) {
                    Some((_, n)) => *n += 1,
                    None => fired.push((point, 1)),
                }
                return Some(a.fault.kind);
            }
        }
        None
    }

    /// `write_all` through the seam. `TornWrite` persists its prefix
    /// (write + `sync_data`) so the torn bytes genuinely hit disk
    /// before the failure surfaces, like a crash mid-append.
    pub fn write_all(
        &self,
        point: &'static str,
        file: &mut File,
        buf: &[u8],
    ) -> std::io::Result<()> {
        match self.check(point) {
            None => file.write_all(buf),
            Some(FaultKind::Error) => Err(injected(point)),
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                file.write_all(&buf[..keep])?;
                file.sync_data()?;
                Err(injected(point))
            }
            // A read fault armed on a write point is a test bug; fail
            // loudly rather than silently succeeding.
            Some(FaultKind::ShortRead { .. }) => Err(injected(point)),
        }
    }

    /// `sync_data` through the seam.
    pub fn sync_data(&self, point: &'static str, file: &File) -> std::io::Result<()> {
        match self.check(point) {
            None => file.sync_data(),
            Some(_) => Err(injected(point)),
        }
    }

    /// `sync_all` through the seam.
    pub fn sync_all(&self, point: &'static str, file: &File) -> std::io::Result<()> {
        match self.check(point) {
            None => file.sync_all(),
            Some(_) => Err(injected(point)),
        }
    }

    /// `set_len` through the seam (failed-append rollback truncates).
    pub fn set_len(&self, point: &'static str, file: &File, len: u64) -> std::io::Result<()> {
        match self.check(point) {
            None => file.set_len(len),
            Some(_) => Err(injected(point)),
        }
    }

    /// Post-read corruption: `ShortRead` drops tail bytes from `buf`
    /// (the caller's CRC check must reject the remainder); `Error`
    /// fails the read outright.
    pub fn post_read(&self, point: &'static str, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self.check(point) {
            None => Ok(()),
            Some(FaultKind::ShortRead { drop_bytes }) => {
                let keep = buf.len().saturating_sub(drop_bytes);
                buf.truncate(keep);
                Ok(())
            }
            Some(_) => Err(injected(point)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::path::PathBuf;

    struct TempFile(PathBuf);
    impl TempFile {
        fn new(tag: &str) -> Self {
            TempFile(std::env::temp_dir().join(format!(
                "lightor-fault-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            )))
        }
    }
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn unarmed_injector_passes_io_through() {
        let t = TempFile::new("pass");
        let inj = FaultInjector::new();
        let mut f = File::create(&t.0).unwrap();
        inj.write_all("kv.wal.write", &mut f, b"hello").unwrap();
        inj.sync_data("kv.wal.sync", &f).unwrap();
        let mut buf = Vec::new();
        File::open(&t.0).unwrap().read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
        inj.post_read("log.read", &mut buf).unwrap();
        assert_eq!(buf, b"hello");
        assert_eq!(inj.fired("kv.wal.write"), 0);
    }

    #[test]
    fn once_fault_fires_exactly_once() {
        let t = TempFile::new("once");
        let inj = FaultInjector::new();
        inj.arm(Fault::once("kv.wal.sync", FaultKind::Error));
        let f = File::create(&t.0).unwrap();
        assert!(inj.sync_data("kv.wal.sync", &f).is_err());
        assert!(inj.sync_data("kv.wal.sync", &f).is_ok());
        assert_eq!(inj.fired("kv.wal.sync"), 1);
    }

    #[test]
    fn nth_fault_skips_then_fires() {
        let t = TempFile::new("nth");
        let inj = FaultInjector::new();
        inj.arm(Fault::nth("log.sync", 2, FaultKind::Error));
        let f = File::create(&t.0).unwrap();
        assert!(inj.sync_data("log.sync", &f).is_ok());
        assert!(inj.sync_data("log.sync", &f).is_ok());
        assert!(inj.sync_data("log.sync", &f).is_err());
        assert!(inj.sync_data("log.sync", &f).is_ok());
    }

    #[test]
    fn torn_write_persists_prefix_then_fails() {
        let t = TempFile::new("torn");
        let inj = FaultInjector::new();
        inj.arm(Fault::once(
            "kv.wal.write",
            FaultKind::TornWrite { keep: 3 },
        ));
        let mut f = File::create(&t.0).unwrap();
        assert!(inj.write_all("kv.wal.write", &mut f, b"abcdef").is_err());
        let mut buf = Vec::new();
        File::open(&t.0).unwrap().read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"abc", "exactly the torn prefix must be on disk");
    }

    #[test]
    fn short_read_drops_tail_bytes() {
        let inj = FaultInjector::new();
        inj.arm(Fault::once(
            "log.read",
            FaultKind::ShortRead { drop_bytes: 4 },
        ));
        let mut buf = b"payload".to_vec();
        inj.post_read("log.read", &mut buf).unwrap();
        assert_eq!(buf, b"pay");
        // Fault exhausted: next read is clean.
        let mut buf2 = b"payload".to_vec();
        inj.post_read("log.read", &mut buf2).unwrap();
        assert_eq!(buf2, b"payload");
    }

    #[test]
    fn faults_are_point_scoped_and_disarmable() {
        let t = TempFile::new("scope");
        let inj = FaultInjector::new();
        inj.arm(Fault::always("kv.wal.sync", FaultKind::Error));
        let f = File::create(&t.0).unwrap();
        assert!(inj.sync_data("log.sync", &f).is_ok(), "other points clean");
        assert!(inj.sync_data("kv.wal.sync", &f).is_err());
        assert!(inj.sync_data("kv.wal.sync", &f).is_err(), "always = sticky");
        inj.disarm_all();
        assert!(inj.sync_data("kv.wal.sync", &f).is_ok());
        assert_eq!(inj.fired("kv.wal.sync"), 0, "counters reset on disarm");
    }

    #[test]
    fn clones_share_the_armed_set() {
        let t = TempFile::new("clone");
        let inj = FaultInjector::new();
        let handle = inj.clone();
        handle.arm(Fault::once("kv.shard.sync", FaultKind::Error));
        let f = File::create(&t.0).unwrap();
        assert!(inj.sync_all("kv.shard.sync", &f).is_err());
        assert_eq!(handle.fired("kv.shard.sync"), 1);
    }
}
