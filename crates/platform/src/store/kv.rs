//! A JSON key-value store with a write-ahead log — holds the
//! continuously refined red-dot state ("the refined results will be
//! stored in the database continuously", Section VI-A).
//!
//! # On-disk layout
//!
//! The store is a directory:
//!
//! ```text
//! <dir>/snapshot.json   the whole map (pretty JSON object)
//! <dir>/wal.log         write-ahead log (framed JSON ops)
//! ```
//!
//! # Write path
//!
//! Every write appends one op to the WAL as a [`frame`](super::frame)
//! and `fsync`s it — durability is per-operation, but the cost is
//! O(op), not O(store). The WAL holds three op kinds:
//!
//! * `["p", key, value]` — [`KvStore::put`]: insert or replace `value`;
//! * `["m", key, patch]` — [`KvStore::merge`]: apply `patch` to the
//!   stored value with RFC 7396 JSON Merge Patch semantics, so a small
//!   change to a large value logs only the change;
//! * `["r", key]` — [`KvStore::remove`].
//!
//! The in-memory map and the snapshot always hold *materialized*
//! values: a merge is applied in place as soon as it is durable, and
//! the snapshot writes whole values, never patches. Snapshots are
//! amortized: once the WAL holds 256 ops or 1 MiB (two constants, not
//! settings), `snapshot.json` is rewritten atomically (temp file +
//! `sync_all` + rename + directory fsync) and the WAL is truncated. The snapshot is stale exactly when the WAL
//! has pending ops.
//!
//! # Recovery
//!
//! `open` loads the snapshot *strictly* — a corrupt snapshot is an
//! [`InvalidData`](std::io::ErrorKind::InvalidData) error, never a
//! silently empty store — then replays the WAL on top, in order. A torn
//! WAL tail (crash mid-append) is detected by the frame's length/CRC
//! and truncated away; everything before it is applied and stays
//! pending, so the next snapshot persists it. Orphaned `*.tmp` files
//! from a crash mid-snapshot are removed.
//!
//! The store reads one layout. A `shard-NN.json` file is the snapshot
//! of the older prefix-hashed layout: beside a `snapshot.json` it is a
//! superseded leftover and `open` removes it; without one it holds
//! states this store cannot read, so `open` refuses the directory with
//! an `InvalidData` error naming the file and leaves it untouched.

use super::frame::{self, Frames};
use super::{sync_dir, FaultInjector};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::ops::Bound;
use std::path::{Path, PathBuf};

/// Snapshot once this many ops are pending in the WAL.
const SNAPSHOT_EVERY_OPS: u64 = 256;

/// Snapshot once the WAL grows past this many bytes.
const SNAPSHOT_EVERY_BYTES: u64 = 1 << 20;

/// Point-in-time persistence counters (see [`KvStore::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Bytes currently pending in the WAL (since the last snapshot).
    pub wal_bytes: u64,
    /// Ops currently pending in the WAL (since the last snapshot).
    pub wal_pending_ops: u64,
    /// WAL appends since open.
    pub wal_appends: u64,
    /// Snapshot rewrites since open.
    pub snapshot_rewrites: u64,
}

/// String-keyed JSON store persisted as one snapshot plus a WAL.
#[derive(Debug)]
pub struct KvStore {
    dir: PathBuf,
    map: BTreeMap<String, serde_json::Value>,
    wal: File,
    wal_bytes: u64,
    wal_pending_ops: u64,
    wal_appends: u64,
    snapshot_rewrites: u64,
    fault: FaultInjector,
    /// Monotonic in-memory op sequence — the migration watermark. Keys
    /// present at open (snapshot + replayed WAL tail) all carry seq 1;
    /// every later `put`/`merge`/`remove` bumps the counter. The
    /// counter resets on reopen, so delta exports are only meaningful
    /// within one process lifetime (a restarted source re-exports in
    /// full).
    seq: u64,
    /// Last mutation seq per live key.
    seqs: BTreeMap<String, u64>,
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn invalid_data(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// `fsync` `path`'s parent directory (no-op when it has none).
fn sync_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => sync_dir(p),
        _ => Ok(()),
    }
}

/// Apply an RFC 7396 JSON Merge Patch to `target` in place: an object
/// patch merges field by field (recursively), a `null` field deletes
/// that field, and any non-object patch replaces the target outright —
/// arrays included. A non-object target under an object patch starts
/// over as an empty object. Fields keep their order; new ones append.
fn merge_patch(target: &mut serde_json::Value, patch: serde_json::Value) {
    use serde_json::Value;
    let Value::Map(fields) = patch else {
        *target = patch;
        return;
    };
    if !matches!(target, Value::Map(_)) {
        *target = Value::Map(Vec::new());
    }
    let Value::Map(entries) = target else {
        unreachable!("target was just made an object");
    };
    for (name, value) in fields {
        let at = entries.iter().position(|(k, _)| *k == name);
        match (at, value) {
            (Some(i), Value::Null) => {
                entries.remove(i);
            }
            (None, Value::Null) => {}
            (Some(i), value) => merge_patch(&mut entries[i].1, value),
            (None, value) => {
                let mut fresh = Value::Null;
                merge_patch(&mut fresh, value);
                entries.push((name, fresh));
            }
        }
    }
}

impl KvStore {
    /// Open (or create) the store directory at `path`. A corrupt
    /// snapshot is an `InvalidData` error, never a silently empty store,
    /// and so is a directory of the shard layout (see the module docs).
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = path.into();
        fs::create_dir_all(&dir)?;

        // A crash mid-snapshot can leave temp files behind; they were
        // never renamed into place, so they are dead weight.
        let mut dead = Vec::new();
        let mut shards = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let p = entry?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                dead.push(p);
            } else if name.starts_with("shard-") && name.ends_with(".json") {
                shards.push(p);
            }
        }
        let snapshot = snapshot_path(&dir);
        let mut map: BTreeMap<String, serde_json::Value> = match fs::read(&snapshot) {
            // A shard file outlives `snapshot.json` only when a crash cut
            // the store's first snapshot short of deleting it.
            Ok(bytes) => {
                dead.append(&mut shards);
                serde_json::from_slice(&bytes).map_err(|e| {
                    invalid_data(format!("corrupt snapshot {}: {e:?}", snapshot.display()))
                })?
            }
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            Err(_) if shards.is_empty() => BTreeMap::new(),
            Err(_) => {
                return Err(invalid_data(format!(
                    "{}: a shard file of the old store layout with no snapshot.json \
                     beside it; this build reads only snapshot.json",
                    shards[0].display()
                )))
            }
        };
        for p in dead {
            fs::remove_file(p)?;
        }

        // Replay the WAL on top of the snapshot; `open_trimmed` has cut
        // any torn tail. The replayed ops stay pending, so the next
        // snapshot persists them.
        let (wal, valid) = frame::open_trimmed(&wal_path(&dir))?;
        let wal_pending_ops = Self::replay_wal(&valid, &mut map)?;
        // "WAL-durable on return" needs the store directory itself (and
        // the fresh wal.log's entry in it) to survive a crash, not just
        // the file's data blocks.
        sync_dir(&dir)?;
        sync_parent(&dir)?;

        let seq = u64::from(!map.is_empty());
        let seqs: BTreeMap<String, u64> = map.keys().map(|k| (k.clone(), seq)).collect();
        Ok(KvStore {
            dir,
            map,
            wal,
            wal_bytes: valid.len() as u64,
            wal_pending_ops,
            wal_appends: 0,
            snapshot_rewrites: 0,
            fault: FaultInjector::new(),
            seq,
            seqs,
        })
    }

    /// Apply every WAL frame to `map`; returns the number of ops
    /// applied. A frame that passes its CRC but is not a known op is
    /// corruption and errors out.
    fn replay_wal(
        buf: &[u8],
        map: &mut BTreeMap<String, serde_json::Value>,
    ) -> std::io::Result<u64> {
        let mut ops = 0u64;
        for (_, payload) in Frames::new(buf) {
            let op: serde_json::Value = serde_json::from_slice(payload)
                .map_err(|e| invalid_data(format!("corrupt WAL op: {e:?}")))?;
            match &op {
                serde_json::Value::Seq(items) => match items.as_slice() {
                    [serde_json::Value::Str(tag), serde_json::Value::Str(key), value]
                        if tag == "p" =>
                    {
                        map.insert(key.clone(), value.clone());
                    }
                    [serde_json::Value::Str(tag), serde_json::Value::Str(key), patch]
                        if tag == "m" =>
                    {
                        merge_patch(map.entry(key.clone()).or_default(), patch.clone());
                    }
                    [serde_json::Value::Str(tag), serde_json::Value::Str(key)] if tag == "r" => {
                        map.remove(key);
                    }
                    _ => return Err(invalid_data("unknown WAL op shape")),
                },
                _ => return Err(invalid_data("WAL op is not a sequence")),
            }
            ops += 1;
        }
        Ok(ops)
    }

    /// Insert or replace a value; the op is WAL-durable on return.
    pub fn put<T: Serialize>(&mut self, key: &str, value: &T) -> std::io::Result<()> {
        let v = serde_json::to_value(value).map_err(|e| invalid_data(format!("{e:?}")))?;
        // Print the op straight from borrows — no clone of the value
        // tree just to frame it.
        let key_json = serde_json::to_string(key).map_err(|e| invalid_data(format!("{e:?}")))?;
        let payload = format!("[\"p\",{key_json},{}]", serde_json::value_to_string(&v));
        self.append_wal(payload.as_bytes())?;
        self.map.insert(key.to_owned(), v);
        self.seq += 1;
        self.seqs.insert(key.to_owned(), self.seq);
        self.maybe_snapshot()
    }

    /// Apply `patch` to the value under `key` with RFC 7396 JSON Merge
    /// Patch semantics: object fields merge recursively, a `null` field
    /// deletes, any other value replaces; a missing key merges into
    /// `null`. Only the patch goes to the WAL — the op is WAL-durable on
    /// return — while the map (and so every snapshot, `get` and
    /// `export_since`) holds the merged whole value.
    pub fn merge(&mut self, key: &str, patch: serde_json::Value) -> std::io::Result<()> {
        let key_json = serde_json::to_string(key).map_err(|e| invalid_data(format!("{e:?}")))?;
        let payload = format!("[\"m\",{key_json},{}]", serde_json::value_to_string(&patch));
        self.append_wal(payload.as_bytes())?;
        merge_patch(self.map.entry(key.to_owned()).or_default(), patch);
        self.seq += 1;
        self.seqs.insert(key.to_owned(), self.seq);
        self.maybe_snapshot()
    }

    /// Remove a key; the op is WAL-durable on return. Returns whether it
    /// existed.
    pub fn remove(&mut self, key: &str) -> std::io::Result<bool> {
        if !self.map.contains_key(key) {
            return Ok(false);
        }
        let key_json = serde_json::to_string(key).map_err(|e| invalid_data(format!("{e:?}")))?;
        self.append_wal(format!("[\"r\",{key_json}]").as_bytes())?;
        self.map.remove(key);
        self.seq += 1;
        self.seqs.remove(key);
        self.maybe_snapshot()?;
        Ok(true)
    }

    /// The current op-sequence watermark: the seq of the most recent
    /// mutation (0 for a store that has never held a key). Monotonic
    /// within one open; resets on reopen (see the `seq` field docs).
    pub fn current_seq(&self) -> u64 {
        self.seq
    }

    /// Export every live `(key, value)` under `prefix` whose last
    /// mutation seq is *greater than* `since` (`since = 0` exports the
    /// full prefix). The companion watermark for a later delta export
    /// is [`KvStore::current_seq`] sampled at the same moment — the
    /// snapshot + WAL-tail shipping primitive for live shard migration.
    pub fn export_since(&self, prefix: &str, since: u64) -> Vec<(String, serde_json::Value)> {
        self.with_prefix(prefix)
            .filter(|(k, _)| self.seqs.get(*k).copied().unwrap_or(0) > since)
            .map(|(k, v)| (k.to_owned(), v.clone()))
            .collect()
    }

    /// Every `(key, value)` whose key starts with `prefix`, sorted by
    /// key, borrowed from the map.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a serde_json::Value)> + 'a {
        self.map
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The store's fault injector (no-op unless faults are armed).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Route this store's instrumented I/O through `injector` (shared
    /// with other stores / test code).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = injector;
    }

    /// Persistence counters.
    pub fn stats(&self) -> KvStats {
        KvStats {
            wal_bytes: self.wal_bytes,
            wal_pending_ops: self.wal_pending_ops,
            wal_appends: self.wal_appends,
            snapshot_rewrites: self.snapshot_rewrites,
        }
    }

    /// Append one framed op to the WAL and fsync it.
    fn append_wal(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.wal_bytes += frame::append(
            &self.fault,
            &mut self.wal,
            self.wal_bytes,
            payload,
            "kv.wal.write",
            Some("kv.wal.sync"),
            "kv.wal.trim",
        )?;
        self.wal_pending_ops += 1;
        self.wal_appends += 1;
        Ok(())
    }

    fn maybe_snapshot(&mut self) -> std::io::Result<()> {
        if self.wal_pending_ops >= SNAPSHOT_EVERY_OPS || self.wal_bytes >= SNAPSHOT_EVERY_BYTES {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Rewrite the snapshot atomically when the WAL has pending ops,
    /// then truncate the WAL. Public so callers (service shutdown,
    /// benches) can force the amortized work to a known point.
    pub fn snapshot(&mut self) -> std::io::Result<()> {
        if self.wal_pending_ops > 0 {
            // Printed from the borrowed map: no clone of the values.
            let bytes =
                serde_json::entries_to_vec_pretty(self.map.iter().map(|(k, v)| (k.as_str(), v)));
            let path = snapshot_path(&self.dir);
            let tmp = path.with_extension("json.tmp");
            let mut f = File::create(&tmp)?;
            self.fault.write_all("kv.shard.write", &mut f, &bytes)?;
            // The snapshot's data must hit disk before the rename
            // publishes it.
            self.fault.sync_all("kv.shard.sync", &f)?;
            drop(f);
            fs::rename(&tmp, &path)?;
            sync_dir(&self.dir)?;
            self.snapshot_rewrites += 1;
        }
        // The snapshot now covers everything: retire the WAL. If we
        // crash between the rename and this truncate, replay is
        // idempotent.
        self.wal.set_len(0)?;
        self.wal.sync_all()?;
        self.wal_bytes = 0;
        self.wal_pending_ops = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Fault, FaultKind};
    use serde::Deserialize;
    use std::fs::OpenOptions;
    use std::io::Write;

    /// The value under `key`, decoded; a value that does not decode as
    /// `T` fails the test.
    fn get<T: Deserialize>(kv: &KvStore, key: &str) -> Option<T> {
        let v = kv.map.get(key)?;
        Some(serde_json::from_value_ref(v).expect("stored value decodes"))
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            TempDir(std::env::temp_dir().join(format!(
                "lightor-kv-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            )))
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
            let _ = fs::remove_file(&self.0);
        }
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Dot {
        at: f64,
        score: f64,
    }

    #[test]
    fn put_get_remove() {
        let d = TempDir::new("pgr");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put(
            "dot:1",
            &Dot {
                at: 100.0,
                score: 0.9,
            },
        )
        .unwrap();
        assert_eq!(
            get::<Dot>(&kv, "dot:1"),
            Some(Dot {
                at: 100.0,
                score: 0.9
            })
        );
        assert_eq!(get::<Dot>(&kv, "dot:2"), None);
        assert!(kv.remove("dot:1").unwrap());
        assert!(!kv.remove("dot:1").unwrap());
        assert!(kv.is_empty());
    }

    #[test]
    fn snapshot_bytes_are_the_pretty_print_of_the_map() {
        // The snapshot prints the borrowed map; its bytes must stay the
        // ones `to_vec_pretty` of the whole map writes, quotes, nested
        // objects and merged values included.
        let d = TempDir::new("snapshot-bytes");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put(
            "dot:\"1\"",
            &Dot {
                at: 1.5,
                score: 0.25,
            },
        )
        .unwrap();
        kv.put("video:7", &vec![(700.0, 0.9), (12.0, 0.5)]).unwrap();
        kv.merge(
            "video:7",
            serde_json::Value::Map(vec![("sessions".into(), serde_json::Value::U64(3))]),
        )
        .unwrap();
        kv.put("empty", &Vec::<u64>::new()).unwrap();
        kv.snapshot().unwrap();
        let expected = serde_json::to_vec_pretty(&kv.map).unwrap();
        assert_eq!(fs::read(snapshot_path(&d.0)).unwrap(), expected);
        let reopened = KvStore::open(&d.0).unwrap();
        assert_eq!(reopened.map, kv.map);
    }

    #[test]
    fn persists_across_reopen_via_wal() {
        let d = TempDir::new("persist");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("model", &"weights".to_owned()).unwrap();
            // No snapshot happened (threshold is 256 ops): the value
            // lives only in the WAL at this point.
            assert_eq!(kv.stats().snapshot_rewrites, 0);
            assert_eq!(kv.stats().wal_pending_ops, 1);
        }
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(get::<String>(&kv, "model"), Some("weights".to_owned()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn prefix_listing() {
        let d = TempDir::new("prefix");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put("dots:v1:0", &1.0).unwrap();
        kv.put("dots:v1:1", &2.0).unwrap();
        kv.put("dots:v2:0", &3.0).unwrap();
        kv.put("model:main", &4.0).unwrap();
        assert_eq!(kv.with_prefix("dots:v1:").count(), 2);
        assert_eq!(kv.with_prefix("dots:").count(), 3);
        assert_eq!(kv.with_prefix("zzz").count(), 0);
    }

    #[test]
    fn corrupt_legacy_snapshot_is_an_error() {
        // A file at the store path (the pre-shard single-file layout,
        // which is no longer read) must fail the open, never be
        // replaced by an empty store.
        let d = TempDir::new("corrupt-legacy");
        fs::write(&d.0, b"{definitely not json").unwrap();
        assert!(KvStore::open(&d.0).is_err());
        // The file is left in place, untouched.
        assert_eq!(fs::read(&d.0).unwrap(), b"{definitely not json");
    }

    #[test]
    fn corrupt_shard_snapshot_is_an_error() {
        let d = TempDir::new("corrupt-shard");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &1.0).unwrap();
            kv.snapshot().unwrap();
        }
        fs::write(snapshot_path(&d.0), b"[1, 2, oops").unwrap();
        let err = KvStore::open(&d.0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_wal_tail_is_truncated() {
        let d = TempDir::new("torn-wal");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("a", &1.0).unwrap();
            kv.put("b", &2.0).unwrap();
        }
        // Crash mid-append: garbage half-frame at the WAL tail.
        let mut f = OpenOptions::new()
            .append(true)
            .open(wal_path(&d.0))
            .unwrap();
        f.write_all(&[0xFF, 0xFF, 0x00, 0x00, 0x12]).unwrap();
        drop(f);

        let mut kv = KvStore::open(&d.0).unwrap();
        assert_eq!(get::<f64>(&kv, "a"), Some(1.0));
        assert_eq!(get::<f64>(&kv, "b"), Some(2.0));
        // The store keeps accepting writes after recovery.
        kv.put("c", &3.0).unwrap();
        drop(kv);
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(kv.len(), 3);
    }

    #[test]
    fn failed_wal_appends_never_cost_a_later_acknowledged_write() {
        let kinds = [
            FaultKind::Error,
            FaultKind::TornWrite { keep: 1 },
            FaultKind::TornWrite { keep: 9 },
        ];
        for kind in kinds {
            let d = TempDir::new("fail-then-ack");
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &1.0).unwrap();
            kv.fault_injector().arm(Fault::once("kv.wal.write", kind));
            assert!(kv.put("video:2", &2.0).is_err(), "{kind:?}");
            assert_eq!(get::<f64>(&kv, "video:2"), None, "{kind:?}");
            kv.merge("video:3", json("3")).unwrap();
            assert_eq!(get::<f64>(&kv, "video:3"), Some(3.0), "{kind:?}");
            drop(kv);
            let kv = KvStore::open(&d.0).unwrap();
            assert_eq!(get::<f64>(&kv, "video:1"), Some(1.0), "{kind:?}");
            assert_eq!(get::<f64>(&kv, "video:2"), None, "{kind:?}");
            assert_eq!(get::<f64>(&kv, "video:3"), Some(3.0), "{kind:?}");
        }
    }

    #[test]
    fn orphaned_tmp_files_are_removed_on_open() {
        let d = TempDir::new("orphan");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("k", &1.0).unwrap();
        }
        let orphan = d.0.join("snapshot.json.tmp");
        fs::write(&orphan, b"half a snapsh").unwrap();
        let kv = KvStore::open(&d.0).unwrap();
        assert!(!orphan.exists(), "stale tmp file survived open");
        assert_eq!(get::<f64>(&kv, "k"), Some(1.0));
    }

    #[test]
    fn kill_between_append_and_snapshot_replays_wal() {
        let d = TempDir::new("kill");
        {
            // Snapshot after every 4th op: two full snapshot cycles, then
            // three ops stranded in the WAL when the "process dies".
            let mut kv = KvStore::open(&d.0).unwrap();
            for i in 0..11 {
                kv.put(&format!("video:{i}"), &(i as f64)).unwrap();
                if i % 4 == 3 {
                    kv.snapshot().unwrap();
                }
            }
            assert_eq!(kv.stats().wal_pending_ops, 3);
            // Simulate a kill: drop without snapshotting.
        }
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(kv.len(), 11);
        for i in 0..11 {
            assert_eq!(get::<f64>(&kv, &format!("video:{i}")), Some(i as f64));
        }
        // The replayed ops are still pending: a snapshot must persist
        // them before the WAL can be retired.
        assert_eq!(kv.stats().wal_pending_ops, 3);
    }

    #[test]
    fn snapshot_threshold_fires_after_256_merges() {
        let d = TempDir::new("threshold");
        let mut kv = KvStore::open(&d.0).unwrap();
        // One op short of the threshold: everything is still pending.
        for i in 1..SNAPSHOT_EVERY_OPS {
            kv.merge("video:1", json(&format!(r#"{{"sessions":{{"{i}":{i}}}}}"#)))
                .unwrap();
        }
        assert_eq!(kv.stats().snapshot_rewrites, 0);
        assert_eq!(kv.stats().wal_pending_ops, SNAPSHOT_EVERY_OPS - 1);
        // The 256th merge crosses it: one rewrite, WAL reset.
        kv.merge("video:2", json(r#"{"dots":[1]}"#)).unwrap();
        let s = kv.stats();
        assert_eq!(s.snapshot_rewrites, 1);
        assert_eq!(s.wal_pending_ops, 0);
        assert_eq!(s.wal_bytes, 0);
        assert_eq!(s.wal_appends, SNAPSHOT_EVERY_OPS);
        let want = get::<serde_json::Value>(&kv, "video:1").unwrap();
        match want.get_key("sessions") {
            Some(serde_json::Value::Map(sessions)) => assert_eq!(sessions.len(), 255),
            other => panic!("sessions: {other:?}"),
        }
        // And the snapshot alone (no WAL) round-trips the data.
        drop(kv);
        assert_eq!(fs::metadata(wal_path(&d.0)).unwrap().len(), 0);
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(get::<serde_json::Value>(&kv, "video:1"), Some(want));
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:2"),
            Some(json(r#"{"dots":[1]}"#))
        );
    }

    /// One WAL frame, written by hand: the layout the store must keep
    /// reading.
    fn hand_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crate::store::crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// The file names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_shard_layout_dir_is_refused_and_left_untouched() {
        // A data dir as stores of the shard layout left it: the
        // `video:` namespace in shard-06.json, plus a WAL tail.
        let d = TempDir::new("shard-layout");
        fs::create_dir_all(&d.0).unwrap();
        let shard = br#"{"video:1": {"dots": [1, 2], "sessions": {"7": 1}}}"#;
        let wal = hand_frame(br#"["m","video:1",{"sessions":{"8":2}}]"#);
        fs::write(d.0.join("shard-06.json"), shard).unwrap();
        fs::write(wal_path(&d.0), &wal).unwrap();

        let err = KvStore::open(&d.0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-06.json"), "{err}");
        // Opening it as empty would lose every state it holds: nothing
        // is created, removed or rewritten.
        assert_eq!(names(&d.0), ["shard-06.json", "wal.log"]);
        assert_eq!(fs::read(d.0.join("shard-06.json")).unwrap(), shard);
        assert_eq!(fs::read(wal_path(&d.0)).unwrap(), wal);
    }

    #[test]
    fn a_stale_shard_file_beside_a_snapshot_is_removed() {
        // A crash after the store's first snapshot was renamed into
        // place, but before it deleted the old shard file, leaves both
        // on disk: `snapshot.json` wins and the shard file goes.
        let d = TempDir::new("stale-shard");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &json(r#"{"dots":[2]}"#)).unwrap();
            kv.remove("video:1").unwrap();
            kv.put("video:2", &json(r#"{"dots":[5]}"#)).unwrap();
            kv.snapshot().unwrap();
        }
        fs::write(
            d.0.join("shard-06.json"),
            r#"{"video:1": {"dots": [1]}, "video:2": {"dots": [0]}}"#,
        )
        .unwrap();
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(names(&d.0), ["snapshot.json", "wal.log"]);
        assert_eq!(get::<serde_json::Value>(&kv, "video:1"), None);
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:2"),
            Some(json(r#"{"dots":[5]}"#))
        );
        drop(kv);
        assert_eq!(KvStore::open(&d.0).unwrap().len(), 1);
    }

    #[test]
    fn removes_survive_snapshot_and_replay() {
        let d = TempDir::new("remove");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("a", &1.0).unwrap();
            kv.put("b", &2.0).unwrap();
            kv.snapshot().unwrap();
            // This remove lives only in the WAL.
            kv.remove("a").unwrap();
        }
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(get::<f64>(&kv, "a"), None);
        assert_eq!(get::<f64>(&kv, "b"), Some(2.0));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn export_since_tracks_mutation_watermarks() {
        let d = TempDir::new("export");
        let mut kv = KvStore::open(&d.0).unwrap();
        assert_eq!(kv.current_seq(), 0, "empty store starts at watermark 0");
        kv.put("video:1", &1.0).unwrap();
        kv.put("video:2", &2.0).unwrap();
        kv.put("model:main", &9.0).unwrap();

        // Full export: everything under the prefix, nothing else.
        let full = kv.export_since("video:", 0);
        assert_eq!(
            full.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["video:1", "video:2"]
        );

        // Delta export: only keys mutated after the watermark.
        let mark = kv.current_seq();
        assert_eq!(kv.export_since("video:", mark).len(), 0);
        kv.put("video:2", &2.5).unwrap();
        let delta = kv.export_since("video:", mark);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].0, "video:2");
        assert_eq!(serde_json::from_value_ref::<f64>(&delta[0].1).unwrap(), 2.5);

        // Exported values round-trip through put on a second store.
        let d2 = TempDir::new("export-dst");
        let mut dst = KvStore::open(&d2.0).unwrap();
        for (k, v) in kv.export_since("video:", 0) {
            dst.put(&k, &v).unwrap();
        }
        assert_eq!(get::<f64>(&dst, "video:2"), Some(2.5));
        assert_eq!(get::<f64>(&dst, "video:1"), Some(1.0));
    }

    #[test]
    fn reopen_resets_the_watermark_to_a_full_export() {
        let d = TempDir::new("export-reopen");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &1.0).unwrap();
            kv.put("video:2", &2.0).unwrap();
        }
        // After a reopen the per-key seqs collapse to 1: a delta export
        // against a stale watermark would miss keys, so drivers must
        // re-export in full — and a full export still sees everything.
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(kv.current_seq(), 1);
        assert_eq!(kv.export_since("video:", 0).len(), 2);
        assert_eq!(kv.export_since("video:", 1).len(), 0);
    }

    #[test]
    fn removed_keys_leave_the_export_set() {
        let d = TempDir::new("export-remove");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put("video:1", &1.0).unwrap();
        kv.put("video:2", &2.0).unwrap();
        kv.remove("video:1").unwrap();
        let keys: Vec<String> = kv
            .export_since("video:", 0)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec!["video:2".to_owned()]);
    }

    fn json(text: &str) -> serde_json::Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn merge_only_in_the_wal_survives_reopen() {
        let d = TempDir::new("merge-wal");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &json(r#"{"dots":[1,2],"sessions":{"7":1}}"#))
                .unwrap();
            kv.merge("video:1", json(r#"{"sessions":{"8":3}}"#))
                .unwrap();
            assert_eq!(kv.stats().snapshot_rewrites, 0);
            assert_eq!(kv.stats().wal_pending_ops, 2);
        }
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:1"),
            Some(json(r#"{"dots":[1,2],"sessions":{"7":1,"8":3}}"#))
        );
    }

    #[test]
    fn merge_after_a_snapshot_applies_on_the_snapshotted_value() {
        let d = TempDir::new("merge-snap");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &json(r#"{"dots":[1],"sessions":{"7":1}}"#))
                .unwrap();
            kv.snapshot().unwrap();
            kv.merge("video:1", json(r#"{"dots":[2,3],"sessions":{"7":2}}"#))
                .unwrap();
            // A merge on a missing key merges into null: the patch,
            // minus its nulls, becomes the value.
            kv.merge("video:2", json(r#"{"a":{"b":1,"c":null}}"#))
                .unwrap();
        }
        let mut kv = KvStore::open(&d.0).unwrap();
        let merged = json(r#"{"dots":[2,3],"sessions":{"7":2}}"#);
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:1"),
            Some(merged.clone())
        );
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:2"),
            Some(json(r#"{"a":{"b":1}}"#))
        );
        // Snapshots hold the materialized value, not the patch.
        kv.snapshot().unwrap();
        drop(kv);
        let snap = fs::read(snapshot_path(&d.0)).unwrap();
        let part: BTreeMap<String, serde_json::Value> = serde_json::from_slice(&snap).unwrap();
        assert_eq!(part["video:1"], merged);
    }

    #[test]
    fn torn_merge_frame_at_the_tail_is_truncated() {
        let d = TempDir::new("merge-torn");
        {
            let mut kv = KvStore::open(&d.0).unwrap();
            kv.put("video:1", &json(r#"{"sessions":{"7":1}}"#)).unwrap();
            kv.merge("video:1", json(r#"{"sessions":{"8":1}}"#))
                .unwrap();
        }
        // Crash mid-append of a second merge: its frame is cut short.
        let frame = hand_frame(br#"["m","video:1",{"sessions":{"9":1}}]"#);
        let intact = fs::metadata(wal_path(&d.0)).unwrap().len();
        let mut f = OpenOptions::new()
            .append(true)
            .open(wal_path(&d.0))
            .unwrap();
        f.write_all(&frame[..frame.len() - 3]).unwrap();
        drop(f);

        let mut kv = KvStore::open(&d.0).unwrap();
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:1"),
            Some(json(r#"{"sessions":{"7":1,"8":1}}"#))
        );
        assert_eq!(fs::metadata(wal_path(&d.0)).unwrap().len(), intact);
        // Later merges land after the trimmed tail and replay cleanly.
        kv.merge("video:1", json(r#"{"sessions":{"9":2}}"#))
            .unwrap();
        drop(kv);
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(
            get::<serde_json::Value>(&kv, "video:1"),
            Some(json(r#"{"sessions":{"7":1,"8":1,"9":2}}"#))
        );
    }

    #[test]
    fn merge_null_deletes_a_field() {
        let d = TempDir::new("merge-null");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put("k", &json(r#"{"a":1,"b":{"c":2,"d":3},"e":4}"#))
            .unwrap();
        kv.merge("k", json(r#"{"a":null,"b":{"c":null},"zz":null}"#))
            .unwrap();
        let want = json(r#"{"b":{"d":3},"e":4}"#);
        assert_eq!(get::<serde_json::Value>(&kv, "k"), Some(want.clone()));
        drop(kv);
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(get::<serde_json::Value>(&kv, "k"), Some(want));
    }

    #[test]
    fn non_object_patch_replaces_the_value() {
        let d = TempDir::new("merge-replace");
        let mut kv = KvStore::open(&d.0).unwrap();
        kv.put("k", &json(r#"{"a":[1,2,3],"b":1}"#)).unwrap();
        // An array inside an object patch replaces the array field …
        kv.merge("k", json(r#"{"a":[9]}"#)).unwrap();
        assert_eq!(
            get::<serde_json::Value>(&kv, "k"),
            Some(json(r#"{"a":[9],"b":1}"#))
        );
        // … and a non-object patch replaces the whole value, while an
        // object patch over a non-object starts from an empty object.
        kv.merge("k", json("[1,2]")).unwrap();
        assert_eq!(get::<serde_json::Value>(&kv, "k"), Some(json("[1,2]")));
        kv.merge("k", json(r#"{"x":"y"}"#)).unwrap();
        drop(kv);
        let kv = KvStore::open(&d.0).unwrap();
        assert_eq!(
            get::<serde_json::Value>(&kv, "k"),
            Some(json(r#"{"x":"y"}"#))
        );
    }

    /// RFC 7396's `MergePatch` pseudo-code, over sorted maps — the
    /// reference model for the store's in-place merge.
    fn model_merge(target: Option<Model>, patch: &Model) -> Model {
        let Model::Obj(fields) = patch else {
            return patch.clone();
        };
        let mut out = match target {
            Some(Model::Obj(m)) => m,
            _ => BTreeMap::new(),
        };
        for (name, value) in fields {
            if *value == Model::Null {
                out.remove(name);
            } else {
                let merged = model_merge(out.remove(name), value);
                out.insert(name.clone(), merged);
            }
        }
        Model::Obj(out)
    }

    /// A JSON value with sorted object keys: store values are compared
    /// through it, so field order never matters.
    #[derive(Clone, Debug, PartialEq)]
    enum Model {
        Null,
        Num(u64),
        Arr(Vec<Model>),
        Obj(BTreeMap<String, Model>),
    }

    impl Model {
        fn of(v: &serde_json::Value) -> Model {
            use serde_json::Value;
            match v {
                Value::Null => Model::Null,
                Value::U64(n) => Model::Num(*n),
                Value::Seq(items) => Model::Arr(items.iter().map(Model::of).collect()),
                Value::Map(entries) => Model::Obj(
                    entries
                        .iter()
                        .map(|(k, v)| (k.clone(), Model::of(v)))
                        .collect(),
                ),
                other => panic!("unexpected value {other:?}"),
            }
        }

        fn to_value(&self) -> serde_json::Value {
            use serde_json::Value;
            match self {
                Model::Null => Value::Null,
                Model::Num(n) => Value::U64(*n),
                Model::Arr(items) => Value::Seq(items.iter().map(Model::to_value).collect()),
                Model::Obj(m) => {
                    Value::Map(m.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
                }
            }
        }

        /// A small random value: objects over the fields `a`..`c`
        /// nest up to `depth`, and (in patches) fields may be `null`.
        fn draw(bits: &mut u64, depth: u32, nulls: bool) -> Model {
            fn next(bits: &mut u64, n: u64) -> u64 {
                *bits = bits
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (*bits >> 33) % n
            }
            match next(bits, if depth == 0 { 2 } else { 4 }) {
                0 => Model::Num(next(bits, 100)),
                1 => Model::Arr((0..next(bits, 3)).map(Model::Num).collect()),
                _ => {
                    let mut m = BTreeMap::new();
                    for name in ["a", "b", "c"] {
                        match next(bits, 4) {
                            0 => {}
                            1 if nulls => {
                                m.insert(name.to_owned(), Model::Null);
                            }
                            _ => {
                                m.insert(name.to_owned(), Model::draw(bits, depth - 1, nulls));
                            }
                        }
                    }
                    Model::Obj(m)
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any interleaving of put / merge / remove / snapshot / reopen
        /// leaves the store equal to the model — values, key set, and
        /// the `export_since` delta set alike.
        #[test]
        fn random_ops_match_the_model(
            ops in proptest::collection::vec((0u8..6, 0usize..4, proptest::prelude::any::<u64>()), 0..48),
        ) {
            let d = TempDir::new("merge-prop");
            let keys = ["video:1", "video:2", "video:3", "model:main"];
            let mut kv = KvStore::open(&d.0).unwrap();
            let mut model: BTreeMap<String, Model> = BTreeMap::new();
            // Per-key last-mutation seqs, as `export_since` sees them.
            let mut seq = 0u64;
            let mut seqs: BTreeMap<String, u64> = BTreeMap::new();
            let mut marks = vec![0u64];
            for (step, &(kind, k, bits)) in ops.iter().enumerate() {
                let key = keys[k];
                let mut bits = bits;
                match kind {
                    0 => {
                        let v = Model::draw(&mut bits, 2, false);
                        kv.put(key, &v.to_value()).unwrap();
                        model.insert(key.to_owned(), v);
                        seq += 1;
                        seqs.insert(key.to_owned(), seq);
                    }
                    1 | 2 => {
                        let patch = Model::draw(&mut bits, 3, true);
                        kv.merge(key, patch.to_value()).unwrap();
                        let merged = model_merge(model.remove(key), &patch);
                        model.insert(key.to_owned(), merged);
                        seq += 1;
                        seqs.insert(key.to_owned(), seq);
                    }
                    3 => {
                        let existed = kv.remove(key).unwrap();
                        assert_eq!(existed, model.remove(key).is_some(), "step {step}");
                        if existed {
                            seq += 1;
                            seqs.remove(key);
                        }
                    }
                    4 => kv.snapshot().unwrap(),
                    _ => {
                        drop(kv);
                        kv = KvStore::open(&d.0).unwrap();
                        seq = u64::from(!model.is_empty());
                        seqs = model.keys().map(|k| (k.clone(), seq)).collect();
                        marks = vec![0];
                    }
                }
                assert_eq!(kv.current_seq(), seq, "step {step}");
                assert_eq!(kv.len(), model.len(), "step {step}");
                for (key, want) in &model {
                    let got = get::<serde_json::Value>(&kv, key).map(|v| Model::of(&v));
                    assert_eq!(got.as_ref(), Some(want), "step {step}: {key}");
                }
                for &since in &marks {
                    let got: Vec<(String, Model)> = kv
                        .export_since("video:", since)
                        .iter()
                        .map(|(k, v)| (k.clone(), Model::of(v)))
                        .collect();
                    let want: Vec<(String, Model)> = model
                        .iter()
                        .filter(|(k, _)| k.starts_with("video:") && seqs[*k] > since)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, want, "step {step}: export_since({since})");
                }
                marks.push(seq);
            }
            drop(kv);
            let kv = KvStore::open(&d.0).unwrap();
            let reopened: BTreeMap<String, Model> = keys
                .iter()
                .filter_map(|k| Some((k.to_string(), Model::of(&get::<serde_json::Value>(&kv, k)?))))
                .collect();
            assert_eq!(reopened, model, "final reopen");
        }
    }
}
