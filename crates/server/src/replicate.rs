//! Continuous replication primitives: keep one warm standby per
//! primary by shipping migration bundles over the existing
//! `POST /admin/export` → `POST /admin/import` protocol.
//!
//! The supervisor (see [`crate::supervisor`]) decides *when* to sync;
//! this module knows *how*: one bulk copy (`since_seq = 0`, chat +
//! state) to seed a standby, then delta bundles against the last
//! imported watermark (`since_seq = as_of_seq` of the previous
//! bundle, state only — chat is immutable once crawled). Bundles are
//! shipped verbatim: the exported bytes go to the standby untouched,
//! so the CRC the source computed is the CRC the destination
//! verifies.
//!
//! An empty delta is not a wasted round trip — its `as_of_seq` is the
//! primary's current KV watermark, which makes the steady-state delta
//! tick double as the replication-lag probe: `lag_ops` is exactly the
//! distance between the watermark the standby has and the watermark
//! the primary reports.

use crate::client::{ClientError, ClientResponse, HttpClient};
use lightor_platform::wire::BundleDto;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One replicated range: a ring member and the warm standby shadowing
/// it.
#[derive(Clone, Debug)]
pub struct ReplicaPair {
    /// The primary — a current ring member whose state is shadowed.
    pub primary: SocketAddr,
    /// The standby — receives bundles, promoted if the primary dies.
    pub standby: SocketAddr,
    /// The primary's data directory, when it is reachable from the
    /// supervisor (co-located deployments). At promotion time this is
    /// the zero-loss path: a SIGKILLed primary cannot answer a final
    /// delta export, but its WAL tail holds every acknowledged write,
    /// and [`lightor_platform::LightorService::bundle_from_dir`]
    /// rebuilds the full bundle from the directory alone.
    pub primary_data_dir: Option<PathBuf>,
}

impl ReplicaPair {
    /// Parse the CLI form `PRIMARY,STANDBY[,DATA_DIR]` (e.g.
    /// `127.0.0.1:7801,127.0.0.1:7901,/var/lib/lightor/shard0`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.splitn(3, ',');
        let primary = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("--pair {s:?}: missing primary address"))?;
        let standby = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("--pair {s:?}: missing standby address"))?;
        let primary = primary
            .parse()
            .map_err(|e| format!("--pair {s:?}: bad primary address: {e}"))?;
        let standby = standby
            .parse()
            .map_err(|e| format!("--pair {s:?}: bad standby address: {e}"))?;
        if primary == standby {
            return Err(format!("--pair {s:?}: primary and standby are the same"));
        }
        Ok(ReplicaPair {
            primary,
            standby,
            primary_data_dir: parts.next().map(PathBuf::from),
        })
    }
}

/// Per-standby replication ledger: what the standby has, how far
/// behind it is, and how much work got it there.
#[derive(Clone, Debug, Default)]
pub struct ReplicaTracker {
    /// The primary's watermark as of the last bundle the standby
    /// imported. `None` until the bulk seed lands.
    pub synced_seq: Option<u64>,
    /// When the last bundle was imported.
    pub last_sync: Option<Instant>,
    /// The primary's watermark at the last successful export — the
    /// freshest truth about how far ahead the primary is. Updates
    /// even when the subsequent import fails, so lag grows instead of
    /// flat-lining when the standby is the broken half.
    pub primary_seq: u64,
    /// Delta bundles imported into the standby.
    pub deltas_shipped: u64,
    /// Bulk (full) bundles imported into the standby.
    pub bulk_syncs: u64,
}

impl ReplicaTracker {
    /// KV ops the standby is behind the last-observed primary
    /// watermark.
    pub fn lag_ops(&self) -> u64 {
        self.primary_seq
            .saturating_sub(self.synced_seq.unwrap_or(0))
    }

    /// Milliseconds since the last successful sync at `now`
    /// (`u64::MAX` before the first one — "infinitely stale" orders
    /// correctly against any real lag).
    pub fn lag_ms(&self, now: Instant) -> u64 {
        match self.last_sync {
            Some(t) => now.saturating_duration_since(t).as_millis() as u64,
            None => u64::MAX,
        }
    }
}

/// TCP connect budget per control-plane call.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// What one successful sync did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Full seed: chat + state, `since_seq = 0`.
    Bulk {
        /// Videos in the shipped bundle.
        entries: usize,
    },
    /// Incremental: state changed since the last watermark.
    Delta {
        /// Videos in the shipped bundle.
        entries: usize,
    },
    /// Nothing changed since the last watermark — the export came
    /// back empty and no import was issued. Still advances
    /// `synced_seq` to the reported watermark (there is nothing
    /// between the two) and refreshes `last_sync`.
    Noop,
}

/// One control-plane call: send `method path` to `addr` on a fresh
/// connection under the `request` deadline and parse the JSON answer
/// as `T`. A non-2xx status or an unparseable body is a
/// [`ClientError::Io`], so callers treat "peer said no" and "peer
/// unreachable" alike. The response comes back too, for a caller that
/// needs the raw body bytes.
pub(crate) fn call_json<T: serde::Deserialize>(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    request: Duration,
) -> Result<(T, ClientResponse), ClientError> {
    let mut conn = HttpClient::connect_with(addr, CONNECT_TIMEOUT, request)?;
    let resp = conn.request_deadline(method, path, body, Instant::now() + request)?;
    if !(200..300).contains(&resp.status) {
        return Err(ClientError::Io(std::io::Error::other(format!(
            "{method} {path} on {addr} answered {}: {}",
            resp.status,
            resp.body_str()
        ))));
    }
    let parsed = resp
        .json()
        .map_err(|e| ClientError::Io(std::io::Error::other(format!("{path} body: {e}"))))?;
    Ok((parsed, resp))
}

/// Export a bundle from `primary` since `since_seq`, returning the
/// parsed DTO *and* the raw body bytes (shipped verbatim on import so
/// the source's CRC is what the destination verifies).
pub fn fetch_bundle(
    primary: SocketAddr,
    since_seq: u64,
    request: Duration,
) -> Result<(BundleDto, Vec<u8>), ClientError> {
    let req = format!("{{\"videos\":[],\"since_seq\":{since_seq},\"freeze_ms\":0}}");
    let (bundle, resp) = call_json(
        primary,
        "POST",
        "/admin/export",
        Some(req.as_bytes()),
        request,
    )?;
    Ok((bundle, resp.body))
}

/// Ship raw bundle bytes to `standby`'s `POST /admin/import`.
pub fn ship_bundle(
    standby: SocketAddr,
    raw: &[u8],
    request: Duration,
) -> Result<lightor_platform::wire::ImportResponse, ClientError> {
    call_json(standby, "POST", "/admin/import", Some(raw), request).map(|(ack, _)| ack)
}

/// One sync step for `pair`: export from the primary at the
/// tracker's watermark, import into the standby when the bundle
/// carries anything, and advance the ledger. Bulk when the standby
/// was never seeded, delta afterwards. On error the ledger keeps its
/// last good state (except `primary_seq`, which advances whenever
/// the export succeeded) and the caller retries next tick. Each call
/// runs under the `request` deadline.
pub fn sync_pair(
    pair: &ReplicaPair,
    tracker: &mut ReplicaTracker,
    request: Duration,
) -> Result<SyncOutcome, ClientError> {
    let since = tracker.synced_seq.unwrap_or(0);
    let bulk = tracker.synced_seq.is_none();
    let (bundle, raw) = fetch_bundle(pair.primary, since, request)?;
    tracker.primary_seq = bundle.as_of_seq;
    let outcome = if bundle.entries.is_empty() && !bulk {
        // Nothing to ship; the export already told us the watermark.
        SyncOutcome::Noop
    } else {
        ship_bundle(pair.standby, &raw, request)?;
        if bulk {
            tracker.bulk_syncs += 1;
            SyncOutcome::Bulk {
                entries: bundle.entries.len(),
            }
        } else {
            tracker.deltas_shipped += 1;
            SyncOutcome::Delta {
                entries: bundle.entries.len(),
            }
        }
    };
    tracker.synced_seq = Some(bundle.as_of_seq);
    tracker.last_sync = Some(Instant::now());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_parses_with_and_without_a_data_dir() {
        let p = ReplicaPair::parse("127.0.0.1:7801,127.0.0.1:7901").unwrap();
        assert_eq!(p.primary, "127.0.0.1:7801".parse().unwrap());
        assert_eq!(p.standby, "127.0.0.1:7901".parse().unwrap());
        assert!(p.primary_data_dir.is_none());

        let p = ReplicaPair::parse("127.0.0.1:7801,127.0.0.1:7901,/data/shard0").unwrap();
        assert_eq!(
            p.primary_data_dir.as_deref(),
            Some(std::path::Path::new("/data/shard0"))
        );
    }

    #[test]
    fn pair_rejects_malformed_specs() {
        assert!(ReplicaPair::parse("").is_err());
        assert!(ReplicaPair::parse("127.0.0.1:7801").is_err());
        assert!(ReplicaPair::parse("127.0.0.1:7801,").is_err());
        assert!(ReplicaPair::parse("not-an-addr,127.0.0.1:7901").is_err());
        assert!(ReplicaPair::parse("127.0.0.1:7801,not-an-addr").is_err());
        assert!(
            ReplicaPair::parse("127.0.0.1:7801,127.0.0.1:7801").is_err(),
            "a shard cannot shadow itself"
        );
    }

    #[test]
    fn tracker_lag_counts_ops_and_ms() {
        let mut tr = ReplicaTracker::default();
        assert_eq!(tr.lag_ops(), 0, "no observation yet, nothing to lag");
        assert_eq!(tr.lag_ms(Instant::now()), u64::MAX, "never synced");

        tr.primary_seq = 120;
        tr.synced_seq = Some(100);
        let t0 = Instant::now();
        tr.last_sync = Some(t0);
        assert_eq!(tr.lag_ops(), 20);
        assert_eq!(tr.lag_ms(t0 + Duration::from_millis(340)), 340);

        // Catching up zeroes the op lag.
        tr.synced_seq = Some(120);
        assert_eq!(tr.lag_ops(), 0);
    }
}
