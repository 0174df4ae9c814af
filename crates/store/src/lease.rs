//! Crash-safe job leases for distributed sweep execution.
//!
//! A distributed sweep stores one lease file per in-flight job under
//! `leases/<sweep>/<key>.lease`. Workers claim a job by creating its
//! lease atomically; a worker that dies (including `kill -9`, which
//! skips every destructor) simply leaves its lease behind, and the
//! staleness rules let a surviving worker reclaim the job — mirroring
//! the stale-`store.lock` reclaim.
//!
//! **Claim** writes the lease record to a private temp file and
//! `hard_link(2)`s it to the lease path: link creation is atomic and
//! fails with `AlreadyExists` when another worker won the race, so
//! exactly one claimer succeeds and losers back off deterministically
//! ([`backoff_ms`]).
//!
//! **Staleness** is judged on owner identity *and* heartbeat: a lease
//! is stale when its owner is provably dead (PID gone, or PID recycled
//! — start times compared, like the store lock) or when its heartbeat
//! timestamp is older than the TTL (covers a hung-but-alive worker).
//!
//! **Reclaim** replaces a stale lease via tmp + `rename(2)` with the
//! epoch bumped. Two concurrent reclaimers both rename; the last one
//! wins the file, so each re-reads the lease afterwards and only the
//! worker whose token survives proceeds.
//!
//! **Fencing**: every lease carries a `token` unique to one claimer
//! (`pid.start.counter`) and a monotonically increasing `epoch`. A
//! reclaimed worker that wakes up late and tries to publish re-reads
//! the lease first — its token no longer matches, so the late write is
//! rejected before the rename-commit ([`RunStore::put_fenced`] stages
//! under the epoch and runs this check). Results are deterministic in
//! the job key, so even the theoretical re-commit race between fence
//! check and rename writes byte-identical data.
//!
//! [`RunStore::put_fenced`]: crate::store::RunStore::put_fenced

use crate::procinfo::{owner_dead, self_start_time};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Name of the lease directory inside a store root.
pub const LEASE_DIR: &str = "leases";

static TOKEN_COUNTER: AtomicU64 = AtomicU64::new(0);
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Wall-clock milliseconds since the Unix epoch (heartbeat clock; all
/// workers share one machine clock, per the single-host design).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// Mint a claimer token unique across processes (PID + start time) and
/// within one process (counter) — the fencing identity of one worker.
pub fn mint_token() -> String {
    format!(
        "{}.{}.{}",
        std::process::id(),
        self_start_time().unwrap_or(0),
        TOKEN_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// The on-disk lease record for one claimed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseRecord {
    /// Content address of the leased job.
    pub key: String,
    /// PID of the owning worker.
    pub pid: u32,
    /// Start time of the owning process (PID-reuse defence); `None`
    /// off-Linux.
    pub start: Option<u64>,
    /// Fencing identity of the claimer ([`mint_token`]).
    pub token: String,
    /// Fencing epoch: 1 on first claim, bumped by every reclaim.
    pub epoch: u64,
    /// Wall-clock ms of the last heartbeat (monotone non-decreasing
    /// per owner).
    pub heartbeat_ms: u64,
    /// Heartbeats older than this many ms mark the lease stale.
    pub ttl_ms: u64,
}

impl LeaseRecord {
    /// Whether this lease may be reclaimed at wall-clock `now` ms:
    /// the owner is provably dead, or the heartbeat exceeded the TTL.
    pub fn is_stale(&self, now: u64) -> bool {
        owner_dead(self.pid, self.start) || now.saturating_sub(self.heartbeat_ms) > self.ttl_ms
    }
}

/// What a lease file held, distinguishing absence from rot.
enum OnDisk {
    Missing,
    /// Unparseable lease (torn by a dying filesystem): reclaimable,
    /// epoch unknown.
    Corrupt,
    Record(LeaseRecord),
}

fn read_lease(path: &Path) -> io::Result<OnDisk> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(OnDisk::Missing),
        Err(e) => return Err(e),
    };
    Ok(match serde_json::from_str::<LeaseRecord>(&text) {
        Ok(rec) => OnDisk::Record(rec),
        Err(_) => OnDisk::Corrupt,
    })
}

fn write_record(path: &Path, rec: &LeaseRecord) -> io::Result<()> {
    let text = serde_json::to_string(rec)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::write(path, text)
}

/// Outcome of one [`LeaseSet::claim`] attempt.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// A fresh lease was created; this worker owns the job.
    Claimed(LeaseGuard),
    /// A stale lease was reclaimed (the old record is returned for
    /// journaling `JobLeaseExpired`/`JobReclaimed`).
    Reclaimed(LeaseGuard, LeaseRecord),
    /// A live worker holds the lease; back off deterministically.
    Held(LeaseRecord),
}

/// The lease directory of one sweep, from one claimer's perspective.
#[derive(Debug, Clone)]
pub struct LeaseSet {
    dir: PathBuf,
    token: String,
    ttl_ms: u64,
}

impl LeaseSet {
    /// Open (creating) the lease directory for `sweep` under
    /// `store_root`, minting a fresh claimer token.
    pub fn open(store_root: &Path, sweep: &str, ttl_ms: u64) -> io::Result<LeaseSet> {
        let dir = store_root.join(LEASE_DIR).join(sweep);
        fs::create_dir_all(&dir)?;
        Ok(LeaseSet {
            dir,
            token: mint_token(),
            ttl_ms,
        })
    }

    /// This claimer's fencing token.
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Lease TTL in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    fn lease_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lease"))
    }

    fn record(&self, key: &str, epoch: u64) -> LeaseRecord {
        LeaseRecord {
            key: key.to_owned(),
            pid: std::process::id(),
            start: self_start_time(),
            token: self.token.clone(),
            epoch,
            heartbeat_ms: now_ms(),
            ttl_ms: self.ttl_ms,
        }
    }

    /// The current lease on `key`, if any (observer view; used by the
    /// coordinator to classify pending jobs).
    pub fn peek(&self, key: &str) -> io::Result<Option<LeaseRecord>> {
        match read_lease(&self.lease_path(key))? {
            OnDisk::Record(rec) => Ok(Some(rec)),
            OnDisk::Missing | OnDisk::Corrupt => Ok(None),
        }
    }

    /// Try to claim the job `key`: create its lease atomically, or
    /// reclaim a stale one. Exactly one concurrent claimer succeeds.
    pub fn claim(&self, key: &str) -> io::Result<ClaimOutcome> {
        secreta_faults::fault::delay("lease.claim");
        let path = self.lease_path(key);
        // Two passes: the second only after losing a race, so a claim
        // never spins.
        for _ in 0..2 {
            match read_lease(&path)? {
                OnDisk::Missing => {
                    let rec = self.record(key, 1);
                    match link_fresh(&path, &rec) {
                        Ok(true) => return Ok(ClaimOutcome::Claimed(self.guard(path, rec))),
                        Ok(false) => continue, // lost the creation race
                        Err(e) => return Err(e),
                    }
                }
                OnDisk::Corrupt => {
                    // unreadable lease: reclaimable, epoch unknown —
                    // fencing rests on the token, so epoch restarts
                    let rec = self.record(key, 1);
                    if self.rename_over(&path, &rec)? {
                        let old = LeaseRecord {
                            key: key.to_owned(),
                            pid: 0,
                            start: None,
                            token: String::new(),
                            epoch: 0,
                            heartbeat_ms: 0,
                            ttl_ms: self.ttl_ms,
                        };
                        return Ok(ClaimOutcome::Reclaimed(self.guard(path, rec), old));
                    }
                    continue;
                }
                OnDisk::Record(old) if old.is_stale(now_ms()) => {
                    let rec = self.record(key, old.epoch + 1);
                    if self.rename_over(&path, &rec)? {
                        return Ok(ClaimOutcome::Reclaimed(self.guard(path, rec), old));
                    }
                    continue; // a concurrent reclaimer won
                }
                OnDisk::Record(held) => return Ok(ClaimOutcome::Held(held)),
            }
        }
        // lost two races in a row: report whoever holds it now
        match read_lease(&path)? {
            OnDisk::Record(held) => Ok(ClaimOutcome::Held(held)),
            _ => Ok(ClaimOutcome::Held(self.record(key, 0))),
        }
    }

    /// Replace the lease at `path` with `rec` via tmp + rename, then
    /// re-read to see whether *our* write survived a concurrent
    /// replacement. Returns whether we own the lease now.
    fn rename_over(&self, path: &Path, rec: &LeaseRecord) -> io::Result<bool> {
        let tmp = self.tmp_path();
        write_record(&tmp, rec)?;
        let renamed = fs::rename(&tmp, path);
        let _ = fs::remove_file(&tmp);
        renamed?;
        match read_lease(path)? {
            OnDisk::Record(cur) => Ok(cur.token == self.token && cur.epoch == rec.epoch),
            _ => Ok(false),
        }
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn guard(&self, path: PathBuf, record: LeaseRecord) -> LeaseGuard {
        LeaseGuard { path, record }
    }
}

/// Atomically create `path` with `rec`'s contents. `Ok(false)` when
/// another claimer created it first.
fn link_fresh(path: &Path, rec: &LeaseRecord) -> io::Result<bool> {
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    write_record(&tmp, rec)?;
    let linked = fs::hard_link(&tmp, path);
    let _ = fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Re-read the lease at `path` and refresh its heartbeat if `token`
/// still owns it. `Ok(false)` means the lease was lost (reclaimed or
/// removed) — the worker should abandon the job; the fenced put will
/// reject its result anyway.
pub fn heartbeat(path: &Path, token: &str) -> io::Result<bool> {
    secreta_faults::fault::delay("lease.heartbeat");
    match read_lease(path)? {
        OnDisk::Record(mut rec) if rec.token == token => {
            rec.heartbeat_ms = now_ms();
            // tmp + rename: readers never see a torn heartbeat
            let tmp = path.with_extension(format!(
                "hb-{}-{}",
                std::process::id(),
                TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            write_record(&tmp, &rec)?;
            let renamed = fs::rename(&tmp, path);
            let _ = fs::remove_file(&tmp);
            renamed?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// A held lease; supports heartbeats, the fence check, and release.
#[derive(Debug)]
pub struct LeaseGuard {
    path: PathBuf,
    record: LeaseRecord,
}

impl LeaseGuard {
    /// Fencing epoch of this claim.
    pub fn epoch(&self) -> u64 {
        self.record.epoch
    }

    /// Fencing token of this claim.
    pub fn token(&self) -> &str {
        &self.record.token
    }

    /// Path of the lease file (hand this to a heartbeat thread along
    /// with [`LeaseGuard::token`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Refresh the heartbeat; `Ok(false)` when the lease was lost.
    pub fn heartbeat(&self) -> io::Result<bool> {
        heartbeat(&self.path, &self.record.token)
    }

    /// The fence check: does this claim still own the lease? Run
    /// immediately before any rename-commit of results.
    pub fn verify(&self) -> bool {
        matches!(
            read_lease(&self.path),
            Ok(OnDisk::Record(cur)) if cur.token == self.record.token
                && cur.epoch == self.record.epoch
        )
    }

    /// Release the lease (remove the file) if still owned.
    pub fn release(self) {
        // Drop does the work; an explicit name reads better at call
        // sites.
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        if self.verify() {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// 64-bit FNV-1a hash of `text`: the deterministic, token-salted
/// jitter behind [`backoff_ms`] and workers' job-scan offsets.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Deterministic backoff for lease contention: exponential base with
/// token-salted jitter, so two racing workers never pick identical
/// sleep schedules but each worker's schedule is fully reproducible.
pub fn backoff_ms(attempt: u32, token: &str) -> u64 {
    let base = 10u64 << attempt.min(6); // 10, 20, 40, ... 640 ms
    let mut h = fnv1a(token);
    h ^= u64::from(attempt);
    h = h.wrapping_mul(0x0100_0000_01b3);
    base + h % base
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("secreta-lease-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claim_release_reclaim_cycle() {
        let root = tmp_root("cycle");
        let set = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let guard = match set.claim("job-a").unwrap() {
            ClaimOutcome::Claimed(g) => g,
            other => panic!("expected fresh claim, got {other:?}"),
        };
        assert_eq!(guard.epoch(), 1);
        assert!(guard.verify());
        assert!(guard.heartbeat().unwrap());
        guard.release();
        assert!(set.peek("job-a").unwrap().is_none());
        // a released job claims fresh again at epoch 1
        match set.claim("job-a").unwrap() {
            ClaimOutcome::Claimed(g) => assert_eq!(g.epoch(), 1),
            other => panic!("expected fresh claim, got {other:?}"),
        }
    }

    #[test]
    fn second_claimer_is_held_off() {
        let root = tmp_root("held");
        let a = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let b = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let _g = match a.claim("job").unwrap() {
            ClaimOutcome::Claimed(g) => g,
            other => panic!("{other:?}"),
        };
        match b.claim("job").unwrap() {
            ClaimOutcome::Held(rec) => assert_eq!(rec.token, a.token()),
            other => panic!("expected Held, got {other:?}"),
        }
    }

    #[test]
    fn stale_heartbeat_is_reclaimed_with_epoch_bump_and_old_fence_breaks() {
        let root = tmp_root("stale");
        let a = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let b = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let g_a = match a.claim("job").unwrap() {
            ClaimOutcome::Claimed(g) => g,
            other => panic!("{other:?}"),
        };
        // age A's heartbeat past the TTL by editing the record (as if
        // A froze for > TTL)
        let mut rec = b.peek("job").unwrap().unwrap();
        rec.heartbeat_ms = 1;
        write_record(&g_a.path, &rec).unwrap();
        let (g_b, old) = match b.claim("job").unwrap() {
            ClaimOutcome::Reclaimed(g, old) => (g, old),
            other => panic!("expected Reclaimed, got {other:?}"),
        };
        assert_eq!(old.token, a.token());
        assert_eq!(g_b.epoch(), 2);
        // A's fence is broken: verify fails, heartbeat refuses, and
        // dropping A's guard must NOT remove B's lease
        assert!(!g_a.verify());
        assert!(!g_a.heartbeat().unwrap());
        drop(g_a);
        assert_eq!(b.peek("job").unwrap().unwrap().token, b.token());
        assert!(g_b.verify());
    }

    #[test]
    fn dead_owner_is_reclaimed_without_waiting_for_ttl() {
        if self_start_time().is_none() {
            return; // no /proc: owner-death is undecidable
        }
        let root = tmp_root("dead");
        let set = LeaseSet::open(&root, "s1", 3_600_000).unwrap();
        // forge a lease held by a live PID (ours) with a forged start
        // time — a recycled PID, i.e. a provably dead owner
        let mut rec = set.record("job", 4);
        rec.token = "someone.else.0".into();
        rec.start = Some(u64::MAX);
        write_record(&root.join(LEASE_DIR).join("s1").join("job.lease"), &rec).unwrap();
        match set.claim("job").unwrap() {
            ClaimOutcome::Reclaimed(g, old) => {
                assert_eq!(old.epoch, 4);
                assert_eq!(g.epoch(), 5);
            }
            other => panic!("expected Reclaimed, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_lease_is_reclaimable() {
        let root = tmp_root("corrupt");
        let set = LeaseSet::open(&root, "s1", 60_000).unwrap();
        fs::write(root.join(LEASE_DIR).join("s1").join("job.lease"), "garb").unwrap();
        match set.claim("job").unwrap() {
            ClaimOutcome::Reclaimed(g, _) => assert!(g.verify()),
            other => panic!("expected Reclaimed, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_token_salted() {
        let a: Vec<u64> = (0..8).map(|i| backoff_ms(i, "w1")).collect();
        let b: Vec<u64> = (0..8).map(|i| backoff_ms(i, "w1")).collect();
        let c: Vec<u64> = (0..8).map(|i| backoff_ms(i, "w2")).collect();
        assert_eq!(a, b, "same token must back off identically");
        assert_ne!(a, c, "different tokens must jitter apart");
        // bounded and growing
        for (i, ms) in a.iter().enumerate() {
            let base = 10u64 << (i as u32).min(6);
            assert!(*ms >= base && *ms < 2 * base, "attempt {i}: {ms}");
        }
    }
}
