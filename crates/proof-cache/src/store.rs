//! On-disk (and in-memory) proof-cache record stores.
//!
//! A record captures one successful verification: *which target*, under
//! *which engine configuration* (the namespace), reading *which items at
//! which stable fingerprints*, proved in *how long*. Records are keyed by
//! `(target_key, dep_set_hash)` so several records can coexist per target
//! (edit a spec A → B → back to A and both configurations re-hit).
//!
//! Soundness never rests on the store: a hit is only honoured after the
//! consumer re-checks every dependency fingerprint against the *current*
//! program (see [`crate::record_matches`]), and only **verified** outcomes
//! are ever written — failures are always re-proved, so their diagnostics
//! are always freshly computed.
//!
//! The on-disk format is a versioned, line-based, percent-escaped text
//! file ending in a checksum line. Reads are corruption-tolerant by
//! construction: any anomaly — missing file, bad header, truncation,
//! unknown kind label, checksum mismatch, version bump — parses to `None`
//! and is treated as a miss, never trusted.

use gillian_solver::StableHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the on-disk record format *and* of the stable-hash contract.
/// Bump on any change to the record syntax, the [`StableHasher`] keys, or
/// the stable traversals: old records then fail the header check and
/// degrade to misses.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// One dependency read during a verification, with the stable fingerprint
/// it had at the time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEntry {
    /// `DepKind::label()` of the read.
    pub kind: String,
    /// Item name.
    pub name: String,
    /// Stable fingerprint of the item at proof time.
    pub fingerprint: u64,
}

/// One cached successful verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheRecord {
    /// Fingerprint of the verification configuration (session name, mode,
    /// verdict-affecting engine options). Hits require an exact match.
    pub namespace: u64,
    /// Target kind label (`"fn"` or `"lemma"`).
    pub kind_label: String,
    /// Target name.
    pub name: String,
    /// Stable fingerprint of the target itself (proc + spec + lemma slots).
    pub target_fp: u64,
    /// Full read-set, sorted by (kind, name).
    pub deps: Vec<DepEntry>,
    /// Wall-clock nanoseconds the original (cold) proof took.
    pub elapsed_nanos: u64,
}

impl CacheRecord {
    /// Store key of the target this record proves: namespace + kind + name.
    pub fn target_key(&self) -> u64 {
        target_key(self.namespace, &self.kind_label, &self.name)
    }

    /// Hash of the full dependency read-set (names *and* fingerprints), the
    /// second component of the store key.
    pub fn dep_set_hash(&self) -> u64 {
        let mut deps = self.deps.clone();
        deps.sort_by(|a, b| (&a.kind, &a.name).cmp(&(&b.kind, &b.name)));
        let mut h = StableHasher::new();
        h.write_u64(self.target_fp);
        h.write_u64(deps.len() as u64);
        for d in &deps {
            d.kind.hash(&mut h);
            d.name.hash(&mut h);
            h.write_u64(d.fingerprint);
        }
        h.finish()
    }

    /// Serialises to the on-disk text format.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("gillian-proof-cache v{CACHE_FORMAT_VERSION}\n"));
        body.push_str(&format!("ns {:016x}\n", self.namespace));
        body.push_str(&format!(
            "target {} {} {:016x}\n",
            escape(&self.kind_label),
            escape(&self.name),
            self.target_fp
        ));
        for d in &self.deps {
            body.push_str(&format!(
                "dep {} {} {:016x}\n",
                escape(&d.kind),
                escape(&d.name),
                d.fingerprint
            ));
        }
        body.push_str(&format!("elapsed {}\n", self.elapsed_nanos));
        let checksum = StableHasher::hash_of(body.as_str());
        body.push_str(&format!("end {checksum:016x}\n"));
        body
    }

    /// Parses the on-disk text format. Any anomaly — wrong header/version,
    /// truncation, malformed line, checksum mismatch — returns `None`.
    pub fn from_text(text: &str) -> Option<CacheRecord> {
        let end_line_start = text.trim_end_matches('\n').rfind('\n')? + 1;
        let (body, end_line) = text.split_at(end_line_start);
        let checksum = end_line.trim_end().strip_prefix("end ")?;
        let checksum = u64::from_str_radix(checksum, 16).ok()?;
        if checksum != StableHasher::hash_of(body) {
            return None;
        }
        let mut lines = body.lines();
        let header = lines.next()?;
        let version: u32 = header.strip_prefix("gillian-proof-cache v")?.parse().ok()?;
        if version != CACHE_FORMAT_VERSION {
            return None;
        }
        let namespace = u64::from_str_radix(lines.next()?.strip_prefix("ns ")?, 16).ok()?;
        let target = lines.next()?.strip_prefix("target ")?;
        let mut parts = target.split(' ');
        let kind_label = unescape(parts.next()?)?;
        let name = unescape(parts.next()?)?;
        let target_fp = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() {
            return None;
        }
        let mut deps = Vec::new();
        let mut elapsed_nanos = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("dep ") {
                let mut parts = rest.split(' ');
                let kind = unescape(parts.next()?)?;
                let dep_name = unescape(parts.next()?)?;
                let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
                if parts.next().is_some() {
                    return None;
                }
                deps.push(DepEntry {
                    kind,
                    name: dep_name,
                    fingerprint,
                });
            } else if let Some(rest) = line.strip_prefix("elapsed ") {
                if elapsed_nanos.is_some() {
                    return None;
                }
                elapsed_nanos = Some(rest.parse().ok()?);
            } else {
                return None;
            }
        }
        Some(CacheRecord {
            namespace,
            kind_label,
            name,
            target_fp,
            deps,
            elapsed_nanos: elapsed_nanos?,
        })
    }
}

/// Store key of a target under a namespace: where all of the target's
/// records (one per distinct read-set) live.
pub fn target_key(namespace: u64, kind_label: &str, name: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(namespace);
    kind_label.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Percent-escapes a name so it fits a space-separated line: `%`, spaces,
/// and control characters become `%XX`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b == b'%' || b <= b' ' || b == 0x7f {
            out.push_str(&format!("%{b:02x}"));
        } else {
            out.push(b as char);
        }
    }
    if out.is_empty() {
        // An empty field would break space-splitting.
        out.push_str("%00");
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let b = u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
            if b != 0 {
                out.push(b);
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Counters for one run against a store, reported via
/// `SolverStats::disk_cache_*` and `gillian cache stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunCounters {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
}

/// Aggregate store contents, for `gillian cache stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Number of parseable records.
    pub entries: u64,
    /// Total bytes of record files (including unparseable ones).
    pub bytes: u64,
}

/// A pluggable proof-cache record store. Implementations must be safe to
/// share across verification worker threads.
pub trait CacheStore: Send + Sync {
    /// All records currently stored for `target_key` (any read-set).
    fn lookup(&self, target_key: u64) -> Vec<CacheRecord>;
    /// Insert (or replace) the record at `(target_key(), dep_set_hash())`.
    fn insert(&self, record: &CacheRecord);
    /// Drop every record.
    fn clear(&self);
    /// Entry/byte counts.
    fn stats(&self) -> StoreStats;
    /// Note the hit/miss/write counters of a completed run, if the store
    /// has somewhere to surface them (`gillian cache stats`). No-op by
    /// default.
    fn note_run(&self, _counters: RunCounters) {}
}

/// In-memory store: useful for tests and for sharing warm results between
/// sessions of one process without touching the filesystem.
#[derive(Default)]
pub struct MemStore {
    records: Mutex<HashMap<u64, HashMap<u64, CacheRecord>>>,
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl CacheStore for MemStore {
    fn lookup(&self, target_key: u64) -> Vec<CacheRecord> {
        self.records
            .lock()
            .unwrap()
            .get(&target_key)
            .map(|m| m.values().cloned().collect())
            .unwrap_or_default()
    }

    fn insert(&self, record: &CacheRecord) {
        self.records
            .lock()
            .unwrap()
            .entry(record.target_key())
            .or_default()
            .insert(record.dep_set_hash(), record.clone());
    }

    fn clear(&self) {
        self.records.lock().unwrap().clear();
    }

    fn stats(&self) -> StoreStats {
        let records = self.records.lock().unwrap();
        let entries = records.values().map(|m| m.len() as u64).sum();
        let bytes = records
            .values()
            .flat_map(|m| m.values())
            .map(|r| r.to_text().len() as u64)
            .sum();
        StoreStats { entries, bytes }
    }
}

/// On-disk store: one file per `(target, read-set)` under a root directory,
/// named `<target_key:016x>-<dep_set_hash:016x>.rec`. Writes go through a
/// temp file and an atomic rename, so readers never observe a torn record;
/// a crash at worst leaves a `.tmp` file that is ignored and swept by `gc`.
///
/// Write failures (read-only directory, ENOSPC, an injected fault) never
/// error the run: the store *degrades* to in-memory-only operation — the
/// record lands in an embedded [`MemStore`] overflow, a notice is printed
/// once, and lookups keep consulting both tiers. The run keeps its warm
/// results; only persistence across processes is lost.
pub struct DirStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
    /// A disk write has failed; later records are expected to land in the
    /// overflow too (flipped once, with a one-time notice).
    degraded: std::sync::atomic::AtomicBool,
    /// Records that could not be persisted, kept for the process lifetime.
    overflow: MemStore,
}

impl DirStore {
    /// Opens (creating if needed is deferred to the first write) a store
    /// rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> DirStore {
        DirStore {
            root: root.into(),
            tmp_counter: AtomicU64::new(0),
            degraded: std::sync::atomic::AtomicBool::new(false),
            overflow: MemStore::new(),
        }
    }

    /// Has this store fallen back to in-memory-only operation after a disk
    /// write failure?
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Flips the degraded flag, printing the notice exactly once per store.
    fn degrade(&self, what: &str) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "gillian-proof-cache: {what} under {} failed; continuing with an \
                 in-memory cache only (results are kept for this run, but will \
                 not persist across processes)",
                self.root.display()
            );
        }
    }

    /// Opens the store at the resolved default location (see
    /// [`resolve_cache_dir`]).
    pub fn at_default_location() -> DirStore {
        DirStore::new(resolve_cache_dir())
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn record_files(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some("rec") {
                    out.push(path);
                }
            }
        }
        out.sort();
        out
    }

    /// Every parseable record in the store, with its path.
    pub fn all_records(&self) -> Vec<(PathBuf, CacheRecord)> {
        self.record_files()
            .into_iter()
            .filter_map(|p| {
                let text = std::fs::read_to_string(&p).ok()?;
                let rec = CacheRecord::from_text(&text)?;
                Some((p, rec))
            })
            .collect()
    }

    /// The counters of the most recent run, if any were noted.
    pub fn last_run(&self) -> Option<RunCounters> {
        let text = std::fs::read_to_string(self.root.join("last-run.txt")).ok()?;
        let mut counters = RunCounters::default();
        for line in text.lines() {
            let (key, value) = line.split_once(' ')?;
            let value: u64 = value.parse().ok()?;
            match key {
                "hits" => counters.hits = value,
                "misses" => counters.misses = value,
                "writes" => counters.writes = value,
                _ => return None,
            }
        }
        Some(counters)
    }

    /// Deletes least-recently-modified records until the store holds at
    /// most `max_bytes` of record files. Returns (files removed, bytes
    /// freed). Also sweeps *stale* `.tmp` files from interrupted writes —
    /// a fresh `.tmp` belongs to an in-flight writer (possibly in another
    /// process) whose atomic rename must not be yanked away mid-insert, so
    /// only files older than a generous in-flight window are reaped.
    pub fn gc(&self, max_bytes: u64) -> (u64, u64) {
        const TMP_SWEEP_AGE: std::time::Duration = std::time::Duration::from_secs(300);
        let mut removed = 0u64;
        let mut freed = 0u64;
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let path = entry.path();
                let stale_tmp = path.extension().and_then(|e| e.to_str()) == Some("tmp")
                    && std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| mtime.elapsed().ok())
                        .is_some_and(|age| age > TMP_SWEEP_AGE);
                if stale_tmp && std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
        }
        let mut files: Vec<(PathBuf, u64, std::time::SystemTime)> = self
            .record_files()
            .into_iter()
            .filter_map(|p| {
                let meta = std::fs::metadata(&p).ok()?;
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((p, meta.len(), mtime))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        // Oldest first: LRU by mtime.
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                removed += 1;
                freed += len;
            }
        }
        (removed, freed)
    }

    fn tmp_path(&self) -> PathBuf {
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        self.root
            .join(format!("write-{}-{}.tmp", std::process::id(), n))
    }
}

impl CacheStore for DirStore {
    fn lookup(&self, target_key: u64) -> Vec<CacheRecord> {
        // An injected read fault degrades this lookup to misses — exactly
        // like an unreadable directory. Records already in the in-memory
        // overflow stay visible either way.
        let mut out = if gillian_faults::hit("cache.read").is_some() {
            Vec::new()
        } else {
            let prefix = format!("{target_key:016x}-");
            self.record_files()
                .into_iter()
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&prefix))
                })
                .filter_map(|p| {
                    let text = std::fs::read_to_string(&p).ok()?;
                    let rec = CacheRecord::from_text(&text)?;
                    // A renamed or hand-crafted file whose contents do not
                    // match its key is stale: treat as a miss.
                    (rec.target_key() == target_key).then_some(rec)
                })
                .collect()
        };
        out.extend(self.overflow.lookup(target_key));
        out
    }

    fn insert(&self, record: &CacheRecord) {
        let injected = gillian_faults::hit("cache.write").is_some();
        let written = !injected && std::fs::create_dir_all(&self.root).is_ok() && {
            let name = format!(
                "{:016x}-{:016x}.rec",
                record.target_key(),
                record.dep_set_hash()
            );
            let tmp = self.tmp_path();
            let write = std::fs::File::create(&tmp).and_then(|mut f| {
                f.write_all(record.to_text().as_bytes())
                    .and_then(|()| f.sync_all())
            });
            match write {
                Ok(()) => std::fs::rename(&tmp, self.root.join(name)).is_ok(),
                Err(_) => {
                    let _ = std::fs::remove_file(&tmp);
                    false
                }
            }
        };
        if !written {
            // ENOSPC, a read-only directory, an injected fault: keep the
            // record for this run and carry on.
            self.degrade("writing a proof record");
            self.overflow.insert(record);
        }
    }

    fn clear(&self) {
        for path in self.record_files() {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(self.root.join("last-run.txt"));
        self.overflow.clear();
    }

    fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for path in self.record_files() {
            if let Ok(meta) = std::fs::metadata(&path) {
                stats.bytes += meta.len();
            }
            let parses = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| CacheRecord::from_text(&t))
                .is_some();
            if parses {
                stats.entries += 1;
            }
        }
        let overflow = self.overflow.stats();
        stats.entries += overflow.entries;
        stats.bytes += overflow.bytes;
        stats
    }

    /// Persists the counters to `last-run.txt` in the store directory so
    /// `gillian cache stats` can report the last run's hit-rate.
    fn note_run(&self, counters: RunCounters) {
        if std::fs::create_dir_all(&self.root).is_err() {
            return;
        }
        let text = format!(
            "hits {}\nmisses {}\nwrites {}\n",
            counters.hits, counters.misses, counters.writes
        );
        let tmp = self.tmp_path();
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, self.root.join("last-run.txt"));
        }
    }
}

/// The cache directory: `$GILLIAN_CACHE_DIR` if set and non-empty,
/// otherwise `target/gillian-cache` relative to the working directory.
pub fn resolve_cache_dir() -> PathBuf {
    match std::env::var("GILLIAN_CACHE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target").join("gillian-cache"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, fp: u64) -> CacheRecord {
        CacheRecord {
            namespace: 7,
            kind_label: "fn".to_string(),
            name: name.to_string(),
            target_fp: fp,
            deps: vec![
                DepEntry {
                    kind: "spec".to_string(),
                    name: name.to_string(),
                    fingerprint: fp ^ 1,
                },
                DepEntry {
                    kind: "proc".to_string(),
                    name: name.to_string(),
                    fingerprint: fp ^ 2,
                },
            ],
            elapsed_nanos: 12345,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proof-cache-test-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn text_round_trip() {
        let rec = record("push", 0xdead_beef);
        let parsed = CacheRecord::from_text(&rec.to_text()).expect("round trip");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn names_needing_escapes_round_trip() {
        let mut rec = record("weird name\nwith%stuff", 1);
        rec.deps[0].name = " ".to_string();
        let parsed = CacheRecord::from_text(&rec.to_text()).expect("round trip");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn corrupted_truncated_and_version_bumped_records_parse_to_none() {
        let text = record("push", 1).to_text();
        // Flip one byte in the middle.
        let mut corrupted = text.clone().into_bytes();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(CacheRecord::from_text(&String::from_utf8_lossy(&corrupted)).is_none());
        // Truncate.
        assert!(CacheRecord::from_text(&text[..text.len() / 2]).is_none());
        assert!(CacheRecord::from_text("").is_none());
        // Version bump.
        let bumped = text.replace("gillian-proof-cache v1", "gillian-proof-cache v2");
        assert!(CacheRecord::from_text(&bumped).is_none());
    }

    #[test]
    fn mem_store_round_trip_and_replacement() {
        let store = MemStore::new();
        let rec = record("push", 1);
        store.insert(&rec);
        assert_eq!(store.lookup(rec.target_key()), vec![rec.clone()]);
        // Same read-set: replaced, not duplicated.
        store.insert(&rec);
        assert_eq!(store.stats().entries, 1);
        // Different read-set for the same target: coexists.
        let mut rec2 = rec.clone();
        rec2.deps[0].fingerprint ^= 0xff;
        store.insert(&rec2);
        assert_eq!(store.lookup(rec.target_key()).len(), 2);
        store.clear();
        assert_eq!(store.stats().entries, 0);
    }

    #[test]
    fn dir_store_round_trip_and_corruption_tolerance() {
        let dir = tempdir("roundtrip");
        let store = DirStore::new(&dir);
        let rec = record("push", 1);
        store.insert(&rec);
        assert_eq!(store.lookup(rec.target_key()), vec![rec.clone()]);
        // A fresh handle on the same directory sees the record.
        let store2 = DirStore::new(&dir);
        assert_eq!(store2.lookup(rec.target_key()), vec![rec.clone()]);
        // Corrupt the file on disk: lookup degrades to a miss.
        let path = &store.record_files()[0];
        std::fs::write(path, "garbage").unwrap();
        assert!(store.lookup(rec.target_key()).is_empty());
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_rejects_renamed_records() {
        let dir = tempdir("renamed");
        let store = DirStore::new(&dir);
        let rec = record("push", 1);
        store.insert(&rec);
        // Rename the record under another target's key.
        let other = target_key(rec.namespace, "fn", "other");
        let path = store.record_files()[0].clone();
        let renamed = dir.join(format!("{other:016x}-{:016x}.rec", rec.dep_set_hash()));
        std::fs::rename(&path, &renamed).unwrap();
        assert!(store.lookup(other).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_gc_removes_oldest_first() {
        let dir = tempdir("gc");
        let store = DirStore::new(&dir);
        let old_rec = record("old", 0);
        let new_rec = record("new", 1);
        store.insert(&old_rec);
        store.insert(&new_rec);
        // Age the first record an hour into the past.
        let old_path = dir.join(format!(
            "{:016x}-{:016x}.rec",
            old_rec.target_key(),
            old_rec.dep_set_hash()
        ));
        let aged = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        std::fs::File::options()
            .write(true)
            .open(&old_path)
            .unwrap()
            .set_modified(aged)
            .unwrap();
        // A budget that fits exactly one record must evict the old one.
        let one_record = std::fs::metadata(&old_path).unwrap().len();
        let (removed, freed) = store.gc(one_record);
        assert_eq!((removed, freed), (1, one_record));
        assert!(store.lookup(old_rec.target_key()).is_empty());
        assert_eq!(store.lookup(new_rec.target_key()), vec![new_rec.clone()]);
        // A zero budget clears the rest.
        let (removed, _) = store.gc(0);
        assert_eq!(removed, 1);
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn note_run_round_trips() {
        let dir = tempdir("noterun");
        let store = DirStore::new(&dir);
        assert!(store.last_run().is_none());
        store.note_run(RunCounters {
            hits: 5,
            misses: 1,
            writes: 1,
        });
        let counters = store.last_run().unwrap();
        assert_eq!(counters.hits, 5);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_cache_dir_prefers_env() {
        // Note: avoid mutating the process env in tests (races with other
        // tests); just check the fallback shape.
        let fallback = PathBuf::from("target").join("gillian-cache");
        if std::env::var("GILLIAN_CACHE_DIR").is_err() {
            assert_eq!(resolve_cache_dir(), fallback);
        }
    }

    /// An unwritable cache location (read-only mount, permission problem)
    /// must not error the run: inserts degrade to the in-memory overflow
    /// (with the degraded flag set), lookups keep serving the overflowed
    /// records for the rest of the process, and a fresh store over the same
    /// location simply sees misses — the cold-identical-verdict contract.
    /// The root is nested under a regular *file*, so `create_dir_all` fails
    /// with `ENOTDIR` for every user — unlike permission bits, which root
    /// (CI containers) ignores.
    #[test]
    fn unwritable_dir_degrades_to_in_memory() {
        let dir = tempdir("readonly");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "not a directory").unwrap();

        let store = DirStore::new(blocker.join("cache"));
        let rec = record("push", 42);
        assert!(!store.is_degraded());
        store.insert(&rec);
        assert!(store.is_degraded(), "a failed write flips the store");
        assert_eq!(
            store.lookup(rec.target_key()),
            vec![rec.clone()],
            "the record is served from the overflow"
        );
        assert_eq!(store.stats().entries, 1);
        // A second insert stays quiet (the notice is one-time) and works.
        store.insert(&record("pop", 43));
        assert_eq!(store.stats().entries, 2);

        // A fresh process over the same location: nothing persisted,
        // everything is a miss — never a wrong answer.
        let fresh = DirStore::new(blocker.join("cache"));
        assert!(fresh.lookup(rec.target_key()).is_empty());
        assert!(!fresh.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `gc` racing a concurrent writer: eviction and insertion interleave
    /// freely; nothing panics, every surviving record still parses, and the
    /// writer's records remain readable through the same store.
    #[test]
    fn gc_races_a_concurrent_writer() {
        let dir = tempdir("gcrace");
        let store = std::sync::Arc::new(DirStore::new(&dir));

        let writer = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    store.insert(&record(&format!("w{i}"), i));
                }
            })
        };
        let collector = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    // A tight budget so eviction constantly chases the
                    // writer's fresh records.
                    store.gc(2048);
                }
            })
        };
        writer.join().unwrap();
        collector.join().unwrap();

        assert!(!store.is_degraded(), "races are not write failures");
        for (path, rec) in store.all_records() {
            assert_eq!(
                CacheRecord::from_text(&std::fs::read_to_string(&path).unwrap()).as_ref(),
                Some(&rec),
                "surviving records parse cleanly"
            );
        }
        // The store still works after the race.
        let rec = record("after", 999);
        store.insert(&rec);
        assert!(store.lookup(rec.target_key()).contains(&rec));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
