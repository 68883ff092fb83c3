//! A `CacheStore` wrapper around the on-disk `DirStore` that counts (and,
//! when tracing, times) every call the daemon makes into the proof cache.
//! Passed to `ServerCore::with_store`, it splits proof-cache time from
//! daemon dispatch without touching either crate.

use crate::trace;
use proof_cache::{CacheRecord, CacheStore, DirStore, RunCounters, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls of one kind: all of them, and the nanoseconds and number of those
/// made while tracing.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    traced_ns: AtomicU64,
    traced_calls: AtomicU64,
}

impl CallStats {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// (nanoseconds, calls) while tracing.
    pub fn traced(&self) -> (u64, u64) {
        (
            self.traced_ns.load(Ordering::Relaxed),
            self.traced_calls.load(Ordering::Relaxed),
        )
    }

    /// Counts `f`, and times it as a proof-cache span when tracing.
    fn run<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !trace::enabled() {
            return f();
        }
        let start = Instant::now();
        let out = trace::span("proof_cache", name, f);
        self.traced_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.traced_calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

pub struct TimedStore {
    inner: DirStore,
    pub lookups: CallStats,
    pub inserts: CallStats,
}

impl TimedStore {
    pub fn new(inner: DirStore) -> TimedStore {
        TimedStore {
            inner,
            lookups: CallStats::default(),
            inserts: CallStats::default(),
        }
    }
}

impl CacheStore for TimedStore {
    fn lookup(&self, target_key: u64) -> Vec<CacheRecord> {
        self.lookups.run("lookup", || self.inner.lookup(target_key))
    }

    fn insert(&self, record: &CacheRecord) {
        self.inserts.run("insert", || self.inner.insert(record))
    }

    fn clear(&self) {
        self.inner.clear()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn note_run(&self, counters: RunCounters) {
        trace::span("proof_cache", "note_run", || self.inner.note_run(counters))
    }
}
