//! Reverse-dependency tracking for incremental re-verification.
//!
//! During each target's verification the engine's [`Prog`] lookups are
//! recorded (see `gillian_engine::gil::DepSink`), yielding the set of
//! (kind, name) keys the proof *read*, each paired with the stable
//! fingerprint (`proof_cache::stable_fingerprint_key`) of what was behind
//! the key at the time — the same value the proof cache persists. An update
//! request then only has to compare fingerprints: if the item behind a key
//! changed, the tracker dirties exactly the reverse-dependency cone of that
//! key, and the next `verify` answers every clean target from the retained
//! outcome cache.
//!
//! [`Prog`]: gillian_engine::gil::Prog

use driver::CaseOutcome;
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub use proof_cache::DepKey;

/// Tracks, per verification target, what it read (with fingerprints), the
/// inverted edges, the dirty set, and the last known outcome.
#[derive(Debug, Default)]
pub struct DepTracker {
    /// target -> the keys it read during its last run, with the fingerprint
    /// each key had at that time.
    deps: HashMap<String, Vec<(DepKey, u64)>>,
    /// key -> targets whose last run read it.
    rdeps: BTreeMap<DepKey, BTreeSet<String>>,
    /// Targets that must re-run on the next `verify`.
    dirty: BTreeSet<String>,
    /// Last outcome per target; only trusted while the target is clean.
    cache: HashMap<String, CaseOutcome>,
}

impl DepTracker {
    /// A fresh tracker where every known target starts dirty (nothing has
    /// been verified yet).
    pub fn new<I: IntoIterator<Item = String>>(targets: I) -> DepTracker {
        DepTracker {
            dirty: targets.into_iter().collect(),
            ..DepTracker::default()
        }
    }

    /// Whether `target` needs a re-run: explicitly dirtied, or never cached.
    pub fn is_dirty(&self, target: &str) -> bool {
        self.dirty.contains(target) || !self.cache.contains_key(target)
    }

    /// Record the result of (re-)running `target`: replace its dependency
    /// edges, rebuild the inverted edges, store the outcome, mark it clean.
    pub fn record(&mut self, target: &str, reads: Vec<(DepKey, u64)>, outcome: CaseOutcome) {
        if let Some(old) = self.deps.get(target) {
            for (key, _) in old {
                if let Some(set) = self.rdeps.get_mut(key) {
                    set.remove(target);
                    if set.is_empty() {
                        self.rdeps.remove(key);
                    }
                }
            }
        }
        for (key, _) in &reads {
            self.rdeps
                .entry(key.clone())
                .or_default()
                .insert(target.to_string());
        }
        self.deps.insert(target.to_string(), reads);
        self.cache.insert(target.to_string(), outcome);
        self.dirty.remove(target);
    }

    /// The cached outcome for a clean target.
    pub fn cached(&self, target: &str) -> Option<&CaseOutcome> {
        self.cache.get(target)
    }

    /// Mark every recorded reader of `key` dirty iff the key's current
    /// fingerprint differs from the one the reader saw. Returns the targets
    /// newly dirtied, sorted.
    pub fn dirty_key(&mut self, key: &DepKey, current_fingerprint: u64) -> Vec<String> {
        let readers: Vec<String> = match self.rdeps.get(key) {
            Some(set) => set.iter().cloned().collect(),
            None => return Vec::new(),
        };
        let mut dirtied = Vec::new();
        for target in readers {
            let seen = self
                .deps
                .get(&target)
                .and_then(|reads| reads.iter().find(|(k, _)| k == key))
                .map(|(_, fp)| *fp);
            if seen != Some(current_fingerprint) && self.dirty.insert(target.clone()) {
                dirtied.push(target);
            }
        }
        dirtied
    }

    /// Unconditionally dirty every recorded reader of `key` (used when the
    /// caller already knows the item changed, e.g. `update_fn`).
    pub fn dirty_key_force(&mut self, key: &DepKey) -> Vec<String> {
        let readers: Vec<String> = match self.rdeps.get(key) {
            Some(set) => set.iter().cloned().collect(),
            None => return Vec::new(),
        };
        let mut dirtied = Vec::new();
        for target in readers {
            if self.dirty.insert(target.clone()) {
                dirtied.push(target);
            }
        }
        dirtied
    }

    /// Number of currently dirty targets.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The keys `target` read during its last run, if any.
    pub fn deps_of(&self, target: &str) -> Option<&[(DepKey, u64)]> {
        self.deps.get(target).map(|v| v.as_slice())
    }

    /// The recorded readers of `key`, sorted.
    pub fn readers_of(&self, key: &DepKey) -> Vec<String> {
        self.rdeps
            .get(key)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::{CaseOutcome, TargetKind};
    use gillian_engine::gil::DepKind;
    use gillian_rust::verifier::CaseReport;

    fn ok_outcome() -> CaseOutcome {
        CaseOutcome {
            kind: TargetKind::Function,
            report: CaseReport {
                name: "t".to_string(),
                verified: true,
                elapsed: std::time::Duration::ZERO,
                diagnostic: None,
            },
        }
    }

    fn key(kind: DepKind, name: &str) -> DepKey {
        (kind, name.to_string())
    }

    #[test]
    fn new_targets_start_dirty_and_record_cleans() {
        let mut t = DepTracker::new(["f".to_string(), "g".to_string()]);
        assert!(t.is_dirty("f"));
        assert!(t.is_dirty("g"));
        t.record("f", vec![(key(DepKind::Spec, "f"), 1)], ok_outcome());
        assert!(!t.is_dirty("f"));
        assert!(t.is_dirty("g"));
        assert!(t.cached("f").is_some());
    }

    #[test]
    fn unknown_target_counts_as_dirty() {
        let t = DepTracker::default();
        assert!(t.is_dirty("never_seen"));
    }

    #[test]
    fn dirty_key_hits_only_readers_with_stale_fingerprints() {
        let mut t = DepTracker::default();
        t.record("inc", vec![(key(DepKind::Spec, "inc"), 10)], ok_outcome());
        t.record(
            "inc2",
            vec![
                (key(DepKind::Spec, "inc2"), 20),
                (key(DepKind::Spec, "inc"), 10),
            ],
            ok_outcome(),
        );
        t.record("base", vec![(key(DepKind::Spec, "base"), 30)], ok_outcome());

        // Same fingerprint: nothing to do.
        assert!(t.dirty_key(&key(DepKind::Spec, "inc"), 10).is_empty());
        assert_eq!(t.dirty_count(), 0);

        // Changed fingerprint: both readers of Spec(inc) go dirty; base stays.
        let dirtied = t.dirty_key(&key(DepKind::Spec, "inc"), 11);
        assert_eq!(dirtied, vec!["inc".to_string(), "inc2".to_string()]);
        assert!(t.is_dirty("inc"));
        assert!(t.is_dirty("inc2"));
        assert!(!t.is_dirty("base"));

        // Re-dirtying is idempotent.
        assert!(t.dirty_key(&key(DepKind::Spec, "inc"), 12).is_empty());
    }

    #[test]
    fn record_replaces_stale_reverse_edges() {
        let mut t = DepTracker::default();
        t.record("f", vec![(key(DepKind::Pred, "p"), 1)], ok_outcome());
        assert_eq!(t.readers_of(&key(DepKind::Pred, "p")), vec!["f"]);
        // Second run no longer reads p.
        t.record("f", vec![(key(DepKind::Pred, "q"), 2)], ok_outcome());
        assert!(t.readers_of(&key(DepKind::Pred, "p")).is_empty());
        assert_eq!(t.readers_of(&key(DepKind::Pred, "q")), vec!["f"]);
        // Changing p now dirties nothing.
        assert!(t.dirty_key(&key(DepKind::Pred, "p"), 99).is_empty());
    }

    #[test]
    fn dirty_key_force_ignores_fingerprints() {
        let mut t = DepTracker::default();
        t.record("f", vec![(key(DepKind::Proc, "f"), 5)], ok_outcome());
        let dirtied = t.dirty_key_force(&key(DepKind::Proc, "f"));
        assert_eq!(dirtied, vec!["f".to_string()]);
    }
}
