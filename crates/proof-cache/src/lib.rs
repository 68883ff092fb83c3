//! Persistent, content-addressed proof cache.
//!
//! The daemon (`gillian serve`, PR 6) keeps dependency-tracked outcomes
//! warm *within* a process; this crate makes them survive across
//! processes, so CI and repeated local runs pay only for what changed:
//!
//! - [`stable`]: name-based, arena-independent structural fingerprints of
//!   specs, predicates, lemmas and procedures (never `Symbol`/`TermId`
//!   numeric identity), hashed with the solver's fixed-key
//!   [`StableHasher`]. They are the system's only item fingerprints: the
//!   daemon's dependency tracker keys on the same values this crate
//!   persists.
//! - [`fingerprint`]: a proof's read-set paired with those fingerprints,
//!   as the tracker keeps it and a record's `deps` persist it.
//! - [`store`]: the [`CacheRecord`] format and the pluggable
//!   [`CacheStore`] trait with std-only [`MemStore`] / [`DirStore`]
//!   implementations.
//! - this module: building the record of a verified target and finding a
//!   record that still applies — the steps batch sessions and the daemon
//!   share.
//!
//! # Soundness
//!
//! A cache hit never weakens verification: [`record_matches`] re-checks
//! the target fingerprint *and every recorded dependency fingerprint*
//! against the current program, so a hit certifies "this exact
//! configuration of items was verified before". Only verified outcomes
//! are stored — failures are always re-proved — and any unreadable,
//! truncated, corrupted or version-bumped record is a miss, never
//! trusted.

pub mod fingerprint;
pub mod stable;
pub mod store;

pub use fingerprint::{fingerprint_reads, record_reads, DepKey};
pub use stable::{
    stable_fingerprint_key, stable_lemma, stable_pred, stable_proc, stable_proc_sig, stable_spec,
    stable_target_fingerprint,
};
pub use store::{
    resolve_cache_dir, target_key, CacheRecord, CacheStore, DepEntry, DirStore, MemStore,
    RunCounters, StoreStats, CACHE_FORMAT_VERSION,
};

use gillian_engine::gil::{DepKind, Prog};
use gillian_solver::{StableHasher, Symbol};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// The record of a freshly verified target from its read-set, each read
/// paired with its [`stable_fingerprint_key`] at proof time.
pub fn verified_record(
    prog: &Prog,
    namespace: u64,
    kind_label: &str,
    name: &str,
    reads: &[(DepKey, u64)],
    elapsed: Duration,
) -> CacheRecord {
    let mut deps: Vec<DepEntry> = reads
        .iter()
        .map(|((kind, dep), fingerprint)| DepEntry {
            kind: kind.label().to_string(),
            name: dep.clone(),
            fingerprint: *fingerprint,
        })
        .collect();
    // Sorted by (kind, name) for deterministic record contents: the
    // recording sink orders by Symbol numeric id, which is
    // interning-order-dependent.
    deps.sort_by(|a, b| (&a.kind, &a.name).cmp(&(&b.kind, &b.name)));
    CacheRecord {
        namespace,
        kind_label: kind_label.to_string(),
        name: name.to_string(),
        target_fp: stable_target_fingerprint(prog, name),
        deps,
        elapsed_nanos: elapsed.as_nanos() as u64,
    }
}

/// A record in `store` for the target `(kind_label, name)` under
/// `namespace` that still applies to `prog` ([`record_matches`]), if any.
pub fn find_record(
    store: &dyn CacheStore,
    prog: &Prog,
    namespace: u64,
    kind_label: &str,
    name: &str,
) -> Option<CacheRecord> {
    store
        .lookup(target_key(namespace, kind_label, name))
        .into_iter()
        .find(|rec| {
            rec.namespace == namespace
                && rec.kind_label == kind_label
                && rec.name == name
                && record_matches(rec, prog)
        })
}

/// Does `record` still apply to `prog`? True iff the target fingerprint
/// and *every* dependency fingerprint match the current program state.
/// Unknown dependency kinds (from a hand-edited or future-format record)
/// fail the check.
pub fn record_matches(record: &CacheRecord, prog: &Prog) -> bool {
    if stable_target_fingerprint(prog, &record.name) != record.target_fp {
        return false;
    }
    record
        .deps
        .iter()
        .all(|d| match DepKind::from_label(&d.kind) {
            Some(kind) => stable_fingerprint_key(prog, kind, Symbol::new(&d.name)) == d.fingerprint,
            None => false,
        })
}

/// Fingerprint of a verification configuration from labelled components
/// (session name, mode, verdict-affecting engine options). Order matters:
/// callers must pass a fixed, documented sequence.
pub fn namespace_fingerprint<'a>(parts: impl IntoIterator<Item = (&'a str, String)>) -> u64 {
    let mut h = StableHasher::new();
    "gillian-namespace".hash(&mut h);
    for (key, value) in parts {
        key.hash(&mut h);
        value.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::{Asrt, Spec};
    use gillian_solver::Expr;

    fn prog_with_spec(delta: i128) -> Prog {
        let mut prog = Prog::new();
        prog.add_spec(Spec::new(
            "f",
            Asrt::pure(Expr::le(Expr::lvar("x"), Expr::Int(1000))),
            Asrt::pure(Expr::eq(
                Expr::lvar("ret"),
                Expr::add(Expr::lvar("x"), Expr::Int(delta)),
            )),
        ));
        prog
    }

    fn record_for(prog: &Prog) -> CacheRecord {
        let fp = stable_fingerprint_key(prog, DepKind::Spec, Symbol::new("f"));
        let reads = [((DepKind::Spec, "f".to_string()), fp)];
        verified_record(prog, 1, "fn", "f", &reads, Duration::from_nanos(1))
    }

    #[test]
    fn record_matches_unchanged_program() {
        let prog = prog_with_spec(1);
        assert!(record_matches(&record_for(&prog), &prog));
    }

    #[test]
    fn record_rejects_changed_dependency() {
        let rec = record_for(&prog_with_spec(1));
        assert!(!record_matches(&rec, &prog_with_spec(2)));
    }

    #[test]
    fn record_rejects_unknown_dep_kind() {
        let prog = prog_with_spec(1);
        let mut rec = record_for(&prog);
        rec.deps[0].kind = "warp-core".to_string();
        assert!(!record_matches(&rec, &prog));
    }

    #[test]
    fn namespace_fingerprint_distinguishes_values_and_keys() {
        let a = namespace_fingerprint([("mode", "fc".to_string())]);
        let b = namespace_fingerprint([("mode", "ts".to_string())]);
        let c = namespace_fingerprint([("edom", "fc".to_string())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
