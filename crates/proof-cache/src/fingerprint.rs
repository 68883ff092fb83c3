//! Read-set fingerprints: the items one proof read, each paired with the
//! [`stable_fingerprint_key`] of what sat behind it. The daemon's
//! dependency tracker keeps exactly these pairs and a [`CacheRecord`]'s
//! `deps` persist them, so a tracker hydrated from a record and one that
//! proved the target itself hold the same values.

use crate::{stable_fingerprint_key, CacheRecord};
use gillian_engine::gil::{DepKind, Prog};
use gillian_solver::Symbol;

/// One item a proof can read: what `Prog::end_dep_recording` reports, with
/// the name as text.
pub type DepKey = (DepKind, String);

/// Pairs each read (as `Prog::end_dep_recording` reports them) with its
/// fingerprint in `prog`. A read of a missing item gets its kind's absent
/// sentinel, so adding the item later changes the value its readers saw.
pub fn fingerprint_reads(
    prog: &Prog,
    reads: impl IntoIterator<Item = (DepKind, Symbol)>,
) -> Vec<(DepKey, u64)> {
    reads
        .into_iter()
        .map(|(kind, name)| {
            let fp = stable_fingerprint_key(prog, kind, name);
            ((kind, name.to_string()), fp)
        })
        .collect()
}

/// The read-set `record` persists, as the tracker keeps it. A matching
/// record names only known dependency kinds; other entries are skipped.
pub fn record_reads(record: &CacheRecord) -> Vec<(DepKey, u64)> {
    record
        .deps
        .iter()
        .filter_map(|d| {
            let kind = DepKind::from_label(&d.kind)?;
            Some(((kind, d.name.clone()), d.fingerprint))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::gil::{Cmd, Proc};
    use gillian_engine::{Asrt, Spec};
    use gillian_solver::Expr;

    fn spec(delta: i128) -> Spec {
        Spec::new(
            "f",
            Asrt::pure(Expr::le(Expr::lvar("x"), Expr::Int(1000))),
            Asrt::pure(Expr::eq(
                Expr::lvar("ret"),
                Expr::add(Expr::lvar("x"), Expr::Int(delta)),
            )),
        )
    }

    fn with_spec(spec: Spec) -> Prog {
        let mut prog = Prog::new();
        prog.add_spec(spec);
        prog
    }

    /// The fingerprint a proof reading `(kind, name)` in `prog` reports.
    fn read(prog: &Prog, kind: DepKind, name: &str) -> u64 {
        let reads = fingerprint_reads(prog, [(kind, Symbol::new(name))]);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].0, (kind, name.to_string()));
        reads[0].1
    }

    #[test]
    fn identical_content_same_fingerprint() {
        // Two programs, as two daemon processes would load them.
        assert_eq!(
            read(&with_spec(spec(1)), DepKind::Spec, "f"),
            read(&with_spec(spec(1)), DepKind::Spec, "f")
        );
    }

    #[test]
    fn different_content_different_fingerprint() {
        let base = read(&with_spec(spec(1)), DepKind::Spec, "f");
        assert_ne!(base, read(&with_spec(spec(2)), DepKind::Spec, "f"));
        assert_ne!(
            base,
            read(&with_spec(spec(1).trusted()), DepKind::Spec, "f")
        );
    }

    #[test]
    fn absent_keys_are_stable_and_kind_distinct() {
        let prog = Prog::new();
        let a = read(&prog, DepKind::Spec, "ghost");
        assert_eq!(a, read(&prog, DepKind::Spec, "ghost"));
        assert_ne!(a, read(&prog, DepKind::Proc, "ghost"));
    }

    #[test]
    fn adding_an_item_changes_its_key_fingerprint() {
        let mut prog = Prog::new();
        let before = read(&prog, DepKind::Spec, "f");
        prog.add_spec(spec(1));
        assert_ne!(before, read(&prog, DepKind::Spec, "f"));
    }

    /// A restarted daemon compares a stored read of a missing item against
    /// the sentinel it computes now, so the read-set must carry the on-disk
    /// sentinels (the values `stable` pins). If this fails, bump
    /// `CACHE_FORMAT_VERSION` and repin both.
    #[test]
    fn absent_sentinels_are_pinned_golden_values() {
        let prog = Prog::new();
        let got: Vec<String> = DepKind::ALL
            .iter()
            .map(|k| format!("{:016x}", read(&prog, *k, "ghost")))
            .collect();
        // DepKind::ALL order: proc, pred, spec, lemma, proc-sig.
        assert_eq!(
            got,
            [
                "006e9c3121da53d7",
                "a46d6af96207fc02",
                "2701b32be4786abc",
                "d4d43993540f885a",
                "b963ab2fe4e54709",
            ]
        );
    }

    #[test]
    fn proc_fingerprint_tracks_body_changes() {
        let with_proc = |body: Expr| {
            let mut prog = Prog::new();
            prog.add_proc(Proc::new("f", &["x"], vec![Cmd::Return(body)]));
            prog
        };
        let a = with_proc(Expr::pvar("x"));
        let b = with_proc(Expr::add(Expr::pvar("x"), Expr::Int(1)));
        assert_eq!(read(&a, DepKind::Proc, "f"), read(&a, DepKind::Proc, "f"));
        assert_ne!(read(&a, DepKind::Proc, "f"), read(&b, DepKind::Proc, "f"));
        // A spec-call site reads only the signature, which the edit keeps.
        assert_eq!(
            read(&a, DepKind::ProcSig, "f"),
            read(&b, DepKind::ProcSig, "f")
        );
    }
}
