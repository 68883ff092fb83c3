//! Integration tests for `gillian analyze`: the GL05x seeded-defect corpus
//! (every semantic defect class caught with a stable code and span in a real
//! Table 1 program), the clean-sweep false-positive guard (zero GL05x on
//! every shipped workload in both modes), and the session's invariant table
//! (deterministic, and the same whenever it is first read).

use case_studies::table1::table1_cases;
use case_studies::SpecMode;
use gillian_engine::asrt::Asrt;
use gillian_engine::gil::{Cmd, LogicCmd, Prog};
use gillian_lint::{lint_prog, ItemKind, LintOptions, LintReport, Severity};
use gillian_server::{ProgramDb, WORKLOADS};
use gillian_solver::{BinOp, Expr, Symbol};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Shared plumbing (mirrors tests/lint.rs)
// ---------------------------------------------------------------------------

fn opts_for(tactics: impl IntoIterator<Item = String>) -> LintOptions {
    LintOptions {
        known_tactics: tactics.into_iter().collect(),
        ..LintOptions::default()
    }
}

fn lint_session(session: &driver::HybridSession) -> LintReport {
    let engine = &session.verifier().engine;
    let tactics: BTreeSet<String> = engine
        .tactics
        .keys()
        .map(|s| s.as_str().to_string())
        .collect();
    lint_prog(&engine.prog, &opts_for(tactics))
}

/// A linked-list FC program to mutate: the same seed the lint corpus uses,
/// so the GL05x defects are planted in a real Table 1 workload.
fn seed_prog() -> (Prog, BTreeSet<String>) {
    let session = case_studies::linked_list::session(SpecMode::FunctionalCorrectness);
    let engine = &session.verifier().engine;
    let tactics = engine
        .tactics
        .keys()
        .map(|s| s.as_str().to_string())
        .collect();
    (engine.prog.clone(), tactics)
}

/// Asserts that linting `prog` yields `code` on proc `item` at command
/// `index` with the expected severity (tolerating co-diagnostics the
/// mutation may also cause).
fn assert_gl05(
    prog: &Prog,
    tactics: &BTreeSet<String>,
    code: &str,
    item: &str,
    index: usize,
    severity: Severity,
) {
    let report = lint_prog(prog, &opts_for(tactics.iter().cloned()));
    let hit = report.diagnostics.iter().find(|d| {
        d.code == code
            && d.span.kind == ItemKind::Proc
            && d.span.item == item
            && d.span.index == Some(index)
    });
    match hit {
        Some(d) => assert_eq!(d.severity, severity, "severity of {code}: {}", d.message),
        None => panic!(
            "expected {code} on proc {item} at command {index}; got:\n{}",
            report.render_text()
        ),
    }
}

fn pvar(s: &str) -> Expr {
    Expr::pvar(s)
}

fn sym(s: &str) -> Symbol {
    Symbol::new(s)
}

// ---------------------------------------------------------------------------
// Seeded-defect corpus: one test per GL05x code
// ---------------------------------------------------------------------------

/// GL051: a compiled overflow check whose guard the fixpoint decides towards
/// the `Fail` arm — `u64::MAX + 1` can never pass `result <= u64::MAX`.
#[test]
fn seeded_defect_guaranteed_overflow_is_gl051() {
    let (mut prog, tactics) = seed_prog();
    let max = u64::MAX as i128;
    prog.procs.get_mut(&sym("new")).unwrap().body = vec![
        Cmd::Assign(sym("n"), Expr::Int(max)),
        Cmd::GotoIf {
            guard: Expr::le(Expr::add(pvar("n"), Expr::Int(1)), Expr::Int(max)),
            then_target: 2,
            else_target: 3,
        },
        Cmd::Return(Expr::Unit),
        Cmd::Fail("attempt to add with overflow".into()),
    ];
    assert_gl05(&prog, &tactics, "GL051", "new", 1, Severity::Error);
}

/// GL052: a division whose divisor is the constant zero on a reachable path.
#[test]
fn seeded_defect_division_by_zero_is_gl052() {
    let (mut prog, tactics) = seed_prog();
    let body = &mut prog.procs.get_mut(&sym("new")).unwrap().body;
    body[0] = Cmd::Assign(
        sym("q"),
        Expr::BinOp(BinOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0))),
    );
    assert_gl05(&prog, &tactics, "GL052", "new", 0, Severity::Error);

    // Remainder is covered by the same code, through a flowed constant.
    let (mut prog, tactics) = seed_prog();
    let body = &mut prog.procs.get_mut(&sym("new")).unwrap().body;
    body[0] = Cmd::Assign(sym("d"), Expr::Int(0));
    body[1] = Cmd::Assign(
        sym("r"),
        Expr::BinOp(BinOp::Rem, Box::new(Expr::Int(7)), Box::new(pvar("d"))),
    );
    assert_gl05(&prog, &tactics, "GL052", "new", 1, Severity::Error);
}

/// GL053: a ghost assertion whose pure part the fixpoint proves false.
#[test]
fn seeded_defect_statically_false_assert_is_gl053() {
    let (mut prog, tactics) = seed_prog();
    let body = &mut prog.procs.get_mut(&sym("new")).unwrap().body;
    body[0] = Cmd::Assign(sym("n"), Expr::Int(3));
    body[1] = Cmd::Logic(LogicCmd::Assert(Asrt::pure(Expr::lt(
        pvar("n"),
        Expr::Int(2),
    ))));
    assert_gl05(&prog, &tactics, "GL053", "new", 1, Severity::Error);
}

/// GL054: a branch guard decided by the analysis where neither arm is a
/// compiled check (`Fail`) — the untaken arm is dead code.
#[test]
fn seeded_defect_constant_branch_guard_is_gl054() {
    let (mut prog, tactics) = seed_prog();
    prog.procs.get_mut(&sym("new")).unwrap().body = vec![
        Cmd::Assign(sym("flag"), Expr::Bool(true)),
        Cmd::GotoIf {
            guard: pvar("flag"),
            then_target: 2,
            else_target: 3,
        },
        Cmd::Return(Expr::Unit),
        Cmd::Return(Expr::Unit),
    ];
    assert_gl05(&prog, &tactics, "GL054", "new", 1, Severity::Warning);
}

/// GL055: a loop whose every exit guard reads only variables the loop body
/// never reassigns — the loop cannot terminate by normal control flow.
#[test]
fn seeded_defect_frozen_loop_guard_is_gl055() {
    let (mut prog, tactics) = seed_prog();
    prog.procs.get_mut(&sym("new")).unwrap().body = vec![
        Cmd::Assign(sym("i"), Expr::Int(0)),
        Cmd::GotoIf {
            guard: Expr::lt(pvar("i"), pvar("n")),
            then_target: 2,
            else_target: 4,
        },
        Cmd::Skip,
        Cmd::Goto(1),
        Cmd::Return(Expr::Unit),
    ];
    assert_gl05(&prog, &tactics, "GL055", "new", 1, Severity::Warning);
}

// ---------------------------------------------------------------------------
// Clean sweep: zero GL05x on every shipped workload, both modes
// ---------------------------------------------------------------------------

fn assert_no_gl05(report: &LintReport, context: &str) {
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.starts_with("GL05"))
        .collect();
    assert!(
        hits.is_empty(),
        "semantic findings on shipped workload {context}:\n{}",
        report.render_text()
    );
}

/// Every Table 1 configuration (both modes where applicable) is free of
/// semantic findings: the GL05x family is only trustworthy as a CI gate if
/// the baseline is spotless.
#[test]
fn clean_sweep_table1_has_no_gl05x() {
    for case in table1_cases(1) {
        let name = case.name;
        let property = case.property;
        let session = case.session();
        assert_no_gl05(&lint_session(&session), &format!("{name} ({property})"));
    }
}

/// Same sweep over the daemon's workload registry (includes `chain`), in
/// both spec modes explicitly.
#[test]
fn clean_sweep_daemon_workloads_have_no_gl05x() {
    for w in WORKLOADS {
        for mode in [SpecMode::TypeSafety, SpecMode::FunctionalCorrectness] {
            let db = ProgramDb::load(w.name, Some(mode), Some(1), None).expect("load");
            let label = format!("{} ({:?})", w.name, mode);
            assert_no_gl05(&lint_session(&db.session), &label);
        }
    }
}

/// The invariant table is exposed on the session, covers every proc of the
/// compiled program, and its fingerprint is stable across rebuilds of the
/// same workload (content-addressed: interning order must not leak in). The
/// table is built on first read, and a proof run before that read leaves it
/// unchanged.
#[test]
fn session_invariants_are_stable_across_rebuilds() {
    let fp = |db: &ProgramDb| db.session.invariants().fingerprint;
    let a = ProgramDb::load("linked_list", None, Some(1), None).expect("load");
    let b = ProgramDb::load("linked_list", None, Some(1), None).expect("load");
    assert_eq!(fp(&a), fp(&b), "invariant fingerprint is not deterministic");
    let c = ProgramDb::load("linked_list", None, Some(1), None).expect("load");
    assert!(c.session.verify_all().all_verified());
    assert_eq!(fp(&c), fp(&a), "a proof run changed the invariant table");
    assert!(
        !a.session.invariants().procs.is_empty(),
        "no procedures analyzed"
    );
    for (name, proc_inv) in &a.session.invariants().procs {
        assert_eq!(name, &proc_inv.name);
        assert!(
            proc_inv.entry.iter().any(|s| s.is_some()),
            "proc {} has no reachable command",
            name.as_str()
        );
    }
}
