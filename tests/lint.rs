//! Integration tests for `gillian lint`: the seeded-defect mutation corpus
//! (every defect class caught with a stable GLxxx code and span) and the
//! false-positive guard (every shipped workload lints completely clean, in
//! every Table 1 configuration, within the vacuity time budget).

use case_studies::table1::table1_cases;
use case_studies::SpecMode;
use driver::{HybridSession, VerifyDiagnostic};
use gillian_engine::asrt::Asrt;
use gillian_engine::gil::{Cmd, LogicCmd, Prog};
use gillian_lint::{lint_prog, ItemKind, LintOptions, LintReport, Severity};
use gillian_rust::gilsonite::lv;
use gillian_server::{ProgramDb, WORKLOADS};
use gillian_solver::{Expr, Symbol};
use rust_ir::{BodyBuilder, Operand, Place, Program, Ty};
use std::collections::BTreeSet;
use std::time::Duration;

/// Lint options as the driver wires them: tactic registry taken from the
/// engine, everything else default.
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

/// Every shipped Table 1 configuration (both modes where applicable) must
/// produce zero errors *and* zero warnings: the analyzer is only trustworthy
/// as a CI gate if the baseline is spotless.
#[test]
fn false_positive_guard_table1_lints_clean() {
    for case in table1_cases(1) {
        let name = case.name;
        let session = case.session();
        let report = lint_session(&session);
        assert!(
            report.is_clean(),
            "lint findings on shipped workload {name}:\n{}",
            report.render_text()
        );
    }
}

/// Same guard over the daemon's workload registry (includes the `chain`
/// workload, which is not part of Table 1).
#[test]
fn false_positive_guard_daemon_workloads_lint_clean() {
    for w in WORKLOADS {
        let db = ProgramDb::load(w.name, None, Some(1), None).expect("load");
        let report = lint_session(&db.session);
        assert!(
            report.is_clean(),
            "lint findings on daemon workload {}:\n{}",
            w.name,
            report.render_text()
        );
    }
}

/// The vacuity pass must stay within its per-spec budget (100 ms) on every
/// Table 1 target, with the kernel-only backend.
#[test]
fn vacuity_budget_holds_on_table1() {
    for case in table1_cases(1) {
        let name = case.name;
        let session = case.session();
        let report = lint_session(&session);
        assert!(
            report.vacuity_overruns.is_empty(),
            "vacuity overruns on {name}: {:?}",
            report.vacuity_overruns
        );
        assert!(
            report.vacuity_time < Duration::from_secs(2),
            "vacuity pass on {name} took {:?}",
            report.vacuity_time
        );
    }
}

/// A linked-list FC program to mutate: rich enough to contain procs, specs,
/// recursive predicates and ghost commands.
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

/// Asserts that linting `prog` yields a diagnostic with `code` pointing at
/// item `item` (tolerating co-diagnostics the mutation may also cause).
fn assert_flagged(prog: &Prog, tactics: &BTreeSet<String>, code: &str, kind: ItemKind, item: &str) {
    let report = lint_prog(prog, &opts_for(tactics.iter().cloned()));
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.code == code && d.span.kind == kind && d.span.item == item);
    assert!(
        hit.is_some(),
        "expected {code} on {} {item}; got:\n{}",
        kind.label(),
        report.render_text()
    );
}

#[test]
fn seeded_defect_bad_jump_target_is_gl001() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    prog.procs.get_mut(&name).unwrap().body[0] = Cmd::Goto(9999);
    assert_flagged(&prog, &tactics, "GL001", ItemKind::Proc, "new");
    // The span points at the mutated command.
    let report = lint_prog(&prog, &opts_for(tactics.iter().cloned()));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "GL001")
        .unwrap();
    assert_eq!(d.span.index, Some(0));
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn seeded_defect_wrong_fold_arity_is_gl022() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    // dll_seg has 5 parameters (4 ins); folding with one argument is short.
    prog.procs.get_mut(&name).unwrap().body[0] = Cmd::Logic(LogicCmd::Fold(
        Symbol::new("dll_seg"),
        vec![Expr::pvar("self")],
    ));
    assert_flagged(&prog, &tactics, "GL022", ItemKind::Proc, "new");
}

#[test]
fn seeded_defect_unknown_lemma_is_gl023() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    prog.procs.get_mut(&name).unwrap().body[0] =
        Cmd::Logic(LogicCmd::ApplyLemma(Symbol::new("no_such_lemma"), vec![]));
    assert_flagged(&prog, &tactics, "GL023", ItemKind::Proc, "new");
}

#[test]
fn seeded_defect_unknown_tactic_is_gl025() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    prog.procs.get_mut(&name).unwrap().body[0] =
        Cmd::Logic(LogicCmd::Tactic(Symbol::new("warp_drive"), vec![]));
    assert_flagged(&prog, &tactics, "GL025", ItemKind::Proc, "new");
}

#[test]
fn seeded_defect_unsat_precondition_is_gl041() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    let spec = prog.specs.get_mut(&name).expect("spec for new");
    spec.pre = Asrt::Star(vec![
        spec.pre.clone(),
        Asrt::Pure(Expr::lt(Expr::lvar("k"), Expr::Int(5))),
        Asrt::Pure(Expr::lt(Expr::Int(10), Expr::lvar("k"))),
    ]);
    assert_flagged(&prog, &tactics, "GL041", ItemKind::Spec, "new");
}

#[test]
fn seeded_defect_orphaned_logical_var_is_gl028() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    let spec = prog.specs.get_mut(&name).expect("spec for new");
    spec.pre = Asrt::Star(vec![
        spec.pre.clone(),
        Asrt::Observation(Expr::lt(Expr::lvar("orphan"), Expr::Int(3))),
    ]);
    assert_flagged(&prog, &tactics, "GL028", ItemKind::Spec, "new");
    let report = lint_prog(&prog, &opts_for(tactics.iter().cloned()));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "GL028")
        .unwrap();
    assert!(d.message.contains("#orphan"), "{}", d.message);
}

/// A one-function session whose spec is shaped by `requires`: the vehicle for
/// driving the session-level lint gate.
fn id_session(requires: Vec<Expr>, deny: bool) -> HybridSession {
    let mut program = Program::new("lint-gate");
    let mut b = BodyBuilder::new("id", vec![("x", Ty::usize())], Ty::usize());
    b.ret_val(Operand::copy(Place::local("x")));
    let f = b.finish();
    program.add_fn(f.clone());
    let mut builder = HybridSession::builder()
        .name("lint-gate")
        .program(program)
        .mode(SpecMode::FunctionalCorrectness)
        .configure(move |g| {
            let spec = g.fn_spec(&f, requires, vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
            g.add_spec(spec);
        })
        .verify_fn("id");
    if deny {
        builder = builder.lint_deny();
    }
    builder.build().expect("session builds")
}

/// An unsatisfiable precondition is a lint *error*: `verify_all` must refuse
/// to start proof search, failing every case with a lint diagnostic, and the
/// report must carry the findings in text and JSON.
#[test]
fn session_gate_unsat_precondition_fails_fast() {
    let session = id_session(
        vec![
            Expr::lt(lv("x_repr"), Expr::Int(5)),
            Expr::lt(Expr::Int(10), lv("x_repr")),
        ],
        false,
    );
    let lint = session.lint_report().expect("lint ran at build time");
    assert!(lint.has_errors(), "{}", lint.render_text());
    let report = session.verify_all();
    assert!(!report.all_verified());
    assert!(report.lints.iter().any(|d| d.code == "GL041"));
    let case = report.case("id").unwrap();
    assert!(matches!(
        case.diagnostic(),
        Some(VerifyDiagnostic::Lint { .. })
    ));
    assert!(
        report.render_text().contains("GL041"),
        "{}",
        report.render_text()
    );
    assert!(report.to_json().contains("\"code\":\"GL041\""));
}

/// A warn-only finding (orphaned logical variable) does not block by default
/// — the batch verifies and the warning rides along on the report — but
/// `lint_deny` promotes it to a gate failure.
#[test]
fn session_gate_warnings_block_only_under_deny() {
    let requires = vec![Expr::lt(lv("orphan"), Expr::Int(3))];
    let session = id_session(requires.clone(), false);
    let report = session.verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert!(
        report.lints.iter().any(|d| d.code == "GL028"),
        "{}",
        report.render_text()
    );

    let denying = id_session(requires, true);
    let report = denying.verify_all();
    assert!(!report.all_verified());
    assert!(matches!(
        report.case("id").unwrap().diagnostic(),
        Some(VerifyDiagnostic::Lint { .. })
    ));
}

/// `lint_allow` suppresses a code end-to-end; `lint(false)` disables the
/// analyzer entirely.
#[test]
fn session_gate_allow_and_disable_knobs() {
    let mut program = Program::new("lint-knobs");
    let mut b = BodyBuilder::new("id", vec![("x", Ty::usize())], Ty::usize());
    b.ret_val(Operand::copy(Place::local("x")));
    let f = b.finish();
    program.add_fn(f.clone());
    let requires = vec![Expr::lt(lv("orphan"), Expr::Int(3))];
    let session = HybridSession::builder()
        .name("lint-knobs")
        .program(program)
        .mode(SpecMode::FunctionalCorrectness)
        .configure(move |g| {
            let spec = g.fn_spec(&f, requires, vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
            g.add_spec(spec);
        })
        .verify_fn("id")
        .lint_allow(["GL028"])
        .lint_deny()
        .build()
        .expect("session builds");
    let report = session.verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert!(report.lints.is_empty());

    let disabled = id_session(vec![], false);
    assert!(disabled.lint_report().is_some());
    let off = {
        let mut program = Program::new("lint-off");
        let mut b = BodyBuilder::new("id", vec![("x", Ty::usize())], Ty::usize());
        b.ret_val(Operand::copy(Place::local("x")));
        let f = b.finish();
        program.add_fn(f.clone());
        HybridSession::builder()
            .name("lint-off")
            .program(program)
            .mode(SpecMode::FunctionalCorrectness)
            .configure(move |g| {
                let spec = g.fn_spec(&f, vec![], vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
                g.add_spec(spec);
            })
            .verify_fn("id")
            .lint(false)
            .build()
            .expect("session builds")
    };
    assert!(off.lint_report().is_none());
    assert!(off.verify_all().all_verified());
}

#[test]
fn seeded_defect_unreachable_and_fall_off_are_flagged() {
    let (mut prog, tactics) = seed_prog();
    let name = Symbol::new("new");
    // Append a command after the final return: unreachable.
    prog.procs.get_mut(&name).unwrap().body.push(Cmd::Skip);
    assert_flagged(&prog, &tactics, "GL002", ItemKind::Proc, "new");
    // Truncate the body behind a fall-through command: falls off the end.
    let (mut prog, _) = seed_prog();
    let body = &mut prog.procs.get_mut(&name).unwrap().body;
    body.truncate(1);
    if matches!(body[0], Cmd::Return(_) | Cmd::Fail(_) | Cmd::Goto(_)) {
        body[0] = Cmd::Skip;
    }
    assert_flagged(&prog, &tactics, "GL003", ItemKind::Proc, "new");
}
