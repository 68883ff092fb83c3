//! Integration tests of the `HybridSession` front door: the Pearlite →
//! Gilsonite extern-spec round trip, parallel/serial determinism, and the
//! full Table 1 batch through `verify_all` with multiple workers.

use case_studies::table1::{table1, table1_cases, table1_with_workers};
use case_studies::{even_int, linked_list, SpecMode};
use creusot_lite::{elaborate, ExternSpecs};
use driver::{BackendKind, HybridSession};
use gillian_rust::gilsonite::lv;
use gillian_rust::verifier::VerifyDiagnostic;
use gillian_solver::{Expr, Symbol};

/// Builds the LinkedList session with its Pearlite extern specs installed
/// through the builder (the hybrid bridge inside the API).
fn linked_list_hybrid_session() -> HybridSession {
    HybridSession::builder()
        .name("LinkedList (hybrid)")
        .program(linked_list::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(linked_list::gilsonite)
        .extern_specs(ExternSpecs::linked_list())
        .verify_fns(linked_list::FUNCTIONS.iter().copied())
        .build()
        .expect("hybrid session builds")
}

/// The same session, with the extern specs elaborated *by hand* in a
/// configure step — the reference path the builder must reproduce.
fn linked_list_manual_session() -> HybridSession {
    HybridSession::builder()
        .name("LinkedList (manual elaboration)")
        .program(linked_list::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(linked_list::gilsonite)
        .configure(|g| {
            for (name, hspec) in ExternSpecs::linked_list().iter() {
                let f = g.types.program.function(name).unwrap().clone();
                let requires: Vec<_> = hspec.requires.iter().map(elaborate).collect();
                let ensures: Vec<_> = hspec.ensures.iter().map(elaborate).collect();
                let spec = g.fn_spec(&f, requires, ensures);
                g.add_spec(spec);
            }
        })
        .verify_fns(linked_list::FUNCTIONS.iter().copied())
        .build()
        .expect("manual session builds")
}

/// Round trip over EVERY entry of `ExternSpecs::linked_list()`: the specs the
/// builder installs through `extern_specs` are exactly the ones produced by
/// elaborating each Pearlite term and registering it by hand.
#[test]
fn extern_spec_elaboration_round_trips_for_every_linked_list_entry() {
    let registry = ExternSpecs::linked_list();
    assert_eq!(registry.len(), 3, "the Fig. 7 registry covers the full API");
    let via_builder = linked_list_hybrid_session();
    let via_manual = linked_list_manual_session();
    for (name, _) in registry.iter() {
        let sym = Symbol::new(name);
        let auto = via_builder
            .verifier()
            .engine
            .prog
            .spec(sym)
            .unwrap_or_else(|| panic!("builder installed no spec for {name}"));
        let manual = via_manual
            .verifier()
            .engine
            .prog
            .spec(sym)
            .unwrap_or_else(|| panic!("manual path installed no spec for {name}"));
        assert_eq!(auto.pre, manual.pre, "precondition of {name} round-trips");
        assert_eq!(
            auto.posts, manual.posts,
            "postconditions of {name} round-trip"
        );
    }
}

/// The hybrid session still discharges its obligations: the elaborated
/// extern specs are equivalent to the hand-written Gilsonite ones.
#[test]
fn hybrid_session_verifies_with_elaborated_specs() {
    let report = linked_list_hybrid_session().verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
}

/// A session whose batch contains both passing and failing obligations,
/// mirroring real mixed workloads.
fn mixed_even_int_session(workers: usize) -> HybridSession {
    HybridSession::builder()
        .name("EvenInt (mixed)")
        .program(even_int::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(even_int::gilsonite)
        .configure(|g| {
            // Deliberately break add_two's postcondition (adds 3, not 2).
            let add_two = g.types.program.function("add_two").unwrap().clone();
            let wrong = g.fn_spec(
                &add_two,
                vec![Expr::le(lv("self_cur"), Expr::Int(1000))],
                vec![Expr::eq(
                    lv("self_fin"),
                    Expr::add(lv("self_cur"), Expr::Int(3)),
                )],
            );
            g.add_spec(wrong);
        })
        .verify_fns(even_int::FUNCTIONS.iter().copied())
        .workers(workers)
        .build()
        .unwrap()
}

/// Determinism: `verify_all` with 1 worker and with N workers produces
/// identical verdicts and identical structured diagnostics (fingerprints
/// normalise freshened logical-variable counters, which differ between runs
/// without affecting meaning).
#[test]
fn verify_all_is_deterministic_across_worker_counts() {
    let serial = mixed_even_int_session(1).verify_all();
    let parallel = mixed_even_int_session(4).verify_all();
    assert_eq!(serial.cases.len(), parallel.cases.len());
    for (s, p) in serial.cases.iter().zip(parallel.cases.iter()) {
        assert_eq!(s.name(), p.name(), "case order is registration order");
        assert_eq!(s.verified(), p.verified(), "verdict of {}", s.name());
        let fp = |c: &driver::CaseOutcome| c.diagnostic().map(|d| d.fingerprint());
        assert_eq!(fp(s), fp(p), "diagnostic of {}", s.name());
    }
    // The mixed batch really does mix outcomes.
    assert!(!serial.all_verified());
    assert!(serial.verified_count() >= 1);
}

/// Acceptance: the full Table 1 batch through `HybridSession::verify_all`
/// with ≥2 workers produces the same 6 verdict rows as the serial path, and
/// a deliberately-failing spec yields a structured (non-string) diagnostic.
#[test]
fn table1_parallel_batch_matches_serial_rows() {
    let serial = table1();
    let parallel = table1_with_workers(2);
    assert_eq!(serial.len(), 6);
    assert_eq!(parallel.len(), 6);
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.property, p.property);
        assert_eq!(s.eloc, p.eloc);
        assert_eq!(s.aloc, p.aloc);
        assert_eq!(
            s.all_verified, p.all_verified,
            "row {} ({})",
            s.name, s.property
        );
        assert_eq!(s.reports.len(), p.reports.len());
        for (sr, pr) in s.reports.iter().zip(p.reports.iter()) {
            assert_eq!(sr.name, pr.name);
            assert_eq!(
                sr.verified, pr.verified,
                "case {} of row {}",
                sr.name, s.name
            );
        }
    }

    // The deliberately-failing spec: a structured diagnostic, not a string.
    let failing = mixed_even_int_session(2).verify_all();
    let case = failing.case("add_two").expect("add_two is in the batch");
    assert!(!case.verified());
    match case.diagnostic().expect("structured diagnostic attached") {
        VerifyDiagnostic::SpecMismatch { message } => {
            assert!(!message.is_empty());
        }
        other => panic!("expected a spec-mismatch diagnostic, got {other:?}"),
    }
}

/// Table 1 at 1 and 4 obligation workers: identical verdicts, diagnostic
/// fingerprints and kernel leaf cases, row by row. Every row owns its
/// solver hub, and every query is answered from its own context's
/// assertion stack (no answer crosses obligations), so the leaf-case count
/// is exact whatever the interleaving.
#[test]
fn table1_is_deterministic_across_obligation_worker_counts() {
    type Row = (String, Vec<(String, bool, Option<String>)>, u64);
    let run = |workers: usize| -> Vec<Row> {
        table1_cases(workers)
            .into_iter()
            .map(|case| {
                let row = format!("{}/{}", case.name, case.property);
                let report = case.session().verify_all();
                let cases = report
                    .cases
                    .iter()
                    .map(|c| {
                        let fp = c.diagnostic().map(|d| d.fingerprint());
                        (c.name().to_string(), c.verified(), fp)
                    })
                    .collect();
                (row, cases, report.solver.cases_explored)
            })
            .collect()
    };
    let one = run(1);
    assert_eq!(one.len(), 6);
    for (row, cases, _) in &one {
        assert!(cases.iter().all(|c| c.1), "row {row} verifies");
    }
    assert_eq!(run(4), one);
}

/// The JSON rendering of a mixed report carries the diagnostic categories.
#[test]
fn report_json_includes_diagnostics() {
    let report = mixed_even_int_session(2).verify_all();
    let json = report.to_json();
    assert!(json.contains("\"diagnostic\""));
    assert!(json.contains("\"category\":\"spec-mismatch\""));
    assert!(json.contains("\"all_verified\":false"));
}

/// The engine's live-branch high-water mark reaches both renderings of the
/// report.
#[test]
fn max_live_branches_is_reported_in_text_and_json() {
    let report = mixed_even_int_session(1).verify_all();
    let live = report.stats.max_live_branches;
    assert!(live >= 1, "at least the root branch was live");
    let text = report.render_text();
    assert!(
        text.contains(&format!("{live} max live branches")),
        "{text}"
    );
    let json = report.to_json();
    assert!(
        json.contains(&format!("\"max_live_branches\":{live}")),
        "{json}"
    );
}

/// Every solver backend produces the same verdicts and diagnostics on the
/// same mixed batch: the backends differ in work, never in answers.
#[test]
fn backends_agree_on_mixed_batch_verdicts() {
    let reference = mixed_even_int_session(1).verify_all();
    for kind in BackendKind::ALL {
        let report = mixed_even_int_session(1).with_backend(kind).verify_all();
        assert_eq!(report.backend, kind, "report names its backend");
        assert_eq!(report.cases.len(), reference.cases.len());
        for (r, s) in report.cases.iter().zip(reference.cases.iter()) {
            assert_eq!(r.name(), s.name());
            assert_eq!(
                r.verified(),
                s.verified(),
                "{kind}: verdict of {}",
                r.name()
            );
            let fp = |c: &driver::CaseOutcome| c.diagnostic().map(|d| d.fingerprint());
            assert_eq!(fp(r), fp(s), "{kind}: diagnostic of {}", r.name());
        }
    }
}

/// The full Table 1 suite under every in-repo backend: verdicts and
/// diagnostic fingerprints are identical target by target, and the
/// incremental-state backend explores strictly fewer kernel leaf cases over
/// the suite than the one-shot reference. The smtlib column of the same
/// identity is `table1_verdicts_identical_under_smtlib` in
/// `tests/smt_backend.rs`, which needs a real solver.
#[test]
fn table1_verdicts_identical_under_every_backend() {
    type Outcome = (String, bool, Option<String>);
    let run = |kind: BackendKind| -> (Vec<Outcome>, u64) {
        let mut outcomes = Vec::new();
        let mut leaf_cases = 0;
        for case in table1_cases(1) {
            let row = format!("{}/{}", case.name, case.property);
            let report = case.session().with_backend(kind).verify_all();
            assert_eq!(report.backend, kind, "{row}: report names its backend");
            leaf_cases += report.solver.cases_explored;
            outcomes.extend(report.cases.iter().map(|c| {
                (
                    format!("{row}::{}", c.name()),
                    c.verified(),
                    c.diagnostic().map(|d| d.fingerprint()),
                )
            }));
        }
        (outcomes, leaf_cases)
    };
    let (reference, one_shot) = run(BackendKind::OneShot);
    for kind in BackendKind::ALL {
        if kind == BackendKind::OneShot {
            continue;
        }
        let (outcomes, leaf_cases) = run(kind);
        assert_eq!(
            outcomes, reference,
            "{kind} disagrees with one-shot on Table 1"
        );
        if kind == BackendKind::IncrementalState {
            assert!(
                leaf_cases < one_shot,
                "incremental-state explored {leaf_cases} Table 1 leaf cases, one-shot {one_shot}: expected strictly fewer"
            );
        }
    }
}

/// The session-level backend selector works both at build time and on a
/// built session, and the report carries per-backend solver statistics.
#[test]
fn backend_selector_and_solver_stats_are_reported() {
    let session = HybridSession::builder()
        .name("LinkedList (one-shot)")
        .program(linked_list::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(linked_list::gilsonite)
        .extern_specs(ExternSpecs::linked_list())
        .verify_fns(linked_list::FUNCTIONS.iter().copied())
        .backend(BackendKind::OneShot)
        .build()
        .unwrap();
    assert_eq!(session.backend(), BackendKind::OneShot);
    let report = session.verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert_eq!(report.backend, BackendKind::OneShot);
    assert!(report.solver.queries() > 0, "queries are counted");
    assert!(report.to_json().contains("\"backend\":\"one-shot\""));

    // Swapping the backend on the built session re-runs on a fresh hub.
    let default = linked_list_hybrid_session()
        .with_backend(BackendKind::default())
        .verify_all();
    assert!(default.all_verified());
    assert_eq!(default.backend, BackendKind::IncrementalState);
    // Never more raw work than the baseline; the *strictly*-fewer contract
    // over the whole Table 1 suite is
    // `table1_verdicts_identical_under_every_backend`.
    assert!(default.solver.cases_explored <= report.solver.cases_explored);
}
