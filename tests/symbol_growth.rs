//! The process-wide symbol table must stop growing once a workload has run.
//!
//! Symbols are interned for good (`Symbol::new` leaks each new name), so a
//! verifier that mints new logical-variable names on every proof grows the
//! table, and the process, without bound. Fresh names are numbered per
//! engine; a fresh session therefore repeats the names of the one before.
//!
//! This test lives in its own binary: other tests intern symbols from
//! concurrent threads, which would move the probe.

use case_studies::{linked_list, SpecMode};
use gillian_solver::Symbol;

/// Builds and verifies a fresh serial LinkedList FC session over the full
/// API.
fn verify_fresh_session() {
    let session =
        linked_list::session_for(SpecMode::FunctionalCorrectness, linked_list::FUNCTIONS_FULL)
            .with_workers(1)
            .with_branch_parallelism(1);
    let report = session.verify_all();
    assert!(
        report.cases.iter().all(|c| c.verified()),
        "the LinkedList FC full API verifies"
    );
}

#[test]
fn a_second_fresh_session_interns_no_new_symbols() {
    verify_fresh_session();
    let before = Symbol::new("symbol_growth probe before the second session").index();
    verify_fresh_session();
    let after = Symbol::new("symbol_growth probe after the second session").index();
    assert_eq!(
        after - before - 1,
        0,
        "the second session interned {} new symbols",
        after - before - 1
    );
}
