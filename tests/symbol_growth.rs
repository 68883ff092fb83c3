//! The process-wide symbol table must stop growing once a workload has run.
//!
//! Symbols are interned for good (`Symbol::new` leaks each new name), so a
//! verifier that mints new logical-variable names on every proof grows the
//! table, and the process, without bound. Fresh names are numbered per
//! engine; a fresh session therefore repeats the names of the one before.
//! Names a daemon client sends are looked up, never interned, unless they
//! name an item of the loaded program.
//!
//! These tests live in their own binary: other tests intern symbols from
//! concurrent threads, which would move the probe. The tests here take
//! turns through [`SERIAL`] for the same reason.

use case_studies::{linked_list, SpecMode};
use gillian_server::ServerCore;
use gillian_solver::Symbol;
use std::sync::{Mutex, MutexGuard};

/// Held by each test for its whole run, so no two tests intern at once.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // The guarded value is `()`: a test that panicked left nothing half
    // updated, so a poisoned lock is still good to take.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The number of symbols `f` interns. Each `label` must be unique, so that
/// both probes are new names.
fn symbols_interned_by(label: &str, f: impl FnOnce()) -> u32 {
    let before = Symbol::new(&format!("symbol_growth probe before {label}")).index();
    f();
    let after = Symbol::new(&format!("symbol_growth probe after {label}")).index();
    after - before - 1
}

/// Builds and verifies a fresh serial LinkedList FC session over the full
/// API.
fn verify_fresh_session() {
    let session =
        linked_list::session_for(SpecMode::FunctionalCorrectness, linked_list::FUNCTIONS_FULL)
            .with_workers(1);
    let report = session.verify_all();
    assert!(
        report.cases.iter().all(|c| c.verified()),
        "the LinkedList FC full API verifies"
    );
}

#[test]
fn a_second_fresh_session_interns_no_new_symbols() {
    let _serial = serial();
    verify_fresh_session();
    let grown = symbols_interned_by("the second session", verify_fresh_session);
    assert_eq!(grown, 0, "the second session interned {grown} new symbols");
}

#[test]
fn unknown_update_fn_names_intern_no_symbols() {
    let _serial = serial();
    let mut core = ServerCore::new();
    let loaded = core.handle_line(r#"{"cmd":"load","workload":"chain","workers":1}"#);
    assert!(loaded.contains(r#""ok":true"#), "{loaded}");
    let grown = symbols_interned_by("the unknown update_fn names", || {
        for i in 0..100 {
            let line = format!(r#"{{"cmd":"update_fn","fn":"symbol_growth_unknown_fn_{i}"}}"#);
            let reply = core.handle_line(&line);
            assert!(reply.contains("unknown function"), "{reply}");
        }
    });
    assert_eq!(
        grown, 0,
        "100 unknown update_fn names interned {grown} symbols"
    );
}
