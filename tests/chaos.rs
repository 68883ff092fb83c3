//! Chaos suite: the fault-tolerant verification pipeline end to end.
//!
//! Two layers. The *robustness* tests (always compiled) exercise the
//! cooperative per-target deadline and its structured `timeout` reporting.
//! The *injection* tests (behind the `faults` feature) drive seeded fault
//! schedules through full Table 1 sessions and in-process daemon lifetimes
//! and assert the degraded-verdict invariant: under any injected fault, a
//! target's verdict is identical to the fault-free run or explicitly
//! incomplete (unverified with a `panic`/`timeout`/error diagnostic) —
//! never flipped to verified.
//!
//! The fault plan is process-global, so every test in this binary runs
//! under one lock and resets the plan on entry.

use case_studies::{even_int, SpecMode};
use driver::HybridSession;
use gillian_server::json::{parse, Value};
use gillian_server::ServerCore;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serialises the tests of this binary and clears any leftover fault plan
/// (a previous test may have panicked mid-schedule — that poisons the lock,
/// not the plan).
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gillian_faults::clear();
    guard
}

fn even_int_session() -> HybridSession {
    HybridSession::builder()
        .name("EvenInt (chaos)")
        .program(even_int::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(even_int::gilsonite)
        .verify_fns(even_int::FUNCTIONS.iter().copied())
        .workers(1)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Deadlines (always compiled: tier-1 coverage of the timeout path)
// ---------------------------------------------------------------------------

/// A budget no proof can meet: every target fails with a structured
/// `timeout` diagnostic naming the budget — and the batch still reports
/// every case instead of dying on the first one.
#[test]
fn tiny_deadline_times_out_every_target_with_structured_diagnostics() {
    let _guard = exclusive();
    let session = even_int_session().with_target_timeout(Some(Duration::from_nanos(1)));
    let n_targets = session.targets().len();
    let report = session.verify_all();
    assert_eq!(report.cases.len(), n_targets, "the batch completes");
    assert!(!report.all_verified());
    for case in &report.cases {
        assert!(!case.verified(), "{} cannot beat a 1ns budget", case.name());
        let d = case.diagnostic().expect("timeout carries a diagnostic");
        assert_eq!(d.category(), "timeout", "case {}: {d}", case.name());
        assert!(
            d.message().contains("target deadline") && d.message().contains("1ns"),
            "message names the deadline and the budget: {d}"
        );
    }
}

/// A generous budget changes nothing: verdicts and diagnostics are
/// identical to the unbudgeted run.
#[test]
fn generous_deadline_is_invisible() {
    let _guard = exclusive();
    let free = even_int_session().verify_all();
    let budgeted = even_int_session()
        .with_target_timeout(Some(Duration::from_secs(600)))
        .verify_all();
    assert!(free.all_verified(), "EvenInt verifies fault-free");
    assert_eq!(free.cases.len(), budgeted.cases.len());
    for (a, b) in free.cases.iter().zip(budgeted.cases.iter()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.verified(), b.verified(), "verdict of {}", a.name());
    }
}

/// Satellite: timeout diagnostics render in both report formats — the text
/// rendering carries the `[timeout]` tag and the JSON parses with the
/// server's strict parser, category and message intact.
#[test]
fn timeout_diagnostics_render_in_text_and_json() {
    let _guard = exclusive();
    let report = even_int_session()
        .with_target_timeout(Some(Duration::from_nanos(1)))
        .verify_all();
    let text = report.render_text();
    assert!(
        text.contains("[timeout]") && text.contains("target deadline"),
        "text report shows the timeout: {text}"
    );
    let v = parse(&report.to_json()).expect("to_json stays valid JSON under timeouts");
    assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(false));
    for case in v.get("cases").and_then(Value::as_array).unwrap() {
        let d = case.get("diagnostic").expect("every case timed out");
        assert_eq!(d.get("category").and_then(Value::as_str), Some("timeout"));
        assert!(d
            .get("message")
            .and_then(Value::as_str)
            .unwrap()
            .contains("target deadline"));
    }
}

/// The daemon's per-request deadline is scoped to the request: a
/// `timeout_ms` verify may fail targets, but those failures are transient —
/// never retained as warm outcomes — and the next plain verify re-proves
/// them successfully under the restored (unbudgeted) configuration.
#[test]
fn daemon_request_timeout_is_transient_and_restored() {
    let _guard = exclusive();
    let mut core = ServerCore::new();
    let ok = |resp: String| -> Value {
        let v = parse(&resp).expect("daemon responses are valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
        v
    };
    ok(core.handle_line(r#"{"cmd":"load","workload":"chain","mode":"fc"}"#));

    // Under a 1ms budget each target either finishes in time (verified) or
    // times out — either way the verdict must carry cause, never flip.
    let v = ok(core.handle_line(r#"{"cmd":"verify","force":true,"timeout_ms":1}"#));
    for case in v.get("cases").and_then(Value::as_array).unwrap() {
        let verified = case.get("verified").and_then(Value::as_bool).unwrap();
        if !verified {
            let d = case.get("diagnostic").expect("unverified case has a cause");
            let cat = d.get("category").and_then(Value::as_str).unwrap();
            assert!(
                cat == "timeout" || cat == "panic",
                "budgeted failures are explicitly incomplete, got {cat}"
            );
        }
    }

    // The budget did not leak into the session: a plain verify re-proves
    // whatever timed out (transient outcomes were not cached) and the whole
    // workload verifies.
    let v = ok(core.handle_line(r#"{"cmd":"verify"}"#));
    assert_eq!(
        v.get("all_verified").and_then(Value::as_bool),
        Some(true),
        "restored configuration verifies everything: {v:?}"
    );
}

// ---------------------------------------------------------------------------
// Fault injection (the chaos CI job: `--features faults`)
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod injection {
    use super::*;
    use case_studies::table1::table1_cases;
    use gillian_faults::FaultPlan;
    use std::sync::Arc;

    /// The CI seed matrix. `GILLIAN_CHAOS_SEEDS=a,b,c` overrides it for
    /// ad-hoc reproduction of a failing schedule.
    const SEEDS: &[u64] = &[1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

    fn seeds() -> Vec<u64> {
        match std::env::var("GILLIAN_CHAOS_SEEDS") {
            Ok(v) if !v.trim().is_empty() => v
                .split(',')
                .map(|s| s.trim().parse().expect("GILLIAN_CHAOS_SEEDS is numeric"))
                .collect(),
            _ => SEEDS.to_vec(),
        }
    }

    /// One Table 1 row's outcome: (row name, property, and per case its
    /// name, whether it verified, and whether it carries a diagnostic).
    type RowOutcome = (String, String, Vec<(String, bool, bool)>);

    /// (name, verified) per case of one full Table 1 run.
    fn run_table1() -> Vec<RowOutcome> {
        table1_cases(1)
            .into_iter()
            .map(|case| {
                let name = case.name.to_string();
                let property = case.property.to_string();
                let report = case.session().verify_all();
                let cases = report
                    .cases
                    .iter()
                    .map(|c| (c.name().to_string(), c.verified(), c.diagnostic().is_some()))
                    .collect();
                (name, property, cases)
            })
            .collect()
    }

    /// The degraded-verdict invariant, case by case: a faulty run may fail
    /// where the clean run succeeded (with an explicit diagnostic), but may
    /// never verify what the clean run did not — and never drops cases.
    fn assert_never_flipped(clean: &[RowOutcome], faulty: &[RowOutcome], seed: u64) {
        assert_eq!(clean.len(), faulty.len(), "seed {seed}: all rows ran");
        for ((row, prop, c_cases), (_, _, f_cases)) in clean.iter().zip(faulty.iter()) {
            assert_eq!(
                c_cases.len(),
                f_cases.len(),
                "seed {seed}: row {row} ({prop}) completed every case"
            );
            for ((name, c_ok, _), (f_name, f_ok, f_diag)) in c_cases.iter().zip(f_cases.iter()) {
                assert_eq!(name, f_name, "seed {seed}: case order is stable");
                if *f_ok {
                    assert!(
                        c_ok,
                        "seed {seed}: {row}/{name} verified under faults but not fault-free — \
                         a fault flipped a verdict"
                    );
                } else if *c_ok {
                    assert!(
                        f_diag,
                        "seed {seed}: {row}/{name} degraded without a diagnostic"
                    );
                }
            }
        }
    }

    /// Tentpole acceptance: every seeded schedule over the full Table 1
    /// suite preserves the invariant — verdicts identical or explicitly
    /// incomplete, batches always complete.
    #[test]
    fn seeded_schedules_never_flip_table1_verdicts() {
        let _guard = exclusive();
        let clean = run_table1();
        for (_, _, cases) in &clean {
            assert!(
                cases.iter().all(|(_, ok, _)| *ok),
                "Table 1 verifies fault-free"
            );
        }
        for seed in seeds() {
            let plan = FaultPlan::seeded(seed);
            gillian_faults::install(plan.clone());
            let faulty = run_table1();
            gillian_faults::clear();
            assert_never_flipped(&clean, &faulty, seed);
            // And the damage is not sticky: a clean re-run right after the
            // schedule is verdict-identical to the baseline.
            let recovered = run_table1();
            assert_eq!(
                clean,
                recovered,
                "seed {seed} ({}) left persistent damage",
                plan.render()
            );
        }
    }

    /// A panicking proof is isolated: the batch completes, the poisoned
    /// target reports category `panic`, every other target is untouched,
    /// and the next run (plan cleared) verifies everything again.
    #[test]
    fn panicking_target_is_isolated_and_recoverable() {
        let _guard = exclusive();
        gillian_faults::install(FaultPlan::parse("engine.step@10=panic").unwrap());
        let session = even_int_session();
        let n_targets = session.targets().len();
        let report = session.verify_all();
        assert_eq!(gillian_faults::fired(), 1, "the schedule landed");
        assert_eq!(report.cases.len(), n_targets, "the panic aborted nothing");
        let panicked: Vec<_> = report
            .cases
            .iter()
            .filter(|c| c.diagnostic().is_some_and(|d| d.category() == "panic"))
            .collect();
        assert_eq!(panicked.len(), 1, "exactly one target absorbed the panic");
        assert!(
            panicked[0]
                .diagnostic()
                .unwrap()
                .message()
                .contains("injected fault"),
            "the payload survives into the diagnostic"
        );
        for c in &report.cases {
            assert!(
                c.verified() || c.diagnostic().is_some_and(|d| d.category() == "panic"),
                "{} neither verified nor blamed the panic",
                c.name()
            );
        }
        gillian_faults::clear();
        assert!(
            even_int_session().verify_all().all_verified(),
            "recovery: the fault was in the environment, not the program"
        );
    }

    /// Daemon lifetimes under seeded schedules: every request gets a valid
    /// JSON answer (`ok:false` is an acceptable degraded answer; a dead
    /// daemon is not), verdicts obey the invariant, and after the schedule
    /// is cleared the same warm daemon verifies everything — its state was
    /// never corrupted.
    #[test]
    fn daemon_lifetimes_survive_seeded_schedules() {
        let _guard = exclusive();
        let dir = std::env::temp_dir().join(format!("gillian-chaos-daemon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        for seed in seeds() {
            let store = Arc::new(proof_cache::DirStore::new(dir.join(format!("s{seed}"))));
            let mut core = ServerCore::with_store(store);
            gillian_faults::install(FaultPlan::seeded(seed));
            let script = [
                r#"{"cmd":"load","workload":"chain","mode":"fc"}"#,
                r#"{"cmd":"verify"}"#,
                r#"{"cmd":"verify","force":true}"#,
                r#"{"cmd":"stats"}"#,
            ];
            for line in script {
                let resp = core.handle_line(line);
                let v = parse(&resp).unwrap_or_else(|e| {
                    panic!("seed {seed}: `{line}` got unparsable response {resp}: {e:?}")
                });
                let ok = v.get("ok").and_then(Value::as_bool).expect("ok field");
                if !ok {
                    continue; // degraded, not dead — and it said so
                }
                if let Some(cases) = v.get("cases").and_then(Value::as_array) {
                    for case in cases {
                        let verified = case.get("verified").and_then(Value::as_bool).unwrap();
                        assert!(
                            verified || case.get("diagnostic").is_some(),
                            "seed {seed}: unverified case without a cause in {resp}"
                        );
                    }
                }
            }
            gillian_faults::clear();
            // The warm daemon fully recovers once the environment stops
            // failing: chain verifies fault-free. The load is re-issued
            // first — a schedule may have failed the original one, and a
            // real client would retry it; if it did succeed, this is a
            // no-op switch to the already-warm session.
            let resp = core.handle_line(r#"{"cmd":"load","workload":"chain","mode":"fc"}"#);
            assert_eq!(
                parse(&resp).unwrap().get("ok").and_then(Value::as_bool),
                Some(true),
                "seed {seed}: clean re-load succeeds: {resp}"
            );
            let resp = core.handle_line(r#"{"cmd":"verify","force":true}"#);
            let v = parse(&resp).unwrap();
            assert_eq!(
                v.get("ok").and_then(Value::as_bool),
                Some(true),
                "seed {seed}: daemon answers after the schedule: {resp}"
            );
            assert_eq!(
                v.get("all_verified").and_then(Value::as_bool),
                Some(true),
                "seed {seed}: warm state survived the schedule: {resp}"
            );
            let resp = core.handle_line(r#"{"cmd":"shutdown"}"#);
            assert_eq!(
                parse(&resp).unwrap().get("bye").and_then(Value::as_bool),
                Some(true)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a mid-record cache write failure degrades the store to
    /// in-memory-only for that record — verdicts stay cold-identical, and a
    /// fresh process simply re-proves the lost record.
    #[test]
    fn cache_write_fault_degrades_without_changing_verdicts() {
        let _guard = exclusive();
        let dir = std::env::temp_dir().join(format!(
            "gillian-chaos-cache-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        gillian_faults::install(FaultPlan::parse("cache.write@1=err").unwrap());
        let store = Arc::new(proof_cache::DirStore::new(&dir));
        let cold = even_int_session()
            .with_cache(store.clone() as Arc<dyn proof_cache::CacheStore>)
            .verify_all();
        assert!(
            cold.all_verified(),
            "a failing cache write never affects verdicts"
        );
        assert!(store.is_degraded(), "the store noticed the write failure");
        assert!(
            gillian_faults::fired() >= 1,
            "the write fault actually fired"
        );
        gillian_faults::clear();

        // Same process, same store handle: the lost record is served from
        // the in-memory overflow, so the warm run is fully cached.
        let warm = even_int_session()
            .with_cache(store.clone() as Arc<dyn proof_cache::CacheStore>)
            .verify_all();
        assert!(warm.all_verified());
        assert_eq!(
            warm.solver.disk_cache_misses, 0,
            "overflow serves the unwritten record"
        );

        // Fresh process (fresh store handle): the overflow is gone, the
        // lost record is a miss, everything else hits — and verdicts are
        // cold-identical either way.
        let fresh = Arc::new(proof_cache::DirStore::new(&dir));
        let rerun = even_int_session()
            .with_cache(fresh as Arc<dyn proof_cache::CacheStore>)
            .verify_all();
        assert!(rerun.all_verified(), "re-proving the lost record succeeds");
        assert_eq!(
            rerun.solver.disk_cache_misses, 1,
            "exactly the faulted record was lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
