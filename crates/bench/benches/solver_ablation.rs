//! Solver-backend ablation over the Table 1 suite.
//!
//! Re-runs every Table 1 session under each in-repo [`BackendKind`] —
//! one-shot (re-simplify everything per query, the reference),
//! incremental-state (persistent theory state, uncached) and
//! cached-incremental (canonical `TermId`-set query cache over the
//! incremental state, the default) — and compares wall time, query counts,
//! raw leaf-case explorations and verdicts.
//!
//! The run **asserts** the redesign's contract: identical verdicts across
//! all backends, and strictly fewer leaf-case explorations for the cached
//! incremental backend than for one-shot. Results are written to
//! `BENCH_solver.json` at the workspace root (uploaded as a CI artifact by
//! the bench-smoke job).
//!
//! When an external SMT solver is probed (z3/cvc5 on `PATH`, or
//! `GILLIAN_SMT`), the run gains an **smtlib column**: the same suite under
//! [`BackendKind::SmtLib`] (kernel + external process), included in the
//! verdict-identity contract and reported with its external query counters.
//!
//! `BENCH_QUICK=1` runs a reduced suite (first two rows, still asserting
//! the contract) so CI stays fast.

use case_studies::table1::{table1_cases, Table1Row};
use driver::{BackendKind, SolverStats};
use gillian_solver::smtlib;
use std::time::{Duration, Instant};

struct BackendRun {
    kind: BackendKind,
    wall: Duration,
    solver: SolverStats,
    rows: Vec<Table1Row>,
}

fn run_backend(kind: BackendKind, quick: bool) -> BackendRun {
    let mut cases = table1_cases(1);
    if quick {
        cases.truncate(2);
    }
    let start = Instant::now();
    let mut solver = SolverStats::default();
    let mut rows = Vec::new();
    for case in cases {
        let (name, property, aloc) = (case.name, case.property, case.aloc);
        let session = case.session().with_backend(kind);
        let eloc = session.verifier().types.program.executable_lines();
        let report = session.verify_all();
        let s = report.solver;
        solver.unsat_queries += s.unsat_queries;
        solver.entailment_queries += s.entailment_queries;
        solver.cases_explored += s.cases_explored;
        solver.cache_hits += s.cache_hits;
        solver.smt_queries += s.smt_queries;
        solver.smt_unsat += s.smt_unsat;
        solver.smt_failures += s.smt_failures;
        solver.kernel_nanos += s.kernel_nanos;
        solver.incremental_hits += s.incremental_hits;
        rows.push(Table1Row::from_report(name, property, eloc, aloc, report));
    }
    BackendRun {
        kind,
        wall: start.elapsed(),
        solver,
        rows,
    }
}

/// Per-target verdict fingerprint of a run, used for the identity check.
fn verdicts(run: &BackendRun) -> Vec<(String, bool)> {
    run.rows
        .iter()
        .flat_map(|row| {
            let prefix = format!("{}/{}", row.name, row.property);
            row.reports
                .iter()
                .map(move |r| (format!("{prefix}::{}", r.name), r.verified))
        })
        .collect()
}

fn to_json(runs: &[BackendRun], quick: bool, identical: bool, strictly_fewer: bool) -> String {
    let mut out = String::from("{");
    out.push_str("\"suite\":\"table1\",");
    out.push_str(&format!("\"quick\":{quick},"));
    out.push_str(&format!("\"smt_available\":{},", smtlib::available()));
    out.push_str(&format!("\"verdicts_identical\":{identical},"));
    out.push_str(&format!(
        "\"cached_fewer_leaf_cases_than_one_shot\":{strictly_fewer},"
    ));
    out.push_str("\"backends\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"backend\":\"{}\",\"wall_seconds\":{:.6},\"unsat_queries\":{},\"entailment_queries\":{},\"cases_explored\":{},\"cache_hits\":{},\"incremental_hits\":{},\"kernel_nanos\":{},\"smt_queries\":{},\"smt_unsat\":{},\"smt_failures\":{},\"rows\":[",
            run.kind,
            run.wall.as_secs_f64(),
            run.solver.unsat_queries,
            run.solver.entailment_queries,
            run.solver.cases_explored,
            run.solver.cache_hits,
            run.solver.incremental_hits,
            run.solver.kernel_nanos,
            run.solver.smt_queries,
            run.solver.smt_unsat,
            run.solver.smt_failures,
        ));
        for (j, row) in run.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"property\":\"{}\",\"all_verified\":{},\"seconds\":{:.6}}}",
                row.name,
                row.property,
                row.all_verified,
                row.time.as_secs_f64(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    println!(
        "== solver_ablation (Table 1 suite{}) ==",
        if quick { ", quick" } else { "" }
    );

    // The SMT column joins the ablation only when an external solver is
    // actually present; the kernel-only fallback would just duplicate the
    // cached-incremental column.
    let mut kinds: Vec<BackendKind> = BackendKind::ALL.to_vec();
    if smtlib::available() {
        kinds.push(BackendKind::SmtLib);
    } else {
        println!("  (no external SMT solver probed; smtlib column skipped)");
    }
    let runs: Vec<BackendRun> = kinds
        .into_iter()
        .map(|kind| {
            let run = run_backend(kind, quick);
            println!(
                "  {:<20} wall {:>8.3}s  queries {:>6}  leaf cases {:>7}  cache hits {:>6}  smt {:>4} asked / {:>4} unsat / {:>3} failed",
                run.kind.label(),
                run.wall.as_secs_f64(),
                run.solver.queries(),
                run.solver.cases_explored,
                run.solver.cache_hits,
                run.solver.smt_queries,
                run.solver.smt_unsat,
                run.solver.smt_failures,
            );
            run
        })
        .collect();

    // Contract 1: identical verdicts whatever the backend (compared for
    // *identity*, so a future failing row would have to fail identically
    // under every backend; since the LP/FC fix the whole suite verifies).
    let reference = verdicts(&runs[0]);
    let identical = runs.iter().all(|r| verdicts(r) == reference);
    assert!(identical, "backends disagree on Table 1 verdicts");

    // Contract 2: the cached incremental backend answers strictly fewer raw
    // leaf-case explorations than one-shot.
    let one_shot = runs
        .iter()
        .find(|r| r.kind == BackendKind::OneShot)
        .unwrap();
    let cached = runs
        .iter()
        .find(|r| r.kind == BackendKind::CachedIncremental)
        .unwrap();
    let strictly_fewer = cached.solver.cases_explored < one_shot.solver.cases_explored;
    assert!(
        strictly_fewer,
        "cached incremental explored {} leaf cases, one-shot {} — expected strictly fewer",
        cached.solver.cases_explored, one_shot.solver.cases_explored
    );

    let json = to_json(&runs, quick, identical, strictly_fewer);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(path, &json).expect("write BENCH_solver.json");
    println!("  verdicts identical across backends: {identical}");
    println!(
        "  cached leaf cases {} < one-shot leaf cases {}: {strictly_fewer}",
        cached.solver.cases_explored, one_shot.solver.cases_explored
    );
    println!("  wrote {path}");
}
