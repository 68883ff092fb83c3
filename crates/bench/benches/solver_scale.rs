//! Synthetic solver stress suites for the incremental-state backend.
//!
//! Three workloads drive [`gillian_solver::SolverCtx`] directly, mimicking
//! the query shapes the symbolic-execution engine produces at scale:
//!
//! * **straight-line** — a long chain of unit equalities/bounds with a
//!   feasibility check after every assert (the engine's `assume` pattern)
//!   and periodic entailments. The pathological case for per-query
//!   recomputation: the one-shot reference pays one full kernel run per
//!   query, the incremental state answers from the maintained closure.
//! * **case-splits** — wide and nested disjunctions interleaved with unit
//!   facts: measures the disjunct-only re-split plus decomposition memo.
//! * **push-pop tower** — deep branch-scope nesting with checks on the way
//!   down *and* up: measures O(changes) trail undo vs O(context) restores.
//!
//! The run **asserts** the incremental state's headline contract: on the
//! straight-line suite the incremental-state backend explores **≥5× fewer
//! leaf cases** than the one-shot reference. Results go to
//! `BENCH_solver_scale.json` at the workspace root (uploaded by the CI
//! bench-smoke job). `BENCH_QUICK=1` shrinks the suites.

use gillian_solver::{BackendKind, Expr, Solver, SolverStats};
use std::time::{Duration, Instant};

fn var(prefix: &str, i: usize) -> Expr {
    Expr::lvar(&format!("{prefix}{i}"))
}

struct Row {
    backend: BackendKind,
    wall: Duration,
    stats: SolverStats,
}

struct Suite {
    name: &'static str,
    rows: Vec<Row>,
}

/// Runs one workload under one backend with a fresh hub and row-scoped
/// counters.
fn run(kind: BackendKind, work: &impl Fn(&gillian_solver::SolverCtx)) -> Row {
    let hub = Solver::with_backend(kind);
    let ctx = hub.ctx();
    let start = Instant::now();
    work(&ctx);
    Row {
        backend: kind,
        wall: start.elapsed(),
        stats: hub.stats(),
    }
}

fn straight_line(n: usize) -> impl Fn(&gillian_solver::SolverCtx) {
    move |ctx| {
        for i in 0..n {
            ctx.assert_expr(&Expr::eq(
                var("x", i + 1),
                Expr::add(var("x", i), Expr::Int(1)),
            ));
            assert!(!ctx.check_unsat(), "the chain is satisfiable");
            if i % 8 == 7 {
                // An equality chain: substitution makes any distance exact
                // on every backend.
                assert!(ctx.entails(&Expr::lt(var("x", i - 6), var("x", i + 1))));
            }
        }
    }
}

fn case_splits(k: usize, units: usize) -> impl Fn(&gillian_solver::SolverCtx) {
    move |ctx| {
        for i in 0..k {
            ctx.assert_expr(&Expr::or(
                Expr::eq(var("b", i), Expr::Int(0)),
                Expr::eq(var("b", i), Expr::Int(1)),
            ));
            for j in 0..units {
                ctx.assert_expr(&Expr::le(var("u", i * units + j), Expr::Int(7)));
            }
            assert!(!ctx.check_unsat(), "all combinations are satisfiable");
        }
        // A nested split on top of the wide ones.
        ctx.push();
        ctx.assert_expr(&Expr::or(
            Expr::or(
                Expr::eq(var("c", 0), Expr::Int(0)),
                Expr::eq(var("c", 0), Expr::Int(1)),
            ),
            Expr::eq(var("c", 0), Expr::Int(2)),
        ));
        assert!(!ctx.check_unsat());
        // And a refutable overlay: every case conflicts with a unit bound.
        ctx.assert_expr(&Expr::lt(var("b", 0), Expr::Int(0)));
        ctx.assert_expr(&Expr::gt(var("b", 0), Expr::Int(1)));
        assert!(ctx.check_unsat(), "b0 has no value left");
        ctx.pop();
    }
}

fn push_pop_tower(depth: usize) -> impl Fn(&gillian_solver::SolverCtx) {
    move |ctx| {
        for d in 1..=depth {
            ctx.push();
            ctx.assert_expr(&Expr::eq(
                var("t", d),
                Expr::add(var("t", d - 1), Expr::Int(1)),
            ));
            ctx.assert_expr(&Expr::le(var("s", d), var("s", d - 1)));
            assert!(!ctx.check_unsat());
        }
        for _ in 0..depth {
            ctx.pop();
            assert!(!ctx.check_unsat());
        }
    }
}

fn run_suite(
    name: &'static str,
    kinds: &[BackendKind],
    work: impl Fn(&gillian_solver::SolverCtx),
) -> Suite {
    let rows: Vec<Row> = kinds.iter().map(|&k| run(k, &work)).collect();
    println!("  -- {name}");
    for r in &rows {
        println!(
            "  {:<20} wall {:>8.3}s  queries {:>6}  leaf cases {:>8}  incr hits {:>6}  kernel {:>7.3}s",
            r.backend.label(),
            r.wall.as_secs_f64(),
            r.stats.queries(),
            r.stats.cases_explored,
            r.stats.incremental_hits,
            r.stats.kernel_nanos as f64 / 1e9,
        );
    }
    Suite { name, rows }
}

fn to_json(suites: &[Suite], quick: bool, ratio: f64, ratio_ok: bool) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"quick\":{quick},"));
    out.push_str(&format!(
        "\"straight_line_leaf_ratio_one_shot_over_incremental\":{ratio:.2},"
    ));
    out.push_str(&format!("\"ratio_target_5x_met\":{ratio_ok},"));
    out.push_str("\"suites\":[");
    for (i, s) in suites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"suite\":\"{}\",\"rows\":[", s.name));
        for (j, r) in s.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"backend\":\"{}\",\"wall_seconds\":{:.6},\"unsat_queries\":{},\"entailment_queries\":{},\"cases_explored\":{},\"cache_hits\":{},\"incremental_hits\":{},\"kernel_nanos\":{}}}",
                r.backend,
                r.wall.as_secs_f64(),
                r.stats.unsat_queries,
                r.stats.entailment_queries,
                r.stats.cases_explored,
                r.stats.cache_hits,
                r.stats.incremental_hits,
                r.stats.kernel_nanos,
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok() || std::env::args().any(|a| a == "--quick");
    println!(
        "== solver_scale (synthetic stress suites{}) ==",
        if quick { ", quick" } else { "" }
    );
    let kinds = BackendKind::ALL;

    let (n, k, u, d) = if quick {
        (150, 5, 2, 60)
    } else {
        (500, 7, 3, 200)
    };
    let suites = vec![
        run_suite("straight_line", &kinds, straight_line(n)),
        run_suite("case_splits", &kinds, case_splits(k, u)),
        run_suite("push_pop_tower", &kinds, push_pop_tower(d)),
    ];

    // Headline contract: ≥5× fewer leaf cases than one-shot on straight-line.
    let leaf = |suite: &Suite, kind: BackendKind| {
        suite
            .rows
            .iter()
            .find(|r| r.backend == kind)
            .map(|r| r.stats.cases_explored)
            .unwrap()
    };
    let one_shot = leaf(&suites[0], BackendKind::OneShot);
    let incr = leaf(&suites[0], BackendKind::IncrementalState);
    let ratio = one_shot as f64 / (incr.max(1)) as f64;
    let ratio_ok = incr * 5 <= one_shot;
    assert!(
        ratio_ok,
        "straight-line: incremental-state explored {incr} leaf cases, one-shot {one_shot} — expected ≥5× fewer"
    );

    let json = to_json(&suites, quick, ratio, ratio_ok);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver_scale.json");
    std::fs::write(path, &json).expect("write BENCH_solver_scale.json");
    println!("  straight-line leaf-case ratio (one-shot / incremental-state): {ratio:.1}x");
    println!("  wrote {path}");
}
