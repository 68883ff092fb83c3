//! Integration tests for `BackendKind::SmtLib` — the external SMT-LIB2
//! process backend.
//!
//! Two kinds of test live here:
//!
//! * **Agreement** against a real solver (z3/cvc5/`GILLIAN_SMT`): the full
//!   Table 1 suite must produce identical verdicts under the SMT backend and
//!   the default in-repo backend. These skip with a visible notice when no
//!   solver binary is probed (CI runs them in a dedicated job with z3
//!   installed).
//! * **Resilience** against stub "solvers" (shell scripts): a hung process
//!   must trip the time box, fall back to the kernel's verdict and never
//!   block obligation workers. These run everywhere — they carry their own
//!   stubs.

use case_studies::table1::table1_cases;
use driver::{BackendKind, EngineOptions, HybridSession};
use gillian_rust::gilsonite::{lv, SpecMode};
use gillian_solver::{smtlib, Expr, SmtOptions, Solver};
use rust_ir::{BinOp, BodyBuilder, Operand, Place, Program, Ty};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Returns the probed solver, or prints the skip notice and `None`.
fn solver_or_skip(test: &str) -> Option<gillian_solver::SmtCommand> {
    match smtlib::probe() {
        Some(cmd) => Some(cmd),
        None => {
            eprintln!(
                "SKIPPED {test}: no external SMT solver found \
                 (set GILLIAN_SMT or install z3/cvc5)"
            );
            None
        }
    }
}

/// Writes an executable stub script and returns its path.
#[cfg(unix)]
fn write_stub(name: &str, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("gillian-smt-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

/// A tiny self-contained program (no env-dependent probing in sight): four
/// branching functions over a `usize`, each clamping at its own cap and
/// specified so that verification needs both feasibility pruning and
/// entailment. The session proves them on four obligation workers sharing
/// one solver hub, so their solves overlap; distinct caps keep their
/// queries distinct.
fn demo_session(engine: EngineOptions) -> HybridSession {
    let mut program = Program::new("smt-demo");
    let mut fns = Vec::new();
    for cap in 100..104 {
        let name = format!("clamp_add_{cap}");
        let mut b = BodyBuilder::new(&name, vec![("x", Ty::usize())], Ty::usize());
        let big = b.local("big", Ty::Bool);
        let out = b.local("out", Ty::usize());
        let then_blk = b.new_block();
        let else_blk = b.new_block();
        let join = b.new_block();
        b.assign_binop(
            big.clone(),
            BinOp::Lt,
            Operand::usize(cap),
            Operand::copy(Place::local("x")),
        );
        b.branch_if(Operand::copy(big), then_blk, else_blk);
        b.switch_to(then_blk);
        b.assign_use(out.clone(), Operand::usize(cap));
        b.goto(join);
        b.switch_to(else_blk);
        b.assign_binop(
            out.clone(),
            BinOp::Add,
            Operand::copy(Place::local("x")),
            Operand::usize(1),
        );
        b.goto(join);
        b.switch_to(join);
        b.ret_val(Operand::copy(out));
        let f = b.finish();
        program.add_fn(f.clone());
        fns.push((f, cap));
    }

    HybridSession::builder()
        .name("smt-demo")
        .program(program)
        .mode(SpecMode::FunctionalCorrectness)
        .engine_options(engine)
        .configure(move |g| {
            for (f, cap) in &fns {
                let bound = Expr::Int(i128::from(*cap) + 1);
                let spec = g.fn_spec(f, vec![], vec![Expr::le(lv("ret_repr"), bound)]);
                g.add_spec(spec);
            }
        })
        .workers(4)
        .build()
        .unwrap()
}

/// Without any solver binary the SMT backend degrades to the in-repo kernel
/// and still verifies everything the default backend verifies. The explicit
/// empty command makes "unavailable" deterministic — no environment probing.
#[test]
fn smtlib_without_solver_degrades_to_kernel() {
    let default_report = demo_session(EngineOptions::default()).verify_all();
    let smt_report = demo_session(EngineOptions {
        backend: BackendKind::SmtLib,
        smt_command: Some(vec![]),
        ..EngineOptions::default()
    })
    .verify_all();
    assert_eq!(smt_report.backend, BackendKind::SmtLib);
    assert_eq!(
        default_report.all_verified(),
        smt_report.all_verified(),
        "kernel fallback must agree with the default backend:\n{}",
        smt_report.render_text()
    );
    assert_eq!(
        smt_report.solver.smt_queries, 0,
        "no process, no external queries"
    );
}

/// With a real solver on the machine: the full Table 1 suite must produce
/// identical verdicts (and diagnostic fingerprints) under `SmtLib` and the
/// default backend.
#[test]
fn table1_verdicts_identical_under_smtlib() {
    if solver_or_skip("table1_verdicts_identical_under_smtlib").is_none() {
        return;
    }
    for (case, case_again) in table1_cases(1).into_iter().zip(table1_cases(1)) {
        let name = case.name;
        let reference = case.session().verify_all();
        let smt = case_again
            .session()
            .with_backend(BackendKind::SmtLib)
            .verify_all();
        assert_eq!(smt.backend, BackendKind::SmtLib);
        assert_eq!(
            reference.cases.len(),
            smt.cases.len(),
            "{name}: case counts differ"
        );
        for (a, b) in reference.cases.iter().zip(smt.cases.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.verified(),
                b.verified(),
                "{name}::{}: smtlib backend disagrees with {}\n{}",
                a.name(),
                reference.backend,
                smt.render_text()
            );
            assert_eq!(
                a.diagnostic().map(|d| d.fingerprint()),
                b.diagnostic().map(|d| d.fingerprint()),
                "{name}::{}: diagnostics diverged",
                a.name()
            );
        }
    }
}

/// With a real solver: the solver-level battery in `gillian_solver` covers
/// unit agreement (its `ctxs` helper includes `SmtLib`); here we sanity-check
/// that the bridge genuinely consults the process on a session run.
#[test]
fn real_solver_is_consulted_when_present() {
    if solver_or_skip("real_solver_is_consulted_when_present").is_none() {
        return;
    }
    let report = demo_session(EngineOptions {
        backend: BackendKind::SmtLib,
        ..EngineOptions::default()
    })
    .verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert!(
        report.solver.smt_queries > 0,
        "a probed solver must be consulted: {}",
        report.render_text()
    );
}

/// A stub that answers `unsat` to everything: proves the full driver-level
/// plumbing (session → engine → ctx → process → answer) works without any
/// real solver installed.
#[test]
#[cfg(unix)]
fn stub_solver_drives_through_the_session_layer() {
    let stub = write_stub(
        "session-always-unsat.sh",
        "#!/bin/sh\nwhile read line; do\n  case \"$line\" in\n    *check-sat*) echo unsat ;;\n  esac\ndone\n",
    );
    let report = demo_session(EngineOptions {
        backend: BackendKind::SmtLib,
        smt_command: Some(vec![stub.to_string_lossy().into_owned()]),
        ..EngineOptions::default()
    })
    .verify_all();
    // An always-unsat oracle can only prune paths and discharge goals more
    // aggressively; the demo must still fully verify, through the process.
    assert!(report.all_verified(), "{}", report.render_text());
    assert!(
        report.solver.smt_queries > 0,
        "the stub must have been consulted: {}",
        report.render_text()
    );
    assert!(report.solver.smt_unsat > 0);
}

/// The ROADMAP hazard, end to end: a hung solver process under four
/// obligation workers. The time box must fire on every solve, the verdicts
/// must fall back to the kernel's (the session still verifies), and no
/// worker may hang.
#[test]
#[cfg(unix)]
fn hung_solver_falls_back_without_deadlocking_obligation_workers() {
    let stub = write_stub(
        "session-hang.sh",
        "#!/bin/sh\nwhile read line; do :; done\n",
    );
    let session = demo_session(EngineOptions {
        backend: BackendKind::SmtLib,
        smt_command: Some(vec![stub.to_string_lossy().into_owned()]),
        smt_timeout_ms: 200,
        ..EngineOptions::default()
    });
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(session.verify_all());
    });
    let report = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a hung solver must never deadlock the verification");
    assert!(
        report.all_verified(),
        "verdicts fall back to the kernel: {}",
        report.render_text()
    );
    assert!(
        report.solver.smt_failures > 0,
        "the time box must have fired: {}",
        report.render_text()
    );
}

/// Per-worker processes: four threads solving *distinct* kernel-irrefutable
/// queries concurrently against a stub that sleeps before answering. With
/// the process pool there is no hub mutex to serialise on, so the threads
/// overlap inside the stub's sleep and the bridge must have spawned more
/// than one process. (The stub logs each start to a shared file.)
#[test]
#[cfg(unix)]
fn per_worker_solves_use_multiple_processes() {
    let dir = std::env::temp_dir().join(format!("gillian-smt-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("spawns.log");
    let stub = write_stub(
        "slow-sat.sh",
        &format!(
            "#!/bin/sh\necho started >> {}\nwhile read line; do\n  case \"$line\" in\n    *check-sat*) sleep 1; echo sat ;;\n  esac\ndone\n",
            log.display()
        ),
    );
    let hub = Solver::with_backend_and_smt(
        BackendKind::SmtLib,
        SmtOptions {
            command: Some(vec![stub.to_string_lossy().into_owned()]),
            timeout: Duration::from_secs(30),
        },
    );
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for i in 0..4 {
            let hub = &hub;
            let barrier = &barrier;
            scope.spawn(move || {
                let ctx = hub.ctx();
                let mut g = gillian_solver::VarGen::new();
                let x = g.fresh_expr();
                // Distinct queries per thread (distinct constants): every
                // thread's solve reaches a process of its own.
                ctx.assert_expr(&Expr::lt(Expr::Int(1000 + i as i128), x));
                barrier.wait();
                assert!(!ctx.check_unsat());
            });
        }
    });
    let spawned = std::fs::read_to_string(&log)
        .unwrap_or_default()
        .lines()
        .count();
    assert!(
        spawned >= 2,
        "4 overlapping solves against a 1s-sleeping stub must use ≥2 processes, got {spawned}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a real solver: verdict agreement must hold with per-worker
/// processes under four obligation workers (the configuration the CI z3
/// job pins).
#[test]
fn real_solver_agrees_with_per_worker_processes_at_4_workers() {
    if solver_or_skip("real_solver_agrees_with_per_worker_processes_at_4_workers").is_none() {
        return;
    }
    let reference = demo_session(EngineOptions::default()).verify_all();
    let smt = demo_session(EngineOptions {
        backend: BackendKind::SmtLib,
        ..EngineOptions::default()
    })
    .verify_all();
    assert_eq!(
        reference.all_verified(),
        smt.all_verified(),
        "per-worker smtlib at 4 workers disagrees:\n{}",
        smt.render_text()
    );
    for (a, b) in reference.cases.iter().zip(smt.cases.iter()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.verified(), b.verified(), "case {}", a.name());
        assert_eq!(
            a.diagnostic().map(|d| d.fingerprint()),
            b.diagnostic().map(|d| d.fingerprint()),
            "diagnostic of {}",
            a.name()
        );
    }
}

/// Solver-level variant of the same hazard: four threads asking the same
/// query while the external solver hangs. Each solve times out on its own
/// process and returns the kernel's verdict.
#[test]
#[cfg(unix)]
fn hung_solver_releases_parked_solver_workers() {
    let stub = write_stub("ctx-hang.sh", "#!/bin/sh\nwhile read line; do :; done\n");
    let hub = Solver::with_backend_and_smt(
        BackendKind::SmtLib,
        SmtOptions {
            command: Some(vec![stub.to_string_lossy().into_owned()]),
            timeout: Duration::from_millis(300),
        },
    );
    let start = Instant::now();
    let verdicts: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let hub = &hub;
                scope.spawn(move || {
                    let ctx = hub.ctx();
                    let mut g = gillian_solver::VarGen::new();
                    let x = g.fresh_expr();
                    // Satisfiable and kernel-irrefutable: every worker's
                    // query reaches the hung process.
                    ctx.assert_expr(&Expr::le(x.clone(), x));
                    ctx.check_unsat()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        verdicts.iter().all(|v| !v),
        "a hung solver can never refute anything"
    );
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "every worker returned promptly"
    );
    let stats = hub.stats();
    assert_eq!(stats.smt_queries, 4, "every worker asked the process");
    assert_eq!(stats.smt_failures, 4, "every solve timed out: {stats:?}");
}
