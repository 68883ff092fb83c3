//! Pass 5: precondition vacuity.
//!
//! A spec whose precondition is unsatisfiable *verifies vacuously*: the
//! engine finds no feasible entry state, explores zero paths and reports
//! success — the most dangerous kind of green checkmark. This pass collects
//! the pure part of each precondition (pure facts, observations, and the
//! bodies of all-pure ownership predicates like `own_usize`, inlined), pushes
//! it into a fresh **kernel-only** solver and asks `check_unsat`. The kernel
//! is sound for refutation — it only answers "unsat" when the facts really
//! are contradictory — so every GL041 is a true positive. No SMT process is
//! ever spawned: the solver hub is built with [`BackendKind::OneShot`], the
//! in-process reference backend, which answers the pass's single query per
//! context with one simplify → flatten → refute over the asserted facts,
//! case splits included, within a 128-leaf budget.

use crate::{ItemKind, LintDiagnostic, LintOptions, LintSpan, Severity};
use gillian_engine::asrt::{Asrt, Spec};
use gillian_engine::gil::Prog;
use gillian_solver::{BackendKind, Expr, Solver};
use std::time::{Duration, Instant};

/// Is every definition of this predicate made of pure atoms only? Such
/// predicates (`own_usize` bounds, pure type invariants) are safe to inline
/// into the pure context; by construction they cannot be recursive (a pure
/// definition references no predicate).
fn is_pure_pred(pred: &gillian_engine::asrt::Pred) -> bool {
    !pred.is_abstract
        && !pred.definitions.is_empty()
        && pred.definitions.iter().all(|def| {
            def.atoms()
                .iter()
                .all(|a| matches!(a, Asrt::Pure(_) | Asrt::Observation(_)))
        })
}

/// Pure exprs of one instantiated all-pure definition, conjoined.
fn def_conjunct(def: &Asrt) -> Expr {
    let mut acc: Option<Expr> = None;
    for atom in def.atoms() {
        if let Asrt::Pure(e) | Asrt::Observation(e) = atom {
            acc = Some(match acc {
                None => e,
                Some(a) => Expr::and(a, e),
            });
        }
    }
    acc.unwrap_or(Expr::Bool(true))
}

/// Collects the pure part of a precondition: pure facts, observations, and
/// inlined all-pure predicate atoms (a multi-definition pure predicate
/// contributes the disjunction of its instantiated definitions).
fn pure_part(prog: &Prog, pre: &Asrt) -> Vec<Expr> {
    let mut out = Vec::new();
    for atom in pre.atoms() {
        match &atom {
            Asrt::Pure(e) | Asrt::Observation(e) => out.push(e.clone()),
            Asrt::Pred { name, args } => {
                let Some(pred) = prog.preds.get(name) else {
                    continue; // resolution pass reports GL021
                };
                if !is_pure_pred(pred) || args.len() != pred.params.len() {
                    continue;
                }
                let mut disj: Option<Expr> = None;
                for i in 0..pred.definitions.len() {
                    let inst = pred.instantiate(i, args);
                    let conj = def_conjunct(&inst);
                    disj = Some(match disj {
                        None => conj,
                        Some(d) => Expr::or(d, conj),
                    });
                }
                if let Some(d) = disj {
                    out.push(d);
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs the vacuity check over the given specs. Returns the diagnostics, the
/// total wall time, and the per-spec budget overruns.
pub(crate) fn lint_vacuity<'a>(
    prog: &Prog,
    opts: &LintOptions,
    specs: impl IntoIterator<Item = &'a Spec>,
) -> (Vec<LintDiagnostic>, Duration, Vec<(String, Duration)>) {
    let start = Instant::now();
    let mut diags = Vec::new();
    let mut overruns = Vec::new();
    // Kernel-only hub: `OneShot` never builds the SMT bridge, so no
    // external process can be spawned no matter what the environment says.
    let mut solver = Solver::with_backend(BackendKind::OneShot);
    // Vacuity only needs refutation of a conjunction of ground-ish facts;
    // a tight case budget time-boxes pathological disjunctions.
    solver.case_budget = 128;
    for spec in specs {
        let spec_start = Instant::now();
        let pures = pure_part(prog, &spec.pre);
        if !pures.is_empty() {
            let ctx = solver.ctx();
            for e in &pures {
                ctx.assert_expr(e);
            }
            if ctx.check_unsat() {
                diags.push(LintDiagnostic::new(
                    "GL041",
                    Severity::Error,
                    LintSpan::item(ItemKind::Spec, spec.name.as_str()),
                    format!(
                        "precondition of `{}` is unsatisfiable — the spec verifies vacuously",
                        spec.name
                    ),
                ));
            }
        }
        let elapsed = spec_start.elapsed();
        if elapsed > opts.vacuity_budget {
            overruns.push((spec.name.as_str().to_string(), elapsed));
        }
    }
    (diags, start.elapsed(), overruns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::asrt::Pred;
    use gillian_solver::Symbol;

    fn run(prog: &Prog, spec: &Spec) -> Vec<&'static str> {
        let (diags, _, _) = lint_vacuity(prog, &LintOptions::default(), vec![spec]);
        diags.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn contradictory_pure_precondition_is_gl041() {
        let prog = Prog::new();
        let spec = Spec::new(
            "f",
            Asrt::Star(vec![
                Asrt::Pure(Expr::lt(Expr::lvar("x"), Expr::Int(5))),
                Asrt::Pure(Expr::lt(Expr::Int(10), Expr::lvar("x"))),
            ]),
            Asrt::Emp,
        );
        assert_eq!(run(&prog, &spec), vec!["GL041"]);
    }

    #[test]
    fn satisfiable_precondition_is_clean() {
        let prog = Prog::new();
        let spec = Spec::new(
            "f",
            Asrt::Pure(Expr::lt(Expr::lvar("x"), Expr::Int(5))),
            Asrt::Emp,
        );
        assert!(run(&prog, &spec).is_empty());
    }

    #[test]
    fn contradiction_through_inlined_pure_pred_is_found() {
        // own_nat(x, r): r == x && 0 <= r — inlined, so `r < 0` contradicts.
        let mut prog = Prog::new();
        prog.add_pred(Pred::new(
            "own_nat",
            &["x", "r"],
            1,
            vec![Asrt::Star(vec![
                Asrt::Pure(Expr::eq(Expr::lvar("r"), Expr::lvar("x"))),
                Asrt::Pure(Expr::not(Expr::lt(Expr::lvar("r"), Expr::Int(0)))),
            ])],
        ));
        let spec = Spec::new(
            "f",
            Asrt::Star(vec![
                Asrt::Pred {
                    name: Symbol::new("own_nat"),
                    args: vec![Expr::pvar("x"), Expr::lvar("r")],
                },
                Asrt::Observation(Expr::lt(Expr::lvar("r"), Expr::Int(0))),
            ]),
            Asrt::Emp,
        );
        assert_eq!(run(&prog, &spec), vec!["GL041"]);
    }

    #[test]
    fn observations_alone_can_be_contradictory() {
        let prog = Prog::new();
        let spec = Spec::new(
            "f",
            Asrt::Star(vec![
                Asrt::Observation(Expr::eq(Expr::lvar("x"), Expr::Int(1))),
                Asrt::Observation(Expr::eq(Expr::lvar("x"), Expr::Int(2))),
            ]),
            Asrt::Emp,
        );
        assert_eq!(run(&prog, &spec), vec!["GL041"]);
    }

    #[test]
    fn contradiction_behind_a_case_split_is_gl041() {
        // bit(x): x == 0 | x == 1 — inlined as a disjunction, so refuting
        // `b == 2` takes the kernel's case split.
        let mut prog = Prog::new();
        prog.add_pred(Pred::new(
            "bit",
            &["x"],
            1,
            vec![
                Asrt::Pure(Expr::eq(Expr::lvar("x"), Expr::Int(0))),
                Asrt::Pure(Expr::eq(Expr::lvar("x"), Expr::Int(1))),
            ],
        ));
        let spec = Spec::new(
            "f",
            Asrt::Star(vec![
                Asrt::Pred {
                    name: Symbol::new("bit"),
                    args: vec![Expr::lvar("b")],
                },
                Asrt::Observation(Expr::eq(Expr::lvar("b"), Expr::Int(2))),
            ]),
            Asrt::Emp,
        );
        assert_eq!(run(&prog, &spec), vec!["GL041"]);
    }

    #[test]
    fn contradiction_beyond_the_case_budget_is_not_flagged() {
        // Eight two-way observations and a sum none of their 2^8 = 256
        // combinations reaches: refuting it takes every leaf, twice the
        // pass's 128-case budget, so the pass gives up and stays silent.
        let a = |i: usize| Expr::lvar(&format!("a{i}"));
        let mut atoms: Vec<Asrt> = (0..8)
            .map(|i| {
                Asrt::Observation(Expr::or(
                    Expr::eq(a(i), Expr::Int(0)),
                    Expr::eq(a(i), Expr::Int(1)),
                ))
            })
            .collect();
        let sum = (1..8).fold(a(0), |acc, i| Expr::add(acc, a(i)));
        atoms.push(Asrt::Observation(Expr::eq(sum, Expr::Int(9))));
        let prog = Prog::new();
        let spec = Spec::new("f", Asrt::Star(atoms), Asrt::Emp);
        assert!(run(&prog, &spec).is_empty());

        // The contradiction is real: a budget covering every leaf refutes it.
        let mut solver = Solver::with_backend(BackendKind::OneShot);
        solver.case_budget = 1024;
        let ctx = solver.ctx();
        for e in pure_part(&prog, &spec.pre) {
            ctx.assert_expr(&e);
        }
        assert!(ctx.check_unsat());
        assert_eq!(solver.stats().cases_explored, 256);
    }

    #[test]
    fn non_pure_predicates_are_not_inlined() {
        // A resource predicate is opaque to the vacuity pass: no false
        // positives from heap shapes the kernel cannot see.
        let mut prog = Prog::new();
        prog.add_pred(Pred::new(
            "cell",
            &["p", "v"],
            1,
            vec![Asrt::Core {
                name: Symbol::new("pt"),
                ins: vec![Expr::lvar("p")],
                outs: vec![Expr::lvar("v")],
            }],
        ));
        let spec = Spec::new(
            "f",
            Asrt::Pred {
                name: Symbol::new("cell"),
                args: vec![Expr::pvar("p"), Expr::lvar("v")],
            },
            Asrt::Emp,
        );
        assert!(run(&prog, &spec).is_empty());
    }

    #[test]
    fn vacuity_timing_is_recorded() {
        let prog = Prog::new();
        let spec = Spec::new("f", Asrt::Pure(Expr::Bool(true)), Asrt::Emp);
        let (_, total, overruns) = lint_vacuity(&prog, &LintOptions::default(), vec![&spec]);
        assert!(total < Duration::from_millis(100), "vacuity took {total:?}");
        assert!(overruns.is_empty());
    }
}
