//! Semantic findings derived from the invariants: the GL05x family.
//!
//! Detection is deliberately conservative — every finding is backed by a
//! fact the fixpoint *proved*, so there are no heuristic false positives:
//! GL051 fires only when a compiled overflow check is decided towards its
//! `Fail` arm, GL052 only when a divisor is the constant zero, and so on.
//! Severity mapping and suppression live in `gillian-lint`, which owns the
//! GLxxx code table; this module only names the code.

use crate::analyze::{abs_eval, pure_parts};
use crate::domain::{AbsState, Interval};
use gillian_engine::cfg::Cfg;
use gillian_engine::gil::{Cmd, LogicCmd, Proc};
use gillian_solver::{BinOp, Expr, Symbol};
use std::collections::BTreeSet;

/// A semantic defect proven by the value analysis, anchored to one command
/// of one procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`GL051`..`GL055`).
    pub code: &'static str,
    /// Command index within the procedure body.
    pub index: usize,
    pub message: String,
}

impl Finding {
    fn new(code: &'static str, index: usize, message: impl Into<String>) -> Finding {
        Finding {
            code,
            index,
            message: message.into(),
        }
    }
}

/// Runs every GL05x detector over one procedure, given its control-flow
/// graph and the states [`crate::fixpoint`] computed on entry to each
/// command. Results are sorted by command index, then code.
pub fn semantic_findings(proc: &Proc, cfg: &Cfg, entry: &[Option<AbsState>]) -> Vec<Finding> {
    let mut out = Vec::new();
    let len = proc.body.len();
    debug_assert_eq!(entry.len(), len, "one state slot per command");

    for ((i, cmd), state) in proc.body.iter().enumerate().zip(entry) {
        let Some(state) = state else {
            continue; // unreachable: nothing to prove about it
        };

        // GL052: division or remainder whose divisor is provably zero, in
        // any expression the command evaluates.
        let mut div_by_zero = false;
        cmd.visit_exprs(&mut |e| {
            e.visit(&mut |sub| {
                if let Expr::BinOp(BinOp::Div | BinOp::Rem, _, divisor) = sub {
                    if abs_eval(divisor, state)
                        .interval()
                        .and_then(Interval::as_const)
                        == Some(0)
                    {
                        div_by_zero = true;
                    }
                }
            });
        });
        if div_by_zero {
            out.push(Finding::new(
                "GL052",
                i,
                format!("division or remainder by zero always occurs in `{cmd}`"),
            ));
        }

        match cmd {
            Cmd::GotoIf {
                guard,
                then_target,
                else_target,
            } => {
                let Some(decided) = abs_eval(guard, state).truth() else {
                    continue;
                };
                let taken = if decided { *then_target } else { *else_target };
                let dead = if decided { *else_target } else { *then_target };
                // GL051: the branch always lands on a compiled overflow
                // check's failure arm.
                if let Some(Cmd::Fail(msg)) = proc.body.get(taken) {
                    if msg.contains("overflow") {
                        out.push(Finding::new(
                            "GL051",
                            i,
                            format!("arithmetic always overflows here: `{msg}`"),
                        ));
                        continue;
                    }
                }
                // GL054: constant guard with a dead arm. Branches guarding
                // a `Fail` arm are compiled safety checks — deciding those
                // towards the safe side is the *point*, not a defect.
                let guards_fail = [*then_target, *else_target]
                    .iter()
                    .any(|&t| matches!(proc.body.get(t), Some(Cmd::Fail(_))));
                if !guards_fail && taken != dead {
                    out.push(Finding::new(
                        "GL054",
                        i,
                        format!(
                            "branch guard `{guard}` is always {decided}; the arm at {dead} is dead"
                        ),
                    ));
                }
            }
            // GL053: an assert whose pure part is provably false.
            Cmd::Logic(LogicCmd::Assert(a)) => {
                for e in pure_parts(a) {
                    if abs_eval(e, state).truth() == Some(false) {
                        out.push(Finding::new(
                            "GL053",
                            i,
                            format!("assertion `{e}` is statically false"),
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    // GL055: a loop none of whose exit guards can ever change. Every
    // cyclic SCC is inspected: if each exit `GotoIf` reads only variables
    // that no command inside the SCC reassigns — and the guard is not
    // statically decided (GL051/GL054 cover that) — the loop either never
    // runs its exit test differently or never exits.
    for scc in cfg.cyclic_sccs() {
        let in_scc: BTreeSet<usize> = scc.iter().copied().collect();
        let defs: BTreeSet<Symbol> = scc
            .iter()
            .filter_map(|&i| match &proc.body[i] {
                Cmd::Assign(x, _) => Some(*x),
                Cmd::Action { lhs, .. } | Cmd::Call { lhs, .. } => Some(*lhs),
                _ => None,
            })
            .collect();
        let mut exits: Vec<(usize, &Expr)> = Vec::new();
        let mut all_frozen = true;
        for &i in &scc {
            if let Cmd::GotoIf { guard, .. } = &proc.body[i] {
                if cfg.succs[i].iter().any(|s| !in_scc.contains(s)) {
                    exits.push((i, guard));
                    let vars = guard.pvars();
                    let undecided = entry[i]
                        .as_ref()
                        .map(|s| abs_eval(guard, s).truth().is_none())
                        .unwrap_or(false);
                    if vars.is_empty() || !vars.is_disjoint(&defs) || !undecided {
                        all_frozen = false;
                    }
                }
            }
        }
        if all_frozen {
            if let Some(&(i, guard)) = exits.first() {
                let vars: Vec<&str> = guard.pvars().iter().map(|s| s.as_str()).collect();
                out.push(Finding::new(
                    "GL055",
                    i,
                    format!(
                        "loop exit guard `{guard}` reads only `{}`, never reassigned inside the loop",
                        vars.join("`, `")
                    ),
                ));
            }
        }
    }

    debug_assert!(out.iter().all(|f| f.index < len));
    out.sort_by(|a, b| a.index.cmp(&b.index).then(a.code.cmp(b.code)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{fixpoint, AnalysisOptions};

    fn findings(proc: &Proc) -> Vec<Finding> {
        let cfg = Cfg::new(&proc.body);
        let entry = fixpoint(proc, &cfg, &AnalysisOptions::default());
        semantic_findings(proc, &cfg, &entry)
    }

    fn pvar(name: &str) -> Expr {
        Expr::pvar(name)
    }

    #[test]
    fn gl051_guaranteed_overflow() {
        // Mirrors the compiled overflow-check shape: x := MAX; y := x + 1;
        // GotoIf(min <= y && y <= max, ok, fail); Fail(overflow); Return.
        let max = i128::from(i64::MAX);
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(max)),
                Cmd::Assign(Symbol::new("y"), Expr::add(pvar("x"), Expr::Int(1))),
                Cmd::GotoIf {
                    guard: Expr::and(
                        Expr::le(Expr::Int(i64::MIN.into()), pvar("y")),
                        Expr::le(pvar("y"), Expr::Int(max)),
                    ),
                    then_target: 4,
                    else_target: 3,
                },
                Cmd::Fail("attempt to compute with overflow (i64)".into()),
                Cmd::Return(pvar("y")),
            ],
        );
        let fs = findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "GL051");
        assert_eq!(fs[0].index, 2);
    }

    #[test]
    fn gl052_division_by_constant_zero() {
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Assign(Symbol::new("d"), Expr::Int(0)),
                Cmd::Assign(
                    Symbol::new("q"),
                    Expr::BinOp(BinOp::Div, Box::new(pvar("x")), Box::new(pvar("d"))),
                ),
                Cmd::Return(pvar("q")),
            ],
        );
        let fs = findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "GL052");
        assert_eq!(fs[0].index, 1);
    }

    #[test]
    fn gl053_statically_false_assert() {
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(3)),
                Cmd::Logic(LogicCmd::Assert(gillian_engine::Asrt::pure(Expr::eq(
                    pvar("x"),
                    Expr::Int(4),
                )))),
                Cmd::Return(pvar("x")),
            ],
        );
        let fs = findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "GL053");
        assert_eq!(fs[0].index, 1);
    }

    #[test]
    fn gl054_constant_guard_dead_arm() {
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(1)),
                Cmd::GotoIf {
                    guard: Expr::lt(pvar("x"), Expr::Int(10)),
                    then_target: 2,
                    else_target: 3,
                },
                Cmd::Return(Expr::Int(0)),
                Cmd::Return(Expr::Int(1)),
            ],
        );
        let fs = findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "GL054");
        assert_eq!(fs[0].index, 1);
    }

    #[test]
    fn gl054_skips_compiled_safety_checks() {
        // A decided branch whose dead arm is a Fail is a *proven-safe*
        // compiled check; flagging it would drown real findings.
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(1)),
                Cmd::GotoIf {
                    guard: Expr::lt(pvar("x"), Expr::Int(10)),
                    then_target: 3,
                    else_target: 2,
                },
                Cmd::Fail("bounds check".into()),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        assert!(findings(&p).is_empty(), "{:?}", findings(&p));
    }

    #[test]
    fn gl055_loop_guard_never_reassigned() {
        // n is read by the exit guard but only i changes... here neither
        // changes: while (n > 0) { x := x + 1 }.
        let p = Proc::new(
            "f",
            &["n"],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(0)),
                Cmd::GotoIf {
                    guard: Expr::lt(Expr::Int(0), pvar("n")),
                    then_target: 2,
                    else_target: 4,
                },
                Cmd::Assign(Symbol::new("x"), Expr::add(pvar("x"), Expr::Int(1))),
                Cmd::Goto(1),
                Cmd::Return(pvar("x")),
            ],
        );
        let fs = findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "GL055");
        assert_eq!(fs[0].index, 1);
    }

    #[test]
    fn gl055_silent_when_guard_variable_is_reassigned() {
        let p = Proc::new(
            "f",
            &["n"],
            vec![
                Cmd::Assign(Symbol::new("i"), Expr::Int(0)),
                Cmd::GotoIf {
                    guard: Expr::lt(pvar("i"), pvar("n")),
                    then_target: 2,
                    else_target: 4,
                },
                Cmd::Assign(Symbol::new("i"), Expr::add(pvar("i"), Expr::Int(1))),
                Cmd::Goto(1),
                Cmd::Return(pvar("i")),
            ],
        );
        assert!(findings(&p).is_empty(), "{:?}", findings(&p));
    }
}
