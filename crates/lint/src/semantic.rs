//! Pass 6: invariant-backed semantic checks (GL051–GL055).
//!
//! `gillian-absint` runs its intraprocedural value analysis over each
//! procedure body — here *without* a type oracle, so every action result is
//! `Top` and anything flagged is provable from the GIL text alone — and
//! reports defects the fixpoint guarantees: arithmetic that always
//! overflows, division by a constant zero, asserts that can never hold,
//! constant branch guards, and loops whose exit guards are frozen. Severity
//! comes from the shared [`crate::CODES`] table.

use crate::{ItemKind, LintDiagnostic, LintSpan, Severity};
use gillian_absint::{fixpoint, semantic_findings, AnalysisOptions};
use gillian_engine::cfg::Cfg;
use gillian_engine::gil::Proc;

fn severity_of(code: &str) -> Severity {
    crate::CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
        .unwrap_or(Severity::Warning)
}

/// Runs the GL05x detectors over one procedure, given its control-flow
/// graph. Only the fixpoint runs: nothing here reads the invariants'
/// fingerprint, so it is never computed.
pub(crate) fn lint_proc_semantic(proc: &Proc, cfg: &Cfg) -> Vec<LintDiagnostic> {
    let entry = fixpoint(proc, cfg, &AnalysisOptions::default());
    semantic_findings(proc, cfg, &entry)
        .into_iter()
        .map(|f| {
            LintDiagnostic::new(
                f.code,
                severity_of(f.code),
                LintSpan::at(ItemKind::Proc, proc.name.as_str(), f.index),
                f.message,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::gil::Cmd;
    use gillian_solver::{Expr, Symbol};

    #[test]
    fn semantic_findings_become_severity_mapped_diagnostics() {
        // Constant guard with a dead (non-Fail) arm: GL054, a warning.
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(1)),
                Cmd::GotoIf {
                    guard: Expr::lt(Expr::pvar("x"), Expr::Int(10)),
                    then_target: 2,
                    else_target: 3,
                },
                Cmd::Return(Expr::Int(0)),
                Cmd::Return(Expr::Int(1)),
            ],
        );
        let diags = lint_proc_semantic(&p, &Cfg::new(&p.body));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GL054");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].span.index, Some(1));
    }

    #[test]
    fn error_codes_map_to_error_severity() {
        // Division by constant zero: GL052, an error.
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Assign(Symbol::new("d"), Expr::Int(0)),
                Cmd::Assign(
                    Symbol::new("q"),
                    Expr::BinOp(
                        gillian_solver::BinOp::Div,
                        Box::new(Expr::pvar("x")),
                        Box::new(Expr::pvar("d")),
                    ),
                ),
                Cmd::Return(Expr::pvar("q")),
            ],
        );
        let diags = lint_proc_semantic(&p, &Cfg::new(&p.body));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GL052");
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
