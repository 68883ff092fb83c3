//! # gillian-lint
//!
//! A static well-formedness and spec-quality analyzer over GIL programs.
//!
//! The verification pipeline assumes well-formed GIL and meaningful specs: a
//! bad jump target, a `Fold` arity mismatch or an unknown lemma name only
//! surfaces as a confusing mid-proof engine failure, and an unsatisfiable
//! precondition is worse — the spec *verifies vacuously* and looks green.
//! This crate catches those defects statically, in milliseconds, before any
//! proof search starts. Six passes:
//!
//! 1. **Control flow** (`flow`): CFG construction over `Cmd` — out-of-range
//!    jump targets (GL001), unreachable commands (GL002), control falling off
//!    the end of a procedure (GL003).
//! 2. **Def-use dataflow** (`flow`): definite-assignment analysis over the
//!    variable store (parameters seeded) — use-before-assign (GL011) — and a
//!    backward liveness pass for dead pure assignments (GL012).
//! 3. **Symbol resolution** (`resolve`): every `LogicCmd`, call site, spec,
//!    predicate definition and lemma is checked against the declared
//!    `Pred`/`Lemma`/`Proc` tables, with arity checking (GL004, GL021–GL029).
//! 4. **Predicate well-foundedness** (`wf`): recursive predicate cycles
//!    without a base-case disjunct (GL031) or whose self-reference carries no
//!    guarding resource or pure condition (GL032).
//! 5. **Vacuity** (`vacuity`): the pure part of each precondition is
//!    asserted into a fresh kernel-only solver (`check_unsat`, time-boxed, no
//!    SMT process); unsat preconditions are flagged as vacuous specs (GL041).
//! 6. **Semantic value analysis** (`semantic`): `gillian-absint`'s
//!    abstract interpreter proves defects from the GIL text alone —
//!    guaranteed overflow (GL051), division by zero (GL052), statically
//!    false asserts (GL053), constant branch guards (GL054) and loop exit
//!    guards that never change (GL055).
//!
//! Entry points: [`lint_prog`] (whole program), [`lint_spec`] (one candidate
//! spec — the daemon's `update_spec` gate), [`lint_proc`] (one procedure —
//! the daemon's `update_fn` gate).

// Lint runs on every session build and daemon edit, so copying a set or a
// state that is never used again is a cost every caller pays; this lint
// catches such a clone.
#![warn(clippy::redundant_clone)]

use gillian_engine::cfg::Cfg;
use gillian_engine::gil::{Proc, Prog};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

mod flow;
mod resolve;
mod semantic;
mod vacuity;
mod wf;

/// Diagnostic severity. `Error`s indicate code the engine will reject or
/// specs that are meaningless; `Warning`s indicate suspicious-but-runnable
/// constructs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Which registry the diagnosed item lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ItemKind {
    Proc,
    Pred,
    Spec,
    Lemma,
}

impl ItemKind {
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Proc => "proc",
            ItemKind::Pred => "pred",
            ItemKind::Spec => "spec",
            ItemKind::Lemma => "lemma",
        }
    }
}

/// Where a diagnostic points: an item, and optionally a command index inside
/// its body (for procedures and lemma proofs) or a definition index (for
/// predicate disjuncts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintSpan {
    pub kind: ItemKind,
    pub item: String,
    pub index: Option<usize>,
}

impl LintSpan {
    pub fn item(kind: ItemKind, item: impl Into<String>) -> LintSpan {
        LintSpan {
            kind,
            item: item.into(),
            index: None,
        }
    }

    pub fn at(kind: ItemKind, item: impl Into<String>, index: usize) -> LintSpan {
        LintSpan {
            kind,
            item: item.into(),
            index: Some(index),
        }
    }
}

impl fmt::Display for LintSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind.label(), self.item)?;
        if let Some(i) = self.index {
            write!(f, " @{i}")?;
        }
        Ok(())
    }
}

/// A single finding, with a stable machine-readable code (`GLxxx`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintDiagnostic {
    pub code: &'static str,
    pub severity: Severity,
    pub span: LintSpan,
    pub message: String,
}

impl LintDiagnostic {
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: LintSpan,
        message: impl Into<String>,
    ) -> LintDiagnostic {
        LintDiagnostic {
            code,
            severity,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.code,
            self.severity.label(),
            self.span,
            self.message
        )
    }
}

/// The stable code table: `(code, severity, short description)`. Codes are
/// append-only; a code is never re-used for a different check.
pub const CODES: &[(&str, Severity, &str)] = &[
    ("GL001", Severity::Error, "jump target out of range"),
    ("GL002", Severity::Warning, "unreachable command"),
    (
        "GL003",
        Severity::Error,
        "control falls off the end of a procedure",
    ),
    ("GL004", Severity::Error, "call to unknown procedure"),
    (
        "GL011",
        Severity::Error,
        "variable may be used before assignment",
    ),
    (
        "GL012",
        Severity::Warning,
        "dead assignment (value never read)",
    ),
    ("GL021", Severity::Error, "reference to unknown predicate"),
    ("GL022", Severity::Error, "predicate arity mismatch"),
    ("GL023", Severity::Error, "reference to unknown lemma"),
    ("GL024", Severity::Error, "lemma arity mismatch"),
    ("GL025", Severity::Warning, "unknown tactic"),
    (
        "GL026",
        Severity::Error,
        "fold/unfold of an abstract predicate",
    ),
    ("GL027", Severity::Error, "duplicate parameter name"),
    (
        "GL028",
        Severity::Warning,
        "orphaned logical variable in spec",
    ),
    ("GL029", Severity::Warning, "unused lemma parameter"),
    (
        "GL031",
        Severity::Warning,
        "recursive predicate cycle has no base case",
    ),
    (
        "GL032",
        Severity::Warning,
        "recursive disjunct has no guard",
    ),
    (
        "GL041",
        Severity::Error,
        "unsatisfiable precondition (spec verifies vacuously)",
    ),
    (
        "GL051",
        Severity::Error,
        "arithmetic always overflows or underflows",
    ),
    (
        "GL052",
        Severity::Error,
        "division or remainder by zero always occurs",
    ),
    ("GL053", Severity::Error, "assertion is statically false"),
    (
        "GL054",
        Severity::Warning,
        "branch guard is constant (dead arm)",
    ),
    (
        "GL055",
        Severity::Warning,
        "loop exit guard variables are never reassigned in the loop",
    ),
];

/// Knobs for a lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Tactic names registered with the engine. When empty, the tactic check
    /// (GL025) is skipped entirely (the caller could not enumerate tactics).
    pub known_tactics: BTreeSet<String>,
    /// Run the vacuity pass (GL041). On by default; callers that lint inside
    /// a latency-critical path can disable it.
    pub vacuity: bool,
    /// Per-spec wall-clock budget for the vacuity check. Overruns do not
    /// abort the check — they are recorded in [`LintReport::vacuity_overruns`].
    pub vacuity_budget: Duration,
    /// Codes to suppress (e.g. `["GL012"]`).
    pub allow: BTreeSet<String>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            known_tactics: BTreeSet::new(),
            vacuity: true,
            vacuity_budget: Duration::from_millis(100),
            allow: BTreeSet::new(),
        }
    }
}

/// The result of a whole-program lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<LintDiagnostic>,
    /// Total wall time of the vacuity pass.
    pub vacuity_time: Duration,
    /// Specs whose vacuity check exceeded [`LintOptions::vacuity_budget`].
    pub vacuity_overruns: Vec<(String, Duration)>,
}

impl LintReport {
    pub fn errors(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One line per diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!("lint: {errors} error(s), {warnings} warning(s)\n"));
        out
    }
}

fn apply_allow(mut diags: Vec<LintDiagnostic>, opts: &LintOptions) -> Vec<LintDiagnostic> {
    if !opts.allow.is_empty() {
        diags.retain(|d| !opts.allow.contains(d.code));
    }
    diags
}

/// Sorted (by name text) views over the program registries, so diagnostics
/// come out in a deterministic order regardless of hash-map iteration or
/// symbol-interning order.
fn sorted_names<T>(map: &std::collections::HashMap<gillian_solver::Symbol, T>) -> Vec<&T> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by_key(|(name, _)| name.as_str());
    entries.into_iter().map(|(_, v)| v).collect()
}

/// Lints a whole program: all six passes over every procedure, predicate,
/// specification and lemma.
///
/// Reads the program's registries directly (never through the recording
/// accessors), so linting inside a dependency-recording window — as the
/// daemon does — leaves no trace in the read set.
pub fn lint_prog(prog: &Prog, opts: &LintOptions) -> LintReport {
    let mut diags = Vec::new();
    for proc in sorted_names(&prog.procs) {
        diags.extend(lint_body(prog, proc, opts));
    }
    for pred in sorted_names(&prog.preds) {
        diags.extend(resolve::check_pred(prog, pred));
    }
    for lemma in sorted_names(&prog.lemmas) {
        diags.extend(resolve::check_lemma(prog, lemma, opts));
    }
    for spec in sorted_names(&prog.specs) {
        diags.extend(resolve::check_spec(prog, spec));
    }
    diags.extend(wf::lint_well_foundedness(prog));
    let mut report = LintReport::default();
    if opts.vacuity {
        let (vdiags, time, overruns) = vacuity::lint_vacuity(prog, opts, sorted_names(&prog.specs));
        diags.extend(vdiags);
        report.vacuity_time = time;
        report.vacuity_overruns = overruns;
    }
    report.diagnostics = apply_allow(diags, opts);
    report
}

/// Lints a single candidate specification against a program: symbol
/// resolution + arity, orphaned logical variables, and (unless disabled) the
/// vacuity check. This is the daemon's `update_spec` gate: run it on the
/// candidate *before* the engine program is mutated.
pub fn lint_spec(prog: &Prog, name: &str, opts: &LintOptions) -> Vec<LintDiagnostic> {
    let sym = gillian_solver::Symbol::new(name);
    let Some(spec) = prog.specs.get(&sym) else {
        return Vec::new();
    };
    let mut diags = resolve::check_spec(prog, spec);
    if opts.vacuity {
        let (vdiags, _, _) = vacuity::lint_vacuity(prog, opts, vec![spec]);
        diags.extend(vdiags);
    }
    apply_allow(diags, opts)
}

/// Lints a single procedure: control flow, def-use dataflow and symbol
/// resolution for its body. This is the daemon's `update_fn` gate.
pub fn lint_proc(prog: &Prog, name: &str, opts: &LintOptions) -> Vec<LintDiagnostic> {
    let sym = gillian_solver::Symbol::new(name);
    let Some(proc) = prog.procs.get(&sym) else {
        return Vec::new();
    };
    apply_allow(lint_body(prog, proc, opts), opts)
}

/// The passes over one procedure body — control flow, def-use dataflow,
/// symbol resolution and the semantic checks — sharing one control-flow
/// graph.
fn lint_body(prog: &Prog, proc: &Proc, opts: &LintOptions) -> Vec<LintDiagnostic> {
    let cfg = Cfg::new(&proc.body);
    let mut diags = flow::lint_proc_flow(proc, &cfg);
    diags.extend(resolve::check_proc(prog, proc, opts));
    diags.extend(semantic::lint_proc_semantic(proc, &cfg));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::gil::{Cmd, Proc};
    use gillian_solver::Expr;

    #[test]
    fn code_table_is_sorted_and_unique() {
        for pair in CODES.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn clean_program_has_clean_report() {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new("id", &["x"], vec![Cmd::Return(Expr::pvar("x"))]));
        let report = lint_prog(&prog, &LintOptions::default());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn allow_suppresses_codes() {
        let mut prog = Prog::new();
        // Unreachable command after a return: GL002.
        prog.add_proc(Proc::new(
            "f",
            &[],
            vec![Cmd::Return(Expr::Int(0)), Cmd::Skip],
        ));
        let report = lint_prog(&prog, &LintOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == "GL002"));
        let mut opts = LintOptions::default();
        opts.allow.insert("GL002".to_string());
        let report = lint_prog(&prog, &opts);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn diagnostics_render_with_code_severity_and_span() {
        let d = LintDiagnostic::new(
            "GL001",
            Severity::Error,
            LintSpan::at(ItemKind::Proc, "push_front", 3),
            "goto target 99 is out of range (body has 7 commands)",
        );
        assert_eq!(
            d.to_string(),
            "GL001 error [proc push_front @3]: goto target 99 is out of range (body has 7 commands)"
        );
    }

    #[test]
    fn lint_proc_and_lint_spec_on_missing_items_are_empty() {
        let prog = Prog::new();
        assert!(lint_proc(&prog, "nope", &LintOptions::default()).is_empty());
        assert!(lint_spec(&prog, "nope", &LintOptions::default()).is_empty());
    }
}
