//! Pass 3: symbol resolution and arity checking.
//!
//! Every `LogicCmd`, call site, spec assertion, predicate definition and
//! lemma is resolved against the program's declared `Proc`/`Pred`/`Lemma`
//! tables. The checks mirror what the engine would discover mid-proof — an
//! unknown predicate aborts a fold, a short `ApplyLemma` argument list leaves
//! lemma parameters dangling as free logical variables — but statically, with
//! a stable code and a span.
//!
//! Spec-quality checks live here too: orphaned logical variables (GL028 — an
//! lvar mentioned exactly once, in a pure fact, constrains nothing and is
//! almost always a typo for a repr variable) and unused lemma parameters
//! (GL029).

use crate::{ItemKind, LintDiagnostic, LintOptions, LintSpan, Severity};
use gillian_engine::asrt::{Asrt, Lemma, Pred, Spec};
use gillian_engine::gil::{Cmd, LogicCmd, Proc, Prog};
use gillian_solver::Symbol;
use std::collections::{BTreeMap, BTreeSet};

fn check_pred_ref(
    prog: &Prog,
    name: Symbol,
    arity: usize,
    exact: bool,
    span: &LintSpan,
    what: &str,
    out: &mut Vec<LintDiagnostic>,
) {
    let Some(pred) = prog.preds.get(&name) else {
        out.push(LintDiagnostic::new(
            "GL021",
            Severity::Error,
            span.clone(),
            format!("{what} references unknown predicate `{name}`"),
        ));
        return;
    };
    let expected = pred.params.len();
    // Fold/unfold commands may omit trailing *out* arguments (the engine
    // learns them from the matched instance), but never ins; assertion atoms
    // must be exact (instantiation zips parameters with arguments).
    let ok = if exact {
        arity == expected
    } else {
        arity >= pred.num_ins && arity <= expected
    };
    if !ok {
        out.push(LintDiagnostic::new(
            "GL022",
            Severity::Error,
            span.clone(),
            format!(
                "{what} passes {arity} argument(s) to `{name}`, which has {expected} parameter(s) ({} ins)",
                pred.num_ins
            ),
        ));
    }
}

/// Checks every predicate atom of an assertion (including nested `Star`s).
pub(crate) fn check_asrt(prog: &Prog, asrt: &Asrt, span: &LintSpan, out: &mut Vec<LintDiagnostic>) {
    for atom in asrt.atoms() {
        match &atom {
            Asrt::Pred { name, args } | Asrt::Guarded { name, args, .. } => {
                check_pred_ref(prog, *name, args.len(), true, span, "assertion", out);
            }
            _ => {}
        }
    }
}

fn check_logic_cmd(
    prog: &Prog,
    l: &LogicCmd,
    span: &LintSpan,
    opts: &LintOptions,
    out: &mut Vec<LintDiagnostic>,
) {
    match l {
        LogicCmd::Fold(name, args) | LogicCmd::Unfold(name, args) => {
            check_pred_ref(prog, *name, args.len(), false, span, "fold/unfold", out);
            if let Some(pred) = prog.preds.get(name) {
                if pred.is_abstract {
                    out.push(LintDiagnostic::new(
                        "GL026",
                        Severity::Error,
                        span.clone(),
                        format!("predicate `{name}` is abstract and cannot be folded or unfolded"),
                    ));
                }
            }
        }
        LogicCmd::UnfoldGuarded(name, args) | LogicCmd::FoldGuarded(name, args) => {
            check_pred_ref(
                prog,
                *name,
                args.len(),
                false,
                span,
                "borrow open/close",
                out,
            );
        }
        LogicCmd::ApplyLemma(name, args) => match prog.lemmas.get(name) {
            None => out.push(LintDiagnostic::new(
                "GL023",
                Severity::Error,
                span.clone(),
                format!("apply references unknown lemma `{name}`"),
            )),
            Some(lemma) => {
                let expected = lemma.params.len();
                if args.len() != expected {
                    out.push(LintDiagnostic::new(
                        "GL024",
                        Severity::Error,
                        span.clone(),
                        format!(
                            "apply passes {} argument(s) to lemma `{name}`, which has {expected} parameter(s)",
                            args.len()
                        ),
                    ));
                }
            }
        },
        LogicCmd::Tactic(name, _) => {
            if !opts.known_tactics.is_empty() && !opts.known_tactics.contains(name.as_str()) {
                out.push(LintDiagnostic::new(
                    "GL025",
                    Severity::Warning,
                    span.clone(),
                    format!("tactic `{name}` is not registered with the engine"),
                ));
            }
        }
        LogicCmd::Assert(a) | LogicCmd::Produce(a) | LogicCmd::Consume(a) => {
            check_asrt(prog, a, span, out);
        }
        LogicCmd::Assume(_) => {}
    }
}

/// Resolution checks over a procedure body: call targets (GL004) and every
/// ghost command.
pub(crate) fn check_proc(prog: &Prog, proc: &Proc, opts: &LintOptions) -> Vec<LintDiagnostic> {
    let name = proc.name.as_str();
    let mut out = Vec::new();
    for (i, cmd) in proc.body.iter().enumerate() {
        let span = LintSpan::at(ItemKind::Proc, name, i);
        match cmd {
            Cmd::Call { proc: callee, .. }
                if !prog.procs.contains_key(callee) && !prog.specs.contains_key(callee) =>
            {
                out.push(LintDiagnostic::new(
                    "GL004",
                    Severity::Error,
                    span,
                    format!("call to unknown procedure `{callee}` (no body, no spec)"),
                ));
            }
            Cmd::Logic(l) => check_logic_cmd(prog, l, &span, opts, &mut out),
            _ => {}
        }
    }
    out
}

fn duplicate_params(params: &[Symbol]) -> Vec<Symbol> {
    let mut seen = BTreeSet::new();
    let mut dups = Vec::new();
    for p in params {
        if !seen.insert(*p) && !dups.contains(p) {
            dups.push(*p);
        }
    }
    dups
}

/// Checks a predicate: duplicate parameters (GL027) and resolution of every
/// definition disjunct.
pub(crate) fn check_pred(prog: &Prog, pred: &Pred) -> Vec<LintDiagnostic> {
    let name = pred.name.as_str();
    let mut out = Vec::new();
    for dup in duplicate_params(&pred.params) {
        out.push(LintDiagnostic::new(
            "GL027",
            Severity::Error,
            LintSpan::item(ItemKind::Pred, name),
            format!("duplicate parameter `{dup}` in predicate `{name}`"),
        ));
    }
    for (i, def) in pred.definitions.iter().enumerate() {
        let span = LintSpan::at(ItemKind::Pred, name, i);
        check_asrt(prog, def, &span, &mut out);
    }
    out
}

/// Checks a lemma: duplicate/unused parameters, resolution of hypothesis,
/// conclusions and (if present) the proof script.
pub(crate) fn check_lemma(prog: &Prog, lemma: &Lemma, opts: &LintOptions) -> Vec<LintDiagnostic> {
    let name = lemma.name.as_str();
    let mut out = Vec::new();
    for dup in duplicate_params(&lemma.params) {
        out.push(LintDiagnostic::new(
            "GL027",
            Severity::Error,
            LintSpan::item(ItemKind::Lemma, name),
            format!("duplicate parameter `{dup}` in lemma `{name}`"),
        ));
    }
    let span = LintSpan::item(ItemKind::Lemma, name);
    check_asrt(prog, &lemma.hyp, &span, &mut out);
    for concl in &lemma.concls {
        check_asrt(prog, concl, &span, &mut out);
    }
    let mut used: BTreeSet<Symbol> = lemma.hyp.lvars();
    for concl in &lemma.concls {
        used.extend(concl.lvars());
    }
    if let Some(proof) = &lemma.proof {
        for (i, l) in proof.iter().enumerate() {
            let span = LintSpan::at(ItemKind::Lemma, name, i);
            check_logic_cmd(prog, l, &span, opts, &mut out);
            l.visit_exprs(&mut |e| used.extend(e.lvars()));
        }
    }
    let mut unused: Vec<&str> = lemma
        .params
        .iter()
        .filter(|p| !used.contains(p))
        .map(|p| p.as_str())
        .collect();
    unused.sort_unstable();
    unused.dedup();
    for p in unused {
        out.push(LintDiagnostic::new(
            "GL029",
            Severity::Warning,
            LintSpan::item(ItemKind::Lemma, name),
            format!("parameter `{p}` of lemma `{name}` is never used"),
        ));
    }
    out
}

/// Checks a specification: resolution of pre/posts, plus orphaned logical
/// variables (GL028).
pub(crate) fn check_spec(prog: &Prog, spec: &Spec) -> Vec<LintDiagnostic> {
    let name = spec.name.as_str();
    let span = LintSpan::item(ItemKind::Spec, name);
    let mut out = Vec::new();
    check_asrt(prog, &spec.pre, &span, &mut out);
    for post in &spec.posts {
        check_asrt(prog, post, &span, &mut out);
    }

    // Orphan detection: count every occurrence of every lvar across the
    // whole spec (pre and all posts), remembering whether any occurrence
    // sits outside a pure/observation atom. An lvar *bound in the
    // precondition* that occurs exactly once — in a pure fact — constrains
    // nothing and is never read back: it is an orphaned binding, typically a
    // typo for a repr variable bound by an ownership atom. (Post-only
    // single-occurrence lvars are legitimate existential binders, e.g.
    // `#ret == Some(#x)`, and are not flagged.)
    let mut counts: BTreeMap<Symbol, usize> = BTreeMap::new();
    let mut in_resource: BTreeSet<Symbol> = BTreeSet::new();
    let mut in_pre: BTreeSet<Symbol> = BTreeSet::new();
    let mut scan = |asrt: &Asrt, pre: bool| {
        for atom in asrt.atoms() {
            let pure = matches!(atom, Asrt::Pure(_) | Asrt::Observation(_));
            atom.visit_exprs(&mut |e| {
                e.visit(&mut |sub| {
                    if let gillian_solver::Expr::LVar(s) = sub {
                        *counts.entry(*s).or_insert(0) += 1;
                        if !pure {
                            in_resource.insert(*s);
                        }
                        if pre {
                            in_pre.insert(*s);
                        }
                    }
                });
            });
        }
    };
    scan(&spec.pre, true);
    for post in &spec.posts {
        scan(post, false);
    }
    let mut orphans: Vec<&str> = counts
        .iter()
        .filter(|(s, &c)| c == 1 && !in_resource.contains(s) && in_pre.contains(s))
        .map(|(s, _)| s.as_str())
        .collect();
    orphans.sort_unstable();
    for v in orphans {
        out.push(LintDiagnostic::new(
            "GL028",
            Severity::Warning,
            span.clone(),
            format!(
                "logical variable `#{v}` appears exactly once in the spec (in a pure fact) — orphaned binding or typo"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_solver::Expr;

    fn prog_with_pred() -> Prog {
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
        prog
    }

    fn codes(diags: &[LintDiagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unknown_and_wrong_arity_folds() {
        let prog = prog_with_pred();
        let opts = LintOptions::default();
        let p = Proc::new(
            "f",
            &["p"],
            vec![
                Cmd::Logic(LogicCmd::Fold(Symbol::new("nope"), vec![])),
                Cmd::Logic(LogicCmd::Fold(Symbol::new("cell"), vec![])),
                Cmd::Logic(LogicCmd::Unfold(Symbol::new("cell"), vec![Expr::pvar("p")])),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        let diags = check_proc(&prog, &p, &opts);
        // Fold with 0 args < 1 in is GL022; fold with ins only (1 of 2) is fine.
        assert_eq!(codes(&diags), vec!["GL021", "GL022"]);
        assert_eq!(diags[0].span.index, Some(0));
        assert_eq!(diags[1].span.index, Some(1));
    }

    #[test]
    fn abstract_predicates_cannot_fold() {
        let mut prog = Prog::new();
        prog.add_pred(Pred::abstract_pred("own_T", &["x"], 1));
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Logic(LogicCmd::Fold(Symbol::new("own_T"), vec![Expr::pvar("x")])),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        let diags = check_proc(&prog, &p, &LintOptions::default());
        assert_eq!(codes(&diags), vec!["GL026"]);
    }

    #[test]
    fn unknown_lemma_and_arity() {
        let mut prog = Prog::new();
        prog.add_lemma(Lemma::new(
            "step",
            &["x"],
            Asrt::Pure(Expr::lvar("x")),
            Asrt::Pure(Expr::lvar("x")),
        ));
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Logic(LogicCmd::ApplyLemma(Symbol::new("ghost"), vec![])),
                Cmd::Logic(LogicCmd::ApplyLemma(Symbol::new("step"), vec![])),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        let diags = check_proc(&prog, &p, &LintOptions::default());
        assert_eq!(codes(&diags), vec!["GL023", "GL024"]);
    }

    #[test]
    fn unknown_tactic_is_warned_only_when_registry_known() {
        let prog = Prog::new();
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Logic(LogicCmd::Tactic(Symbol::new("zap"), vec![])),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        assert!(check_proc(&prog, &p, &LintOptions::default()).is_empty());
        let mut opts = LintOptions::default();
        opts.known_tactics.insert("mutref_auto_resolve".to_string());
        let diags = check_proc(&prog, &p, &opts);
        assert_eq!(codes(&diags), vec!["GL025"]);
    }

    #[test]
    fn unknown_call_is_gl004_but_spec_only_callees_are_fine() {
        let mut prog = Prog::new();
        prog.add_spec(Spec::new("inc", Asrt::Emp, Asrt::Emp));
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Call {
                    lhs: Symbol::new("a"),
                    proc: Symbol::new("inc"),
                    args: vec![Expr::pvar("x")],
                },
                Cmd::Call {
                    lhs: Symbol::new("b"),
                    proc: Symbol::new("missing"),
                    args: vec![Expr::pvar("a")],
                },
                Cmd::Return(Expr::pvar("b")),
            ],
        );
        let diags = check_proc(&prog, &p, &LintOptions::default());
        assert_eq!(codes(&diags), vec!["GL004"]);
        assert_eq!(diags[0].span.index, Some(1));
    }

    #[test]
    fn duplicate_pred_params_are_gl027() {
        let prog = Prog::new();
        let pred = Pred::new("p", &["a", "b", "a"], 2, vec![Asrt::Emp]);
        let diags = check_pred(&prog, &pred);
        assert_eq!(codes(&diags), vec!["GL027"]);
    }

    #[test]
    fn spec_atom_arity_must_be_exact() {
        let prog = prog_with_pred();
        let spec = Spec::new(
            "f",
            Asrt::Pred {
                name: Symbol::new("cell"),
                args: vec![Expr::pvar("p")],
            },
            Asrt::Emp,
        );
        let diags = check_spec(&prog, &spec);
        assert_eq!(codes(&diags), vec!["GL022"]);
    }

    #[test]
    fn orphaned_lvar_is_gl028() {
        let prog = prog_with_pred();
        // #v is bound by the cell atom and read in the post: fine.
        // #typo appears once, in a pure fact: orphaned.
        let spec = Spec::new(
            "f",
            Asrt::Star(vec![
                Asrt::Pred {
                    name: Symbol::new("cell"),
                    args: vec![Expr::pvar("p"), Expr::lvar("v")],
                },
                Asrt::Pure(Expr::eq(Expr::lvar("typo"), Expr::Int(0))),
            ]),
            Asrt::Pure(Expr::eq(Expr::lvar("v"), Expr::Int(1))),
        );
        let diags = check_spec(&prog, &spec);
        assert_eq!(codes(&diags), vec!["GL028"]);
        assert!(diags[0].message.contains("#typo"));
    }

    #[test]
    fn unused_lemma_param_is_gl029() {
        let prog = Prog::new();
        let lemma = Lemma::new(
            "l",
            &["x", "y"],
            Asrt::Pure(Expr::lvar("x")),
            Asrt::Pure(Expr::lvar("x")),
        );
        let diags = check_lemma(&prog, &lemma, &LintOptions::default());
        assert_eq!(codes(&diags), vec!["GL029"]);
        assert!(diags[0].message.contains("`y`"));
    }
}
