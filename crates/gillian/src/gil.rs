//! GIL: the goto-based intermediate language of the Gillian platform.
//!
//! GIL is intentionally tiny (§2.3 of the paper): assignments of pure
//! expressions, *actions* (the primitive state-model operations), calls,
//! conditional gotos and logic (ghost) commands. The Gillian-Rust compiler
//! translates mini-MIR bodies into GIL procedures.

use crate::asrt::{Asrt, Lemma, Pred, Spec};
use gillian_solver::{Expr, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A ghost (logic) command.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicCmd {
    /// Fold a user predicate with the given arguments (arguments may contain
    /// logical variables, which are then learned by the fold).
    Fold(Symbol, Vec<Expr>),
    /// Unfold a folded user predicate instance.
    Unfold(Symbol, Vec<Expr>),
    /// Open a guarded predicate (full borrow): consumes the guarding lifetime
    /// token, produces the predicate definition and a closing token (§4.2).
    UnfoldGuarded(Symbol, Vec<Expr>),
    /// Close a guarded predicate: consumes its definition and the closing
    /// token, recovers the lifetime token.
    FoldGuarded(Symbol, Vec<Expr>),
    /// Apply a lemma with explicit arguments.
    ApplyLemma(Symbol, Vec<Expr>),
    /// Assert that an assertion is satisfied by (a sub-heap of) the current
    /// state, learning bindings for its logical variables; the consumed
    /// resource is immediately produced back.
    Assert(Asrt),
    /// Assume a pure fact (prunes the path if it becomes inconsistent).
    Assume(Expr),
    /// Produce an assertion out of thin air — only allowed inside trusted
    /// lemma proofs and the verification harness.
    Produce(Asrt),
    /// Consume an assertion (dual of `Produce`).
    Consume(Asrt),
    /// Invoke a registered semi-automatic tactic (e.g. `mutref_auto_resolve`,
    /// `prophecy_auto_update`) with the given arguments.
    Tactic(Symbol, Vec<Expr>),
}

impl LogicCmd {
    /// Visits every expression mentioned by the ghost command (arguments of
    /// folds/unfolds/lemmas/tactics, the pure parts of assertions).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            LogicCmd::Fold(_, args)
            | LogicCmd::Unfold(_, args)
            | LogicCmd::UnfoldGuarded(_, args)
            | LogicCmd::FoldGuarded(_, args)
            | LogicCmd::ApplyLemma(_, args)
            | LogicCmd::Tactic(_, args) => {
                for a in args {
                    f(a);
                }
            }
            LogicCmd::Assert(a) | LogicCmd::Produce(a) | LogicCmd::Consume(a) => {
                a.visit_exprs(f);
            }
            LogicCmd::Assume(e) => f(e),
        }
    }
}

impl fmt::Display for LogicCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn call(f: &mut fmt::Formatter<'_>, kw: &str, name: &Symbol, args: &[Expr]) -> fmt::Result {
            write!(f, "{kw} {name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")
        }
        match self {
            LogicCmd::Fold(name, args) => call(f, "fold", name, args),
            LogicCmd::Unfold(name, args) => call(f, "unfold", name, args),
            LogicCmd::UnfoldGuarded(name, args) => call(f, "open", name, args),
            LogicCmd::FoldGuarded(name, args) => call(f, "close", name, args),
            LogicCmd::ApplyLemma(name, args) => call(f, "apply", name, args),
            LogicCmd::Assert(a) => write!(f, "assert {a}"),
            LogicCmd::Assume(e) => write!(f, "assume {e}"),
            LogicCmd::Produce(a) => write!(f, "produce {a}"),
            LogicCmd::Consume(a) => write!(f, "consume {a}"),
            LogicCmd::Tactic(name, args) => call(f, "tactic", name, args),
        }
    }
}

/// A GIL command.
#[derive(Clone, Debug, PartialEq)]
pub enum Cmd {
    /// `x := e` — pure assignment into the variable store.
    Assign(Symbol, Expr),
    /// `x := action(args)` — execute a state-model action.
    Action {
        lhs: Symbol,
        name: Symbol,
        args: Vec<Expr>,
    },
    /// Unconditional jump to a command index.
    Goto(usize),
    /// Conditional jump: if the guard holds go to `then_target`, otherwise to
    /// `else_target`. Symbolic guards branch the execution.
    GotoIf {
        guard: Expr,
        then_target: usize,
        else_target: usize,
    },
    /// `x := f(args)` — procedure call (by spec if one exists, otherwise by
    /// inlining the callee's body).
    Call {
        lhs: Symbol,
        proc: Symbol,
        args: Vec<Expr>,
    },
    /// A ghost command.
    Logic(LogicCmd),
    /// Return a value and stop executing the procedure.
    Return(Expr),
    /// Signal a runtime failure (e.g. a panic); verification fails if the
    /// path is reachable.
    Fail(String),
    /// Do nothing.
    Skip,
}

impl Cmd {
    /// Visits every expression mentioned by the command.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Cmd::Assign(_, e) | Cmd::Return(e) => f(e),
            Cmd::Action { args, .. } | Cmd::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Cmd::GotoIf { guard, .. } => f(guard),
            Cmd::Logic(l) => l.visit_exprs(f),
            Cmd::Goto(_) | Cmd::Fail(_) | Cmd::Skip => {}
        }
    }
}

impl fmt::Display for Cmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmd::Assign(x, e) => write!(f, "{x} := {e}"),
            Cmd::Action { lhs, name, args } => {
                write!(f, "{lhs} := [{name}](")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Cmd::Goto(t) => write!(f, "goto {t}"),
            Cmd::GotoIf {
                guard,
                then_target,
                else_target,
            } => write!(f, "goto [{guard}] {then_target} {else_target}"),
            Cmd::Call { lhs, proc, args } => {
                write!(f, "{lhs} := {proc}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Cmd::Logic(l) => write!(f, "logic {l}"),
            Cmd::Return(e) => write!(f, "return {e}"),
            Cmd::Fail(msg) => write!(f, "fail \"{msg}\""),
            Cmd::Skip => write!(f, "skip"),
        }
    }
}

/// A GIL procedure.
#[derive(Clone, Debug)]
pub struct Proc {
    /// Procedure name.
    pub name: Symbol,
    /// Parameter names.
    pub params: Vec<Symbol>,
    /// Body: a sequence of commands addressed by index.
    pub body: Vec<Cmd>,
    /// Number of executable source lines this procedure was compiled from
    /// (used for the eLoC column of Table 1).
    pub source_lines: usize,
}

impl Proc {
    pub fn new(name: &str, params: &[&str], body: Vec<Cmd>) -> Proc {
        Proc {
            name: Symbol::new(name),
            params: params.iter().map(|p| Symbol::new(p)).collect(),
            body,
            source_lines: 0,
        }
    }

    pub fn with_source_lines(mut self, lines: usize) -> Proc {
        self.source_lines = lines;
        self
    }
}

/// Which registry of a [`Prog`] a dependency read went through (see
/// [`Prog::begin_dep_recording`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// A procedure body lookup (inlining, compiled-body verification).
    Proc,
    /// A user-predicate lookup (folds, unfolds, borrow opens).
    Pred,
    /// A specification lookup (spec-calls, the target's own contract).
    Spec,
    /// A lemma lookup (`apply`, lemma verification).
    Lemma,
    /// A procedure *signature* lookup (spec-calls bind arguments to the
    /// callee's parameter names without reading its body). Kept distinct
    /// from [`DepKind::Proc`] so that invalidating a body does not dirty
    /// callers that only used the contract.
    ProcSig,
}

impl DepKind {
    /// A stable machine-readable label (used by the daemon protocol and the
    /// on-disk proof-cache record format).
    pub fn label(self) -> &'static str {
        match self {
            DepKind::Proc => "proc",
            DepKind::Pred => "pred",
            DepKind::Spec => "spec",
            DepKind::Lemma => "lemma",
            DepKind::ProcSig => "proc-sig",
        }
    }

    /// Inverse of [`DepKind::label`]; `None` for unknown labels (e.g. a
    /// cache record written by a future format).
    pub fn from_label(label: &str) -> Option<DepKind> {
        match label {
            "proc" => Some(DepKind::Proc),
            "pred" => Some(DepKind::Pred),
            "spec" => Some(DepKind::Spec),
            "lemma" => Some(DepKind::Lemma),
            "proc-sig" => Some(DepKind::ProcSig),
            _ => None,
        }
    }

    /// All dependency kinds, in label order.
    pub const ALL: [DepKind; 5] = [
        DepKind::Proc,
        DepKind::Pred,
        DepKind::Spec,
        DepKind::Lemma,
        DepKind::ProcSig,
    ];
}

/// Interior-mutability sink behind the dependency recording of a [`Prog`]:
/// while enabled, every registry lookup (hit *or* miss — a miss is still a
/// dependency: adding the item later changes the reader's meaning) is noted.
/// Disabled, the cost is one relaxed atomic load per lookup.
#[derive(Debug, Default)]
struct DepSink {
    enabled: AtomicBool,
    reads: Mutex<BTreeSet<(DepKind, Symbol)>>,
}

/// A complete GIL program: procedures, predicates, specifications, lemmas.
#[derive(Clone, Debug, Default)]
pub struct Prog {
    pub procs: HashMap<Symbol, Proc>,
    pub preds: HashMap<Symbol, Pred>,
    pub specs: HashMap<Symbol, Spec>,
    pub lemmas: HashMap<Symbol, Lemma>,
    /// Shared across clones: the engine may clone the program, but a
    /// recording session spans one verification target of one engine.
    dep_sink: Arc<DepSink>,
}

impl Prog {
    pub fn new() -> Prog {
        Prog::default()
    }

    pub fn add_proc(&mut self, proc: Proc) -> &mut Self {
        self.procs.insert(proc.name, proc);
        self
    }

    pub fn add_pred(&mut self, pred: Pred) -> &mut Self {
        self.preds.insert(pred.name, pred);
        self
    }

    pub fn add_spec(&mut self, spec: Spec) -> &mut Self {
        self.specs.insert(spec.name, spec);
        self
    }

    pub fn add_lemma(&mut self, lemma: Lemma) -> &mut Self {
        self.lemmas.insert(lemma.name, lemma);
        self
    }

    pub fn proc(&self, name: Symbol) -> Option<&Proc> {
        self.record(DepKind::Proc, name);
        self.procs.get(&name)
    }

    /// Like [`Prog::proc`], but records only a *signature* dependency: the
    /// caller reads the parameter list, not the body (spec-call sites).
    pub fn proc_sig(&self, name: Symbol) -> Option<&Proc> {
        self.record(DepKind::ProcSig, name);
        self.procs.get(&name)
    }

    pub fn pred(&self, name: Symbol) -> Option<&Pred> {
        self.record(DepKind::Pred, name);
        self.preds.get(&name)
    }

    pub fn spec(&self, name: Symbol) -> Option<&Spec> {
        self.record(DepKind::Spec, name);
        self.specs.get(&name)
    }

    pub fn lemma(&self, name: Symbol) -> Option<&Lemma> {
        self.record(DepKind::Lemma, name);
        self.lemmas.get(&name)
    }

    fn record(&self, kind: DepKind, name: Symbol) {
        if self.dep_sink.enabled.load(Ordering::Relaxed) {
            self.dep_sink.reads.lock().unwrap().insert((kind, name));
        }
    }

    /// Starts recording which procs/preds/specs/lemmas are looked up. The
    /// daemon wraps each verification target in a recording window to learn
    /// its dependency set; only one target may record at a time per program,
    /// so recorded targets run one after another (each on one thread).
    pub fn begin_dep_recording(&self) {
        self.dep_sink.reads.lock().unwrap().clear();
        self.dep_sink.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns the reads observed since
    /// [`Prog::begin_dep_recording`], deduplicated and in deterministic
    /// (kind, name) order.
    pub fn end_dep_recording(&self) -> Vec<(DepKind, Symbol)> {
        self.dep_sink.enabled.store(false, Ordering::SeqCst);
        let mut reads = self.dep_sink.reads.lock().unwrap();
        std::mem::take(&mut *reads).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_small_program() {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new("id", &["x"], vec![Cmd::Return(Expr::pvar("x"))]));
        let name = Symbol::new("id");
        assert!(prog.proc(name).is_some());
        assert_eq!(prog.proc(name).unwrap().params.len(), 1);
    }

    #[test]
    fn display_of_commands() {
        let c = Cmd::Action {
            lhs: Symbol::new("v"),
            name: Symbol::new("load"),
            args: vec![Expr::pvar("p")],
        };
        assert_eq!(format!("{c}"), "v := [load](p)");
    }

    #[test]
    fn display_of_every_logic_command_variant() {
        let args = || vec![Expr::pvar("p"), Expr::lvar("x")];
        let pred_atom = Asrt::Pred {
            name: Symbol::new("own"),
            args: vec![Expr::pvar("p")],
        };
        let cases: Vec<(LogicCmd, &str)> = vec![
            (
                LogicCmd::Fold(Symbol::new("dll_seg"), args()),
                "fold dll_seg(p, #x)",
            ),
            (
                LogicCmd::Unfold(Symbol::new("dll_seg"), args()),
                "unfold dll_seg(p, #x)",
            ),
            (
                LogicCmd::UnfoldGuarded(Symbol::new("mutref"), args()),
                "open mutref(p, #x)",
            ),
            (
                LogicCmd::FoldGuarded(Symbol::new("mutref"), args()),
                "close mutref(p, #x)",
            ),
            (
                LogicCmd::ApplyLemma(Symbol::new("extract"), vec![Expr::lvar("x")]),
                "apply extract(#x)",
            ),
            (LogicCmd::Assert(pred_atom.clone()), "assert own(p)"),
            (LogicCmd::Assume(Expr::pvar("b")), "assume b"),
            (LogicCmd::Produce(pred_atom), "produce own(p)"),
            (
                LogicCmd::Consume(Asrt::Pure(Expr::lvar("x"))),
                "consume (#x)",
            ),
            (
                LogicCmd::Tactic(Symbol::new("mutref_auto_resolve"), vec![]),
                "tactic mutref_auto_resolve()",
            ),
        ];
        for (cmd, expected) in cases {
            assert_eq!(format!("{cmd}"), expected);
            // `Cmd::Logic` must use the same rendering (not debug format).
            assert_eq!(format!("{}", Cmd::Logic(cmd)), format!("logic {expected}"));
        }
    }

    #[test]
    fn registries_are_independent() {
        let mut prog = Prog::new();
        prog.add_pred(Pred::abstract_pred("t", &["x"], 1));
        assert!(prog.pred(Symbol::new("t")).is_some());
        assert!(prog.spec(Symbol::new("t")).is_none());
        assert!(prog.lemma(Symbol::new("t")).is_none());
    }

    #[test]
    fn dep_recording_captures_hits_and_misses() {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new("f", &[], vec![Cmd::Return(Expr::Int(0))]));
        // Outside a recording window lookups leave no trace.
        prog.proc(Symbol::new("f"));
        prog.begin_dep_recording();
        prog.proc(Symbol::new("f"));
        prog.proc(Symbol::new("f")); // duplicates collapse
        prog.spec(Symbol::new("f")); // a miss is still a dependency
        prog.lemma(Symbol::new("l"));
        let reads = prog.end_dep_recording();
        assert_eq!(
            reads,
            vec![
                (DepKind::Proc, Symbol::new("f")),
                (DepKind::Spec, Symbol::new("f")),
                (DepKind::Lemma, Symbol::new("l")),
            ]
        );
        // The window is closed: nothing more is recorded.
        prog.pred(Symbol::new("p"));
        assert!(prog.end_dep_recording().is_empty());
    }

    #[test]
    fn dep_recording_is_shared_across_clones() {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new("f", &[], vec![Cmd::Skip]));
        prog.begin_dep_recording();
        let clone = prog.clone();
        clone.proc(Symbol::new("f"));
        let reads = prog.end_dep_recording();
        assert_eq!(reads, vec![(DepKind::Proc, Symbol::new("f"))]);
    }
}
