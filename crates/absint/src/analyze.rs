//! The intraprocedural fixpoint: abstract evaluation of GIL expressions,
//! guard-driven state refinement, and a worklist iteration with widening at
//! loop heads followed by bounded descending (narrowing) passes.
//!
//! Soundness invariant: for every concrete execution of a procedure from an
//! *unconstrained* entry (parameters unknown, heap unknown), the concrete
//! store at command `i` is described by `entry[i]`. Actions and calls
//! conservatively produce `Top` (unless the [`AnalysisOptions::action_bounds`]
//! hook supplies machine-integer bounds, which the memory model itself
//! guarantees for typed loads), so the analysis over-approximates the
//! engine's symbolic execution regardless of specs or heap contents.

use crate::domain::{AbsState, AbsVal, Interval};
use gillian_engine::cfg::Cfg;
use gillian_engine::gil::{Cmd, LogicCmd, Proc, Prog};
use gillian_engine::Asrt;
use gillian_solver::{BinOp, Expr, StableHasher, Symbol, UnOp};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Hook resolving a state-model action to integer result bounds:
/// `(action_name, args) -> Some((lo, hi))` when the action is known to
/// return a machine integer in that range (e.g. a typed `load`). The hook
/// lives behind `Arc<dyn Fn>` because type information (the `TypeRegistry`)
/// is a driver-level concern the analysis must stay agnostic of.
pub type ActionBounds = Arc<dyn Fn(Symbol, &[Expr]) -> Option<(i128, i128)> + Send + Sync>;

/// Number of plain joins at a loop head before widening kicks in. Delayed
/// widening keeps small constant-bound loops exact.
const WIDEN_AFTER: u32 = 3;

/// Number of descending (narrowing) passes after the widened fixpoint.
const DESCEND_ITERS: u32 = 2;

/// Options of the fixpoint iteration.
#[derive(Clone, Default)]
pub struct AnalysisOptions {
    /// Optional action-result bound oracle (see [`ActionBounds`]). `None`
    /// makes every action result `Top`, which is always sound.
    pub action_bounds: Option<ActionBounds>,
}

impl std::fmt::Debug for AnalysisOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisOptions")
            .field("action_bounds", &self.action_bounds.as_ref().map(|_| ".."))
            .finish()
    }
}

/// Abstractly evaluates an expression in a state. Total: anything the
/// domain does not model (sequences, symbolic/logical variables,
/// uninterpreted applications) is `Top`.
pub fn abs_eval(e: &Expr, s: &AbsState) -> AbsVal {
    match e {
        Expr::Int(i) => AbsVal::constant_int(*i),
        Expr::Bool(b) => AbsVal::Bool(Some(*b)),
        Expr::Unit => AbsVal::Unit,
        Expr::PVar(x) => s.get(*x),
        Expr::Ctor(tag, args) => AbsVal::Ctor(*tag, args.iter().map(|a| abs_eval(a, s)).collect()),
        Expr::UnOp(UnOp::Not, inner) => match abs_eval(inner, s) {
            AbsVal::Bool(b) => AbsVal::Bool(b.map(|b| !b)),
            _ => AbsVal::Top,
        },
        Expr::UnOp(UnOp::Neg, inner) => match abs_eval(inner, s) {
            AbsVal::Int(iv) => AbsVal::Int(iv.neg()),
            _ => AbsVal::Top,
        },
        // A sequence length is always a non-negative integer, whatever the
        // sequence is.
        Expr::UnOp(UnOp::SeqLen, _) => AbsVal::Int(Interval {
            lo: Some(0),
            hi: None,
        }),
        Expr::BinOp(op, a, b) => {
            let va = abs_eval(a, s);
            let vb = abs_eval(b, s);
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                    match (va.interval(), vb.interval()) {
                        (Some(ia), Some(ib)) => AbsVal::Int(match op {
                            BinOp::Add => ia.add(ib),
                            BinOp::Sub => ia.sub(ib),
                            BinOp::Mul => ia.mul(ib),
                            BinOp::Div => ia.div(ib),
                            _ => ia.rem(ib),
                        }),
                        _ => AbsVal::Top,
                    }
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    match (va.interval(), vb.interval()) {
                        (Some(ia), Some(ib)) => AbsVal::Bool(match op {
                            BinOp::Lt => ia.lt(ib),
                            BinOp::Le => ia.le(ib),
                            BinOp::Gt => ib.lt(ia),
                            _ => ib.le(ia),
                        }),
                        _ => AbsVal::Bool(None),
                    }
                }
                BinOp::Eq => AbsVal::Bool(va.decide_eq(&vb)),
                BinOp::Ne => AbsVal::Bool(va.decide_eq(&vb).map(|b| !b)),
                BinOp::And => AbsVal::Bool(match (truthy(&va), truthy(&vb)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }),
                BinOp::Or => AbsVal::Bool(match (truthy(&va), truthy(&vb)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }),
                BinOp::Implies => AbsVal::Bool(match (truthy(&va), truthy(&vb)) {
                    (Some(false), _) | (_, Some(true)) => Some(true),
                    (Some(true), Some(false)) => Some(false),
                    _ => None,
                }),
                _ => AbsVal::Top,
            }
        }
        Expr::Ite(c, t, f) => match truthy(&abs_eval(c, s)) {
            Some(true) => abs_eval(t, s),
            Some(false) => abs_eval(f, s),
            None => abs_eval(t, s).join(&abs_eval(f, s)),
        },
        _ => AbsVal::Top,
    }
}

/// Three-valued truth that never claims a non-boolean is true or false.
fn truthy(v: &AbsVal) -> Option<bool> {
    match v {
        AbsVal::Bool(b) => *b,
        _ => None,
    }
}

/// Refines `s` under the assumption that `guard` evaluates to `want`.
/// Returns `None` when that assumption is infeasible in `s` (the refined
/// path is unreachable). Refinement is best-effort: falling back to the
/// unrefined state is always sound.
pub fn refine(s: AbsState, guard: &Expr, want: bool) -> Option<AbsState> {
    match truthy(&abs_eval(guard, &s)) {
        Some(b) if b != want => return None,
        _ => {}
    }
    match guard {
        Expr::Bool(b) => (*b == want).then_some(s),
        Expr::PVar(x) => s.meet_var(*x, &AbsVal::Bool(Some(want))),
        Expr::UnOp(UnOp::Not, inner) => refine(s, inner, !want),
        Expr::BinOp(BinOp::And, a, b) => {
            if want {
                refine(s, a, true).and_then(|s| refine(s, b, true))
            } else {
                split(s, a, false, b, false)
            }
        }
        Expr::BinOp(BinOp::Or, a, b) => {
            if want {
                split(s, a, true, b, true)
            } else {
                refine(s, a, false).and_then(|s| refine(s, b, false))
            }
        }
        Expr::BinOp(BinOp::Implies, a, b) => {
            if want {
                split(s, a, false, b, true)
            } else {
                refine(s, a, true).and_then(|s| refine(s, b, false))
            }
        }
        Expr::BinOp(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), a, b) => {
            // Normalise to `lhs ≤ rhs` or `lhs < rhs`.
            let (lhs, rhs, strict) = match (op, want) {
                (BinOp::Lt, true) => (a, b, true),
                (BinOp::Lt, false) => (b, a, false),
                (BinOp::Le, true) => (a, b, false),
                (BinOp::Le, false) => (b, a, true),
                (BinOp::Gt, true) => (b, a, true),
                (BinOp::Gt, false) => (a, b, false),
                (BinOp::Ge, true) => (b, a, false),
                _ => (a, b, true),
            };
            tighten_le(s, lhs, rhs, strict)
        }
        Expr::BinOp(BinOp::Eq, a, b) => {
            if want {
                let mut s = s;
                if let Expr::PVar(x) = &**a {
                    let v = abs_eval(b, &s);
                    s = s.meet_var(*x, &v)?;
                }
                if let Expr::PVar(y) = &**b {
                    let v = abs_eval(a, &s);
                    s = s.meet_var(*y, &v)?;
                }
                Some(s)
            } else {
                let s = exclude_const(s, a, b)?;
                exclude_const(s, b, a)
            }
        }
        Expr::BinOp(BinOp::Ne, a, b) => {
            refine(s, &Expr::BinOp(BinOp::Eq, a.clone(), b.clone()), !want)
        }
        _ => Some(s),
    }
}

/// `¬(a ∧ b)`-style refinement: the state must satisfy one of two
/// disjuncts, so the result is the join of both refinements (dropping
/// infeasible sides).
fn split(s: AbsState, a: &Expr, wa: bool, b: &Expr, wb: bool) -> Option<AbsState> {
    match (refine(s.clone(), a, wa), refine(s, b, wb)) {
        (Some(x), Some(y)) => Some(x.join(&y)),
        (Some(x), None) => Some(x),
        (None, Some(y)) => Some(y),
        (None, None) => None,
    }
}

/// Refines under `lhs ≤ rhs` (or `<` when `strict`): any program variable
/// on either side has its interval clipped against the other side's bounds.
fn tighten_le(s: AbsState, lhs: &Expr, rhs: &Expr, strict: bool) -> Option<AbsState> {
    let mut s = s;
    if let Expr::PVar(x) = lhs {
        if let Some(r) = abs_eval(rhs, &s).interval() {
            let hi = if strict {
                r.hi.and_then(|h| h.checked_sub(1))
            } else {
                r.hi
            };
            s = s.meet_var(*x, &AbsVal::Int(Interval { lo: None, hi }))?;
        }
    }
    if let Expr::PVar(y) = rhs {
        if let Some(l) = abs_eval(lhs, &s).interval() {
            let lo = if strict {
                l.lo.and_then(|l| l.checked_add(1))
            } else {
                l.lo
            };
            s = s.meet_var(*y, &AbsVal::Int(Interval { lo, hi: None }))?;
        }
    }
    Some(s)
}

/// `x != e` refinement: when `e` is a known constant sitting exactly on one
/// of `x`'s interval bounds, the bound moves past it.
fn exclude_const(s: AbsState, var: &Expr, other: &Expr) -> Option<AbsState> {
    let Expr::PVar(x) = var else { return Some(s) };
    let Some(c) = abs_eval(other, &s).interval().and_then(Interval::as_const) else {
        return Some(s);
    };
    let Some(iv) = s.get(*x).interval() else {
        return Some(s);
    };
    let mut iv = iv;
    if iv.lo == Some(c) {
        iv.lo = c.checked_add(1);
    }
    if iv.hi == Some(c) {
        iv.hi = c.checked_sub(1);
    }
    if let (Some(a), Some(b)) = (iv.lo, iv.hi) {
        if a > b {
            return None;
        }
    }
    s.meet_var(*x, &AbsVal::Int(iv))
}

/// Pure boolean facts carried by an assertion (the `Pure` leaves of the
/// `Star` tree). Spatial parts say nothing about the variable store.
pub(crate) fn pure_parts(a: &Asrt) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(a: &'a Asrt, out: &mut Vec<&'a Expr>) {
        match a {
            Asrt::Star(items) => {
                for item in items {
                    walk(item, out);
                }
            }
            Asrt::Pure(e) => out.push(e),
            _ => {}
        }
    }
    walk(a, &mut out);
    out
}

/// Per-command abstract transfer: the states flowing to each CFG successor.
/// An empty result means the command terminates the path (or every
/// successor is infeasible).
fn flow(proc: &Proc, opts: &AnalysisOptions, i: usize, s: &AbsState) -> Vec<(usize, AbsState)> {
    let len = proc.body.len();
    let next = |s: AbsState| -> Vec<(usize, AbsState)> {
        if i + 1 < len {
            vec![(i + 1, s)]
        } else {
            Vec::new()
        }
    };
    match &proc.body[i] {
        Cmd::Assign(x, e) => {
            let v = abs_eval(e, s);
            let mut s2 = s.clone();
            s2.set(*x, v);
            next(s2)
        }
        Cmd::Action { lhs, name, args } => {
            let mut v = AbsVal::Top;
            if let Some(hook) = &opts.action_bounds {
                if let Some((lo, hi)) = hook(*name, args) {
                    v = AbsVal::Int(Interval::bounded(lo, hi));
                }
            }
            // `unwrap_option` peels a constructor the domain may know.
            if v == AbsVal::Top && name.as_str() == "unwrap_option" {
                if let Some(arg) = args.first() {
                    if let AbsVal::Ctor(tag, fields) = abs_eval(arg, s) {
                        if tag.as_str() == "Option::Some" && fields.len() == 1 {
                            v = fields.into_iter().next().unwrap();
                        }
                    }
                }
            }
            let mut s2 = s.clone();
            s2.set(*lhs, v);
            next(s2)
        }
        Cmd::Call { lhs, .. } => {
            // Intraprocedural: a call may return anything.
            let mut s2 = s.clone();
            s2.set(*lhs, AbsVal::Top);
            next(s2)
        }
        Cmd::Goto(t) => {
            if *t < len {
                vec![(*t, s.clone())]
            } else {
                Vec::new()
            }
        }
        Cmd::GotoIf {
            guard,
            then_target,
            else_target,
        } => {
            let mut out = Vec::new();
            if *then_target < len {
                if let Some(st) = refine(s.clone(), guard, true) {
                    out.push((*then_target, st));
                }
            }
            if *else_target < len {
                if let Some(se) = refine(s.clone(), guard, false) {
                    out.push((*else_target, se));
                }
            }
            out
        }
        Cmd::Logic(LogicCmd::Assume(e)) => match refine(s.clone(), e, true) {
            Some(s2) => next(s2),
            None => Vec::new(),
        },
        Cmd::Logic(LogicCmd::Assert(a)) => {
            // Execution only continues past an assert that held; refining by
            // its pure parts is sound for the states that reach `i + 1`.
            let mut s2 = s.clone();
            for e in pure_parts(a) {
                match refine(s2, e, true) {
                    Some(r) => s2 = r,
                    None => return Vec::new(),
                }
            }
            next(s2)
        }
        // Remaining ghost commands manipulate the heap and logical
        // variables, never the program-variable store.
        Cmd::Logic(_) | Cmd::Skip => next(s.clone()),
        Cmd::Return(_) | Cmd::Fail(_) => Vec::new(),
    }
}

/// The per-procedure result: the abstract state holding *on entry to* each
/// command. `None` marks commands the analysis proved unreachable.
#[derive(Clone, Debug)]
pub struct ProcInvariants {
    pub name: Symbol,
    pub entry: Vec<Option<AbsState>>,
    /// [`StableHasher`] hash of the canonical rendering; stable across
    /// processes.
    pub fingerprint: u64,
}

impl ProcInvariants {
    /// The invariant at command `i`, if `i` is in range and reachable.
    pub fn state_at(&self, i: usize) -> Option<&AbsState> {
        self.entry.get(i).and_then(|s| s.as_ref())
    }

    /// Canonical multi-line rendering: one line per command.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.entry.iter().enumerate() {
            let line = match s {
                None => "unreachable".to_string(),
                Some(s) if s.is_empty() => "top".to_string(),
                Some(s) => s.render(),
            };
            out.push_str(&format!("{i}: {line}\n"));
        }
        out
    }
}

/// Runs the worklist fixpoint over one procedure, given its control-flow
/// graph: the abstract state holding on entry to each command, `None` where
/// the analysis proved the command unreachable.
pub fn fixpoint(proc: &Proc, cfg: &Cfg, opts: &AnalysisOptions) -> Vec<Option<AbsState>> {
    let len = proc.body.len();
    let mut entry: Vec<Option<AbsState>> = vec![None; len];
    if len > 0 {
        // Entry is unconstrained: parameters and locals are Top.
        entry[0] = Some(AbsState::new());
        let heads = cfg.loop_heads();
        let mut joins: Vec<u32> = vec![0; len];
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        let mut queued = vec![false; len];
        queued[0] = true;
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let Some(s) = &entry[i] else { continue };
            for (t, out) in flow(proc, opts, i, s) {
                let merged = match &entry[t] {
                    None => out,
                    Some(old) => {
                        let joined = old.join(&out);
                        if heads[t] && joins[t] >= WIDEN_AFTER {
                            old.widen(&joined)
                        } else {
                            joined
                        }
                    }
                };
                if heads[t] {
                    joins[t] = joins[t].saturating_add(1);
                }
                if entry[t].as_ref() != Some(&merged) {
                    entry[t] = Some(merged);
                    if !queued[t] {
                        queued[t] = true;
                        work.push_back(t);
                    }
                }
            }
        }
        // Bounded descending passes recover precision lost to widening:
        // the widened result is a post-fixpoint, so re-applying the
        // (monotone) transfer stays sound and can only shrink.
        for _ in 0..DESCEND_ITERS {
            let mut next: Vec<Option<AbsState>> = vec![None; len];
            next[0] = Some(AbsState::new());
            for (i, slot) in entry.iter().enumerate() {
                let Some(s) = slot else { continue };
                for (t, out) in flow(proc, opts, i, s) {
                    next[t] = Some(match next[t].take() {
                        None => out,
                        Some(acc) => acc.join(&out),
                    });
                }
            }
            if next == entry {
                break;
            }
            entry = next;
        }
    }
    entry
}

/// Runs the worklist fixpoint over one procedure and fingerprints the
/// result.
pub fn analyze_proc(proc: &Proc, opts: &AnalysisOptions) -> ProcInvariants {
    let entry = fixpoint(proc, &Cfg::new(&proc.body), opts);
    let fingerprint = fingerprint_entries(proc.name, &entry);
    ProcInvariants {
        name: proc.name,
        entry,
        fingerprint,
    }
}

/// The whole-program invariant table, keyed by procedure name and built by
/// [`analyze_prog`]. It is a snapshot: it describes the procedures it was
/// built from.
#[derive(Clone, Debug, Default)]
pub struct InvariantTable {
    pub procs: BTreeMap<Symbol, ProcInvariants>,
    /// Combined [`StableHasher`] fingerprint over all procedures in name
    /// order.
    pub fingerprint: u64,
}

impl InvariantTable {
    pub fn proc(&self, name: Symbol) -> Option<&ProcInvariants> {
        self.procs.get(&name)
    }
}

/// Analyzes every procedure of a program.
pub fn analyze_prog(prog: &Prog, opts: &AnalysisOptions) -> InvariantTable {
    let mut procs = BTreeMap::new();
    for proc in prog.procs.values() {
        procs.insert(proc.name, analyze_proc(proc, opts));
    }
    let fingerprint = table_fingerprint(&procs);
    InvariantTable { procs, fingerprint }
}

// ---- fingerprints ------------------------------------------------------

fn fingerprint_entries(name: Symbol, entry: &[Option<AbsState>]) -> u64 {
    let mut h = StableHasher::new();
    name.as_str().hash(&mut h);
    for s in entry {
        match s {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                s.render().hash(&mut h);
            }
        }
    }
    h.finish()
}

fn table_fingerprint(procs: &BTreeMap<Symbol, ProcInvariants>) -> u64 {
    // BTreeMap iterates in Symbol order (interning order, which can vary
    // across processes), so sort by name text for a stable hash.
    let mut entries: Vec<(&str, u64)> = procs
        .iter()
        .map(|(k, v)| (k.as_str(), v.fingerprint))
        .collect();
    entries.sort_by_key(|(k, _)| *k);
    let mut h = StableHasher::new();
    for (name, fp) in entries {
        name.hash(&mut h);
        h.write_u64(fp);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pvar(name: &str) -> Expr {
        Expr::pvar(name)
    }

    #[test]
    fn straight_line_constants_propagate() {
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(3)),
                Cmd::Assign(Symbol::new("y"), Expr::add(pvar("x"), Expr::Int(4))),
                Cmd::Return(pvar("y")),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        let at_ret = inv.state_at(2).unwrap();
        assert_eq!(at_ret.get(Symbol::new("y")), AbsVal::constant_int(7));
    }

    #[test]
    fn branch_refinement_narrows_intervals() {
        // if x < 10 then (here x ≤ 9) else (here x ≥ 10)
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Logic(LogicCmd::Assume(Expr::and(
                    Expr::le(Expr::Int(0), pvar("x")),
                    Expr::le(pvar("x"), Expr::Int(100)),
                ))),
                Cmd::GotoIf {
                    guard: Expr::lt(pvar("x"), Expr::Int(10)),
                    then_target: 2,
                    else_target: 3,
                },
                Cmd::Return(Expr::Int(0)),
                Cmd::Return(Expr::Int(1)),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        assert_eq!(
            inv.state_at(2).unwrap().get(Symbol::new("x")),
            AbsVal::Int(Interval::bounded(0, 9))
        );
        assert_eq!(
            inv.state_at(3).unwrap().get(Symbol::new("x")),
            AbsVal::Int(Interval::bounded(10, 100))
        );
    }

    #[test]
    fn decided_branch_makes_dead_arm_unreachable() {
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
                Cmd::Fail("unreachable".into()),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        assert!(inv.state_at(2).is_some());
        assert!(inv.state_at(3).is_none(), "{}", inv.render());
    }

    #[test]
    fn loop_with_widening_and_narrowing_recovers_bounds() {
        // i := 0; while (i < 10) { i := i + 1 }; return i
        // Widening sends i's upper bound to +inf at the head; the
        // descending passes bring it back to [0, 10].
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("i"), Expr::Int(0)),
                Cmd::GotoIf {
                    guard: Expr::lt(pvar("i"), Expr::Int(10)),
                    then_target: 2,
                    else_target: 4,
                },
                Cmd::Assign(Symbol::new("i"), Expr::add(pvar("i"), Expr::Int(1))),
                Cmd::Goto(1),
                Cmd::Return(pvar("i")),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        assert_eq!(
            inv.state_at(1).unwrap().get(Symbol::new("i")),
            AbsVal::Int(Interval::bounded(0, 10)),
            "{}",
            inv.render()
        );
        // After the loop the guard is false, so i = 10 exactly.
        assert_eq!(
            inv.state_at(4).unwrap().get(Symbol::new("i")),
            AbsVal::constant_int(10)
        );
    }

    #[test]
    fn nonterminating_growth_still_stabilises() {
        // i := 0; loop { i := i + 1 } with no exit: the analysis must
        // terminate (widening) even though the program does not.
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("i"), Expr::Int(0)),
                Cmd::Assign(Symbol::new("i"), Expr::add(pvar("i"), Expr::Int(1))),
                Cmd::Goto(1),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        let at_head = inv.state_at(1).unwrap().get(Symbol::new("i"));
        assert_eq!(
            at_head,
            AbsVal::Int(Interval {
                lo: Some(0),
                hi: None
            })
        );
    }

    #[test]
    fn action_bounds_hook_types_loads() {
        let hook: ActionBounds = Arc::new(|name: Symbol, _args: &[Expr]| {
            (name.as_str() == "load").then_some((0i128, 255i128))
        });
        let opts = AnalysisOptions {
            action_bounds: Some(hook),
        };
        let p = Proc::new(
            "f",
            &["p"],
            vec![
                Cmd::Action {
                    lhs: Symbol::new("v"),
                    name: Symbol::new("load"),
                    args: vec![pvar("p"), Expr::Int(0)],
                },
                Cmd::Return(pvar("v")),
            ],
        );
        let inv = analyze_proc(&p, &opts);
        assert_eq!(
            inv.state_at(1).unwrap().get(Symbol::new("v")),
            AbsVal::Int(Interval::bounded(0, 255))
        );
    }

    #[test]
    fn unwrap_option_peels_known_constructor() {
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("o"), Expr::some(Expr::Int(5))),
                Cmd::Action {
                    lhs: Symbol::new("v"),
                    name: Symbol::new("unwrap_option"),
                    args: vec![pvar("o")],
                },
                Cmd::Return(pvar("v")),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        assert_eq!(
            inv.state_at(2).unwrap().get(Symbol::new("v")),
            AbsVal::constant_int(5)
        );
    }

    #[test]
    fn assume_refines_and_can_kill_paths() {
        let p = Proc::new(
            "f",
            &["x"],
            vec![
                Cmd::Logic(LogicCmd::Assume(Expr::eq(pvar("x"), Expr::Int(2)))),
                Cmd::Logic(LogicCmd::Assume(Expr::eq(pvar("x"), Expr::Int(3)))),
                Cmd::Return(pvar("x")),
            ],
        );
        let inv = analyze_proc(&p, &AnalysisOptions::default());
        assert_eq!(
            inv.state_at(1).unwrap().get(Symbol::new("x")),
            AbsVal::constant_int(2)
        );
        assert!(inv.state_at(2).is_none());
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let mk = |c: i128| {
            Proc::new(
                "f",
                &[],
                vec![
                    Cmd::Assign(Symbol::new("x"), Expr::Int(c)),
                    Cmd::Return(pvar("x")),
                ],
            )
        };
        let a = analyze_proc(&mk(1), &AnalysisOptions::default());
        let b = analyze_proc(&mk(1), &AnalysisOptions::default());
        let c = analyze_proc(&mk(2), &AnalysisOptions::default());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
