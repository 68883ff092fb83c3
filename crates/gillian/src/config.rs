//! Symbolic execution configurations.
//!
//! A [`Config`] is one branch of the symbolic execution: the state-model
//! state, the variable store, the branch-scoped solver context (which owns
//! the asserted path condition), the folded user predicates and the guarded
//! predicates (full borrows) together with their closing tokens.
//!
//! Engine operations take a configuration by value and move it along every
//! step with one successor. They copy it only where the proof has two or
//! more successors (a symbolic branch, an action, consumption or
//! production with several outcomes, a predicate with several
//! definitions, a lemma with several conclusions): each successor but the
//! last gets a copy, the last takes the original.
//!
//! An attempt that may fail while the original must survive it borrows the
//! configuration: a fold tries each definition, and a final state tries
//! each postcondition or lemma conclusion but the last. Consumption checks
//! the leading pure atoms of an assertion against the borrow and copies it
//! only at the first atom that changes state, so an attempt that fails on
//! its pure prefix copies nothing. Recovery and branch auto-unfold
//! candidates still copy the configuration before they try it. Copies
//! share the solver's term arena and statistics but own their assertion
//! stack.

use crate::state::{PureCtx, StateModel};
use gillian_solver::{simplify, Expr, SolverCtx, Symbol, VarGen};
use std::collections::HashMap;

/// A folded user-predicate instance held in the symbolic state.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldedPred {
    pub name: Symbol,
    pub args: Vec<Expr>,
}

/// A guarded predicate (a full borrow, §4.2): `name(args)` is borrowed for
/// lifetime `lft`.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedPred {
    pub name: Symbol,
    pub lft: Expr,
    pub args: Vec<Expr>,
}

/// A closing token `C_δ(κ, q, args)` (§4.2): produced when a guarded
/// predicate is opened, consumed when it is closed again.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosingToken {
    pub pred: Symbol,
    pub lft: Expr,
    pub frac: Expr,
    pub args: Vec<Expr>,
}

/// Bindings of logical variables established during assertion matching.
pub type Bindings = HashMap<Symbol, Expr>;

/// One branch of the symbolic execution.
#[derive(Clone, Debug)]
pub struct Config<S> {
    /// The state-model state (σ without the engine-level components).
    pub state: S,
    /// The variable store (program variables to symbolic expressions).
    pub store: HashMap<Symbol, Expr>,
    /// The branch-scoped solver context: owns the asserted path condition π
    /// as interned terms. Queries (`feasible`, `entails`, `must_equal`) run
    /// against it without re-shipping the fact vector; structural scans
    /// (pointer resolution, constructor-form lookups) and diagnostics read
    /// π through [`SolverCtx::path`].
    pub ctx: SolverCtx,
    /// Fresh-variable generator.
    pub vars: VarGen,
    /// Folded user predicates.
    pub folded: Vec<FoldedPred>,
    /// Guarded predicates (closed full borrows).
    pub guarded: Vec<GuardedPred>,
    /// Closing tokens of currently-open full borrows.
    pub closing: Vec<ClosingToken>,
}

impl<S: StateModel> Config<S> {
    /// A fresh configuration with an empty state over the given solver
    /// context (obtained from [`gillian_solver::Solver::ctx`]).
    pub fn new(ctx: SolverCtx) -> Self {
        Config {
            state: S::empty(),
            store: HashMap::new(),
            ctx,
            vars: VarGen::new(),
            folded: Vec::new(),
            guarded: Vec::new(),
            closing: Vec::new(),
        }
    }

    /// Returns a fresh symbolic variable expression.
    pub fn fresh(&mut self) -> Expr {
        self.vars.fresh_expr()
    }

    /// Looks a program variable up in the store.
    pub fn lookup(&self, x: Symbol) -> Option<&Expr> {
        self.store.get(&x)
    }

    /// Assigns a program variable.
    pub fn assign(&mut self, x: Symbol, v: Expr) {
        self.store.insert(x, v);
    }

    /// Evaluates a GIL expression against the store (program variables are
    /// replaced by their current values) and simplifies the result.
    pub fn eval(&self, e: &Expr) -> Expr {
        let store = &self.store;
        simplify(&e.subst_pvars(&|s| store.get(&s).cloned()))
    }

    /// Opens a solver scope for a branch point: facts asserted afterwards
    /// belong to this branch. Clones made for sibling branches snapshot the
    /// stack; the SMT-LIB bridge mirrors each scope into its solver process
    /// as `(push 1)`/`(pop 1)`, so sibling branches share the prefix.
    pub fn branch_scope(&self) {
        self.ctx.push();
    }

    /// Adds a fact to the path condition; returns `false` when the path has
    /// become definitely infeasible. The fact is interned and asserted into
    /// the solver context once.
    pub fn assume(&mut self, fact: Expr) -> bool {
        self.ctx.assume(&fact)
    }

    /// Is the path condition still possibly satisfiable?
    pub fn feasible(&self) -> bool {
        self.ctx.feasible()
    }

    /// Does the path condition entail a fact?
    pub fn entails(&self, fact: &Expr) -> bool {
        self.ctx.entails(fact)
    }

    /// Must two expressions be equal under the path condition?
    pub fn must_equal(&self, a: &Expr, b: &Expr) -> bool {
        self.ctx.must_equal(a, b)
    }

    /// Runs a closure with a [`PureCtx`] borrowing the pure components and the
    /// state immutably; used to call into the state model.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&S, &mut PureCtx<'_>) -> R) -> R {
        let mut ctx = PureCtx {
            ctx: &self.ctx,
            vars: &mut self.vars,
        };
        f(&self.state, &mut ctx)
    }

    /// Finds the index of a folded predicate whose name matches and whose
    /// leading `num_ins` arguments are provably equal to `ins`.
    ///
    /// Each argument pair asks the congruence closure first: most matches
    /// hold through asserted equalities alone, and a yes from the closure
    /// implies `must_equal`, so only the pairs it cannot settle cost a
    /// query.
    pub fn find_folded(&self, name: Symbol, ins: &[Expr], num_ins: usize) -> Option<usize> {
        self.folded.iter().position(|fp| {
            if fp.name != name || fp.args.len() < num_ins || ins.len() < num_ins {
                return false;
            }
            fp.args[..num_ins]
                .iter()
                .zip(ins[..num_ins].iter())
                .all(|(a, b)| self.ctx.congruent(a, b) || self.ctx.must_equal(a, b))
        })
    }

    /// Finds a guarded predicate by name and in-arguments.
    pub fn find_guarded(&self, name: Symbol, ins: &[Expr], num_ins: usize) -> Option<usize> {
        self.guarded.iter().position(|gp| {
            if gp.name != name || gp.args.len() < num_ins || ins.len() < num_ins {
                return false;
            }
            gp.args[..num_ins]
                .iter()
                .zip(ins[..num_ins].iter())
                .all(|(a, b)| self.ctx.must_equal(a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EmptyState;
    use gillian_solver::Solver;

    fn config() -> Config<EmptyState> {
        Config::new(Solver::new().ctx())
    }

    #[test]
    fn store_assign_and_eval() {
        let mut cfg = config();
        let x = Symbol::new("x");
        cfg.assign(x, Expr::Int(4));
        let e = Expr::add(Expr::pvar("x"), Expr::Int(1));
        assert_eq!(cfg.eval(&e), Expr::Int(5));
    }

    #[test]
    fn assume_detects_contradiction() {
        let mut cfg = config();
        let v = cfg.fresh();
        assert!(cfg.assume(Expr::eq(v.clone(), Expr::Int(1))));
        assert!(!cfg.assume(Expr::eq(v, Expr::Int(2))));
        assert!(!cfg.feasible());
    }

    #[test]
    fn cloned_branches_are_independent() {
        let mut cfg = config();
        let v = cfg.fresh();
        let prefix = Expr::lt(Expr::Int(0), v.clone());
        let zero = Expr::eq(v.clone(), Expr::Int(0));
        let one = Expr::eq(v, Expr::Int(1));
        assert!(cfg.assume(prefix.clone()));
        cfg.branch_scope();
        let mut other = cfg.clone();
        assert!(!other.assume(zero.clone()));
        assert!(cfg.assume(one.clone()));
        assert!(cfg.feasible());
        assert!(!other.feasible());
        // Each side sees the shared prefix plus only its own fact.
        let path = |c: &Config<EmptyState>| -> Vec<Expr> {
            c.ctx.path().iter().map(|f| (**f).clone()).collect()
        };
        assert_eq!(path(&cfg), vec![simplify(&prefix), simplify(&one)]);
        assert_eq!(path(&other), vec![simplify(&prefix), simplify(&zero)]);
    }

    #[test]
    fn find_folded_matches_modulo_path() {
        let mut cfg = config();
        let a = cfg.fresh();
        let b = cfg.fresh();
        assert!(cfg.assume(Expr::eq(a.clone(), b.clone())));
        cfg.folded.push(FoldedPred {
            name: Symbol::new("p"),
            args: vec![a, Expr::Int(1)],
        });
        let idx = cfg.find_folded(Symbol::new("p"), &[b], 1);
        assert_eq!(idx, Some(0));
    }

    #[test]
    fn find_folded_through_an_equality_chain_asks_no_query() {
        let mut cfg = config();
        let a = cfg.fresh();
        let b = cfg.fresh();
        let c = cfg.fresh();
        assert!(cfg.assume(Expr::eq(a.clone(), b.clone())));
        assert!(cfg.assume(Expr::eq(b, c.clone())));
        cfg.folded.push(FoldedPred {
            name: Symbol::new("p"),
            args: vec![a],
        });
        let queries = |cfg: &Config<EmptyState>| {
            let st = cfg.ctx.stats();
            st.unsat_queries + st.entailment_queries
        };
        let before = queries(&cfg);
        assert_eq!(cfg.find_folded(Symbol::new("p"), &[c], 1), Some(0));
        assert_eq!(queries(&cfg), before, "the closure settles a = b = c");
    }

    #[test]
    fn find_folded_rejects_wrong_ins() {
        let mut cfg = config();
        let a = cfg.fresh();
        let b = cfg.fresh();
        cfg.folded.push(FoldedPred {
            name: Symbol::new("p"),
            args: vec![a],
        });
        assert_eq!(cfg.find_folded(Symbol::new("p"), &[b], 1), None);
    }
}
