//! The state-model interface.
//!
//! To instantiate Gillian for a target language one provides (§2.3):
//! a symbolic state type, *actions* (primitive state operations used by
//! compiled code), and *core predicates* with a consumer/producer pair each.
//! The engine is otherwise completely generic.

use gillian_solver::{simplify, Expr, Solver, SolverCtx, Symbol, TermId, VarGen};

/// Pure reasoning context handed to the state model: the branch-scoped
/// [`SolverCtx`] (which owns the asserted path condition) and the
/// fresh-variable generator.
///
/// Queries go through the solver context — facts are interned terms,
/// asserted once when learned. State models that pattern-match on the
/// facts (e.g. pointer resolution scanning for `p == ptr_shape`
/// equalities) read them as simplified expressions through
/// [`SolverCtx::path`].
pub struct PureCtx<'a> {
    pub ctx: &'a SolverCtx,
    pub vars: &'a mut VarGen,
}

impl<'a> PureCtx<'a> {
    /// Returns a fresh symbolic variable as an expression.
    pub fn fresh(&mut self) -> Expr {
        self.vars.fresh_expr()
    }

    /// Interns an expression into the solver's term arena.
    pub fn term(&self, e: &Expr) -> TermId {
        self.ctx.intern(e)
    }

    /// Adds a fact to the path condition. Returns `false` if the path has
    /// become definitely infeasible (the caller should prune/vanish).
    pub fn assume(&mut self, fact: Expr) -> bool {
        self.ctx.assume(&fact)
    }

    /// Is the current path condition still possibly satisfiable?
    pub fn feasible(&self) -> bool {
        self.ctx.feasible()
    }

    /// Does the path condition entail the fact?
    pub fn entails(&self, fact: &Expr) -> bool {
        self.ctx.entails(fact)
    }

    /// Does the path condition entail an interned goal?
    pub fn entails_term(&self, goal: TermId) -> bool {
        self.ctx.entails_term(goal)
    }

    /// Are the two expressions necessarily equal under the path condition?
    pub fn must_equal(&self, a: &Expr, b: &Expr) -> bool {
        self.ctx.must_equal(a, b)
    }

    /// Are the two expressions necessarily different under the path condition?
    pub fn must_differ(&self, a: &Expr, b: &Expr) -> bool {
        self.ctx.must_differ(a, b)
    }

    /// Can the fact hold on some extension of the path condition?
    pub fn possibly(&self, fact: &Expr) -> bool {
        self.ctx.possibly(fact)
    }

    /// Does the path condition, extended with `extra` hypotheses in a
    /// transient scope, entail the goal? Used by state models that carry
    /// auxiliary pure contexts (e.g. the observation context φ).
    ///
    /// Fast path: when π alone entails the goal, the transient scope — and
    /// the re-assertion of every `extra` fact per query — is skipped
    /// entirely. The engine asserts observations into the path as they are
    /// produced, so in engine-driven runs φ ⊆ π and this is the common
    /// case; the scoped re-assertion only pays off when the state model is
    /// driven directly.
    pub fn entails_under(&self, extra: &[Expr], goal: &Expr) -> bool {
        if self.ctx.entails(goal) {
            return true;
        }
        if extra.is_empty() {
            return false;
        }
        self.ctx.push();
        for e in extra {
            self.ctx.assert_expr(e);
        }
        let r = self.ctx.entails(goal);
        self.ctx.pop();
        r
    }

    /// Can the fact hold on some extension of the path condition plus the
    /// `extra` hypotheses (asserted in a transient scope)?
    pub fn possibly_under(&self, extra: &[Expr], fact: &Expr) -> bool {
        self.ctx.push();
        for e in extra {
            self.ctx.assert_expr(e);
        }
        let r = self.ctx.possibly(fact);
        self.ctx.pop();
        r
    }

    /// Simplifies an expression (syntactic only).
    pub fn simplify(&self, e: &Expr) -> Expr {
        simplify(e)
    }
}

/// Builds a standalone pure context over a fresh path: test and bench
/// helper. The closure receives a [`PureCtx`] wired to a context of the
/// given solver hub.
pub fn with_pure_ctx<R>(solver: &Solver, f: impl FnOnce(&mut PureCtx<'_>) -> R) -> R {
    let ctx = solver.ctx();
    let mut vars = VarGen::new();
    let mut pure = PureCtx {
        ctx: &ctx,
        vars: &mut vars,
    };
    f(&mut pure)
}

/// One successful outcome of executing an action. Actions may branch, so
/// executing one returns a vector of outcomes; an empty vector means every
/// branch vanished (the path is pruned).
#[derive(Clone, Debug)]
pub struct ActionOk<S> {
    /// The updated state.
    pub state: S,
    /// The returned value.
    pub value: Expr,
    /// New pure facts learned by this outcome (added to the path condition).
    pub facts: Vec<Expr>,
}

/// The result of executing an action.
#[derive(Clone, Debug)]
pub enum ActionResult<S> {
    /// Zero or more successful branches.
    Ok(Vec<ActionOk<S>>),
    /// The action could not execute because a resource is missing; the
    /// `hint` points at the expressions (typically an address) whose
    /// resource is needed, so that the engine can attempt automatic
    /// recovery (unfolding a predicate or opening a borrow).
    Missing { msg: String, hint: Vec<Expr> },
    /// The action is a genuine error (e.g. use-after-free, invalid value).
    Error(String),
}

/// One successful outcome of consuming a core predicate.
#[derive(Clone, Debug)]
pub struct ConsumeOk<S> {
    /// State with the resource removed.
    pub state: S,
    /// The out-parameters of the consumed predicate.
    pub outs: Vec<Expr>,
    /// New pure facts learned by the consumption.
    pub facts: Vec<Expr>,
}

/// The result of consuming a core predicate.
#[derive(Clone, Debug)]
pub enum ConsumeResult<S> {
    Ok(Vec<ConsumeOk<S>>),
    /// The resource is not present. The hint is used for automatic recovery.
    Missing {
        msg: String,
        hint: Vec<Expr>,
    },
    Error(String),
}

/// The result of producing a core predicate: zero or more branches (an empty
/// vector means the production *vanished*, i.e. it is inconsistent — for
/// example producing an alive lifetime token for an expired lifetime).
#[derive(Clone, Debug)]
pub struct ProduceOk<S> {
    pub state: S,
    pub facts: Vec<Expr>,
}

/// A state model: the symbolic memory (and any other components) of the
/// target language.
pub trait StateModel: Clone + std::fmt::Debug {
    /// An empty state.
    fn empty() -> Self;

    /// Executes a primitive action.
    fn exec_action(&self, name: Symbol, args: &[Expr], ctx: &mut PureCtx<'_>)
        -> ActionResult<Self>;

    /// Consumes a core predicate given its in-parameters, returning its outs.
    fn consume_core(
        &self,
        name: Symbol,
        ins: &[Expr],
        ctx: &mut PureCtx<'_>,
    ) -> ConsumeResult<Self>;

    /// Produces a core predicate given both ins and outs.
    fn produce_core(
        &self,
        name: Symbol,
        ins: &[Expr],
        outs: &[Expr],
        ctx: &mut PureCtx<'_>,
    ) -> Vec<ProduceOk<Self>>;

    /// Splits the arguments of a core predicate (as written in an assertion,
    /// ins followed by outs) into ins and outs.
    fn core_arity(&self, name: Symbol) -> Option<(usize, usize)>;

    /// Is the state observably empty (no remaining spatial resource)? Used to
    /// report leaks at the end of verification (informative only).
    fn is_empty_heap(&self) -> bool;
}

/// A trivial state model with no memory at all. Useful for engine tests and
/// for pure-logic verification (creusot-lite's WP checker does not need a
/// heap).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EmptyState;

impl StateModel for EmptyState {
    fn empty() -> Self {
        EmptyState
    }

    fn exec_action(
        &self,
        name: Symbol,
        _args: &[Expr],
        _ctx: &mut PureCtx<'_>,
    ) -> ActionResult<Self> {
        ActionResult::Error(format!("EmptyState has no action named {name}"))
    }

    fn consume_core(
        &self,
        name: Symbol,
        _ins: &[Expr],
        _ctx: &mut PureCtx<'_>,
    ) -> ConsumeResult<Self> {
        ConsumeResult::Error(format!("EmptyState has no core predicate named {name}"))
    }

    fn produce_core(
        &self,
        _name: Symbol,
        _ins: &[Expr],
        _outs: &[Expr],
        _ctx: &mut PureCtx<'_>,
    ) -> Vec<ProduceOk<Self>> {
        vec![]
    }

    fn core_arity(&self, _name: Symbol) -> Option<(usize, usize)> {
        None
    }

    fn is_empty_heap(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_ctx_assume_and_entail() {
        let solver = Solver::new();
        with_pure_ctx(&solver, |ctx| {
            let x = ctx.fresh();
            assert!(ctx.assume(Expr::eq(x.clone(), Expr::Int(3))));
            assert!(ctx.entails(&Expr::lt(x.clone(), Expr::Int(10))));
            assert!(!ctx.assume(Expr::eq(x, Expr::Int(4))));
        });
    }

    #[test]
    fn pure_ctx_possibly() {
        let solver = Solver::new();
        with_pure_ctx(&solver, |ctx| {
            let x = ctx.fresh();
            assert!(ctx.possibly(&Expr::eq(x.clone(), Expr::Int(1))));
            assert!(ctx.assume(Expr::ne(x.clone(), Expr::Int(1))));
            assert!(!ctx.possibly(&Expr::eq(x, Expr::Int(1))));
        });
    }

    /// The path condition lives only on the solver context, and the
    /// structural scans read it at rest: `assume` records each simplified
    /// fact once and skips trivially-true ones, and the transient scopes of
    /// the pure queries leave it exactly as it was.
    #[test]
    fn pure_ctx_mirrors_assumed_facts() {
        let solver = Solver::new();
        with_pure_ctx(&solver, |pure| {
            let x = pure.fresh();
            let y = pure.fresh();
            let fact = Expr::eq(x.clone(), Expr::Int(3));
            assert!(pure.assume(fact.clone()));
            assert!(pure.assume(Expr::le(Expr::Int(1), Expr::Int(2))));
            let at_rest = pure.ctx.path();
            assert_eq!(at_rest.len(), 1, "a trivially-true fact is left out");
            assert_eq!(*at_rest[0], fact);

            // `y < 6` needs the extra hypothesis, so the scoped path runs.
            let extra = [Expr::lt(y.clone(), Expr::Int(5))];
            assert!(pure.entails_under(&extra, &Expr::lt(y.clone(), Expr::Int(6))));
            assert!(pure.possibly_under(&extra, &Expr::eq(y, Expr::Int(4))));
            assert!(!pure.possibly(&Expr::eq(x, Expr::Int(4))));
            assert_eq!(pure.ctx.path(), at_rest, "queries leave the path as it was");

            // A fact that simplifies to `false` is kept: it is what makes
            // the path infeasible.
            assert!(!pure.assume(Expr::lt(Expr::Int(2), Expr::Int(1))));
            let path = pure.ctx.path();
            assert_eq!(path.len(), 2);
            assert_eq!(*path[0], fact);
            assert_eq!(*path[1], Expr::Bool(false));
        });
    }

    #[test]
    fn empty_state_refuses_everything() {
        let solver = Solver::new();
        with_pure_ctx(&solver, |ctx| {
            let s = EmptyState;
            match s.exec_action(Symbol::new("load"), &[], ctx) {
                ActionResult::Error(_) => {}
                other => panic!("expected error, got {other:?}"),
            }
            assert!(s.is_empty_heap());
        });
    }
}
