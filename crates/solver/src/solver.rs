//! The solver entry points used by the symbolic-execution engine.
//!
//! [`Solver`] is the *shared hub* of a verification session: the hash-consing
//! [`TermArena`], the canonical query cache and the aggregated statistics,
//! plus the selected [`BackendKind`]. It answers no query itself — callers
//! obtain a branch-scoped [`SolverCtx`] via [`Solver::ctx`] and interact with
//! that:
//!
//! * facts are interned once ([`SolverCtx::assert_expr`] /
//!   [`SolverCtx::assume`]) when the engine learns them, not re-walked per
//!   query;
//! * the engine opens a scope at each branch point ([`SolverCtx::push`]) and
//!   clones the context when execution forks (clones share the arena, cache
//!   and statistics but own their assertion stack);
//! * queries ([`SolverCtx::check_unsat`], [`SolverCtx::entails`],
//!   [`SolverCtx::must_equal`], …) run against the asserted facts in place;
//! * search heuristics that only propose or rank candidates ask the cheaper
//!   closure lookup [`SolverCtx::congruent`], which is not a query.
//!
//! Two query families are provided, both *sound for refutation* (only `true`
//! answers are acted upon, so incompleteness can fail a verification but
//! never wrongly succeed one): `check_unsat` prunes infeasible branches and
//! makes producers "vanish" (Fig. 3 of the paper), `entails` discharges
//! consumers of pure assertions (`Observation-Consume`, Fig. 5) and
//! postcondition matching.

use crate::arena::{TermArena, TermId};
use crate::backend::{
    AtomicSolverStats, BackendKind, CachingBackend, IncrementalStateBackend, OneShotBackend,
    QueryCache, SolverBackend, SolverStats,
};
use crate::expr::Expr;
use crate::smtlib::{SmtBackend, SmtOptions, SmtShared};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Outcome of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// The facts are definitely unsatisfiable.
    Unsat,
    /// The solver could not refute the facts (they may or may not be
    /// satisfiable).
    Unknown,
}

/// The shared solver hub. Cheap to clone (clones share the arena, cache and
/// statistics) and `Sync`: one hub serves every worker thread of the parallel
/// batch verifier, each through its own [`SolverCtx`] handles.
#[derive(Clone, Debug)]
pub struct Solver {
    arena: Arc<TermArena>,
    stats: Arc<AtomicSolverStats>,
    cache: QueryCache,
    kind: BackendKind,
    /// The external SMT bridge (one process shared by every context of the
    /// hub). Only built for [`BackendKind::SmtLib`].
    smt: Option<Arc<SmtShared>>,
    /// Maximum number of leaf cases explored per query.
    pub case_budget: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a hub with the default backend ([`BackendKind::default`]).
    pub fn new() -> Self {
        Solver::with_backend(BackendKind::default())
    }

    /// Creates a hub handing out contexts of the given backend kind. For
    /// [`BackendKind::SmtLib`] the external solver is configured from the
    /// environment (`GILLIAN_SMT`, `GILLIAN_SMT_TIMEOUT_MS`, then `PATH`).
    pub fn with_backend(kind: BackendKind) -> Self {
        Solver::with_backend_and_smt(kind, SmtOptions::from_env())
    }

    /// Creates a hub with an explicit SMT-bridge configuration (used by
    /// tests and benches to inject stub solvers and short time boxes). The
    /// options are ignored unless `kind` is [`BackendKind::SmtLib`].
    pub fn with_backend_and_smt(kind: BackendKind, smt: SmtOptions) -> Self {
        let smt = match kind {
            BackendKind::SmtLib => Some(Arc::new(SmtShared::new(&smt))),
            _ => None,
        };
        Solver {
            arena: Arc::new(TermArena::new()),
            stats: Arc::new(AtomicSolverStats::default()),
            cache: Arc::new(RwLock::new(HashMap::new())),
            kind,
            smt,
            case_budget: 512,
        }
    }

    /// Is the external SMT process configured and reachable? (`false` for
    /// every in-repo backend, and for [`BackendKind::SmtLib`] hubs that
    /// probed nothing — those degrade to the kernel alone.)
    pub fn smt_available(&self) -> bool {
        self.smt.as_ref().is_some_and(|s| s.is_available())
    }

    /// The backend kind handed out by [`Solver::ctx`].
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// The shared term arena.
    pub fn arena(&self) -> &Arc<TermArena> {
        &self.arena
    }

    /// A snapshot of the statistics aggregated across every context. The
    /// `smt_reenabled` counter is merged in from the shared bridge's
    /// spawn-health state (it counts per bridge lifetime; request-level
    /// deltas fall out of [`SolverStats::since`]).
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats.snapshot();
        if let Some(smt) = &self.smt {
            stats.smt_reenabled = smt.reenabled_count();
        }
        stats
    }

    /// Records a branch arm skipped by the static value analysis: the guard
    /// was proved one-sided before any solver scope was forked for the arm.
    pub fn note_branch_pruned_static(&self) {
        self.stats
            .branches_pruned_static
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a static-analysis fact assumed into a branch context.
    pub fn note_absint_fact_seeded(&self) {
        self.stats
            .absint_facts_seeded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Resets the statistics counters (the cache and arena are kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Creates a fresh branch-scoped context with an empty assertion stack.
    pub fn ctx(&self) -> SolverCtx {
        let backend: Box<dyn SolverBackend> = match self.kind {
            BackendKind::OneShot => Box::new(OneShotBackend::new(
                Arc::clone(&self.stats),
                self.case_budget,
            )),
            BackendKind::IncrementalState => Box::new(IncrementalStateBackend::new(
                Arc::clone(&self.stats),
                self.case_budget,
            )),
            BackendKind::CachedIncremental => Box::new(CachingBackend::new(
                Box::new(IncrementalStateBackend::new(
                    Arc::clone(&self.stats),
                    self.case_budget,
                )),
                Arc::clone(&self.cache),
                Arc::clone(&self.stats),
                BackendKind::CachedIncremental.label(),
            )),
            BackendKind::SmtLib => {
                // Invariant from `with_backend_and_smt`: an SmtLib hub
                // always carries the shared bridge — a silent per-context
                // fallback here would split the one-process-per-hub state.
                let shared = self
                    .smt
                    .clone()
                    .expect("an SmtLib solver hub always carries its shared SMT bridge");
                Box::new(CachingBackend::new(
                    Box::new(SmtBackend::new(
                        Arc::clone(&self.stats),
                        self.case_budget,
                        shared,
                    )),
                    Arc::clone(&self.cache),
                    Arc::clone(&self.stats),
                    BackendKind::SmtLib.label(),
                ))
            }
        };
        SolverCtx {
            arena: Arc::clone(&self.arena),
            stats: Arc::clone(&self.stats),
            backend: RefCell::new(backend),
            kind: self.kind,
        }
    }
}

/// A branch-scoped solver context: the handle every engine and state-model
/// query goes through. Owns a backend (assertion stack); shares the arena,
/// cache and statistics with its [`Solver`] and with clones of itself.
///
/// Query methods take `&self` — the backend sits behind a [`RefCell`] so the
/// context can be threaded immutably through the state model alongside
/// mutable borrows of the rest of the configuration. A context belongs to
/// one branch of one symbolic execution, which is single-threaded; cloning
/// it (`Config` cloning at branch points) snapshots the assertion stack.
pub struct SolverCtx {
    arena: Arc<TermArena>,
    stats: Arc<AtomicSolverStats>,
    backend: RefCell<Box<dyn SolverBackend>>,
    kind: BackendKind,
}

impl Clone for SolverCtx {
    fn clone(&self) -> Self {
        SolverCtx {
            arena: Arc::clone(&self.arena),
            stats: Arc::clone(&self.stats),
            backend: RefCell::new(self.backend.borrow().boxed_clone()),
            kind: self.kind,
        }
    }
}

impl std::fmt::Debug for SolverCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SolverCtx({}, {} assertions)",
            self.kind,
            self.backend.borrow().assertions().len()
        )
    }
}

impl SolverCtx {
    // ---- terms ---------------------------------------------------------

    /// Interns an expression into the shared arena.
    pub fn intern(&self, e: &Expr) -> TermId {
        self.arena.intern(e)
    }

    /// The expression behind an id (shared, no deep clone).
    pub fn resolve(&self, t: TermId) -> Arc<Expr> {
        self.arena.resolve(t)
    }

    /// The memoised simplified form of a term.
    pub fn simplify_term(&self, t: TermId) -> TermId {
        self.arena.simplify(t)
    }

    /// The shared arena (for callers that batch-intern).
    pub fn arena(&self) -> &Arc<TermArena> {
        &self.arena
    }

    /// The backend kind behind this context.
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// The backend's stable label.
    pub fn backend_name(&self) -> &'static str {
        self.kind.label()
    }

    // ---- assertion stack -----------------------------------------------

    /// Opens an assertion scope (the engine does this at branch points; the
    /// entailment decomposition and [`SolverCtx::possibly`] use it for
    /// transient hypotheses).
    pub fn push(&self) {
        self.backend.borrow_mut().push();
    }

    /// Closes the innermost scope, restoring the assertion state exactly as
    /// it was at the matching [`SolverCtx::push`].
    pub fn pop(&self) {
        self.backend.borrow_mut().pop();
    }

    /// Asserts an interned fact into the current scope.
    pub fn assert_term(&self, t: TermId) {
        self.backend.borrow_mut().assert(&self.arena, t);
    }

    /// Interns and asserts a fact, returning its id.
    pub fn assert_expr(&self, e: &Expr) -> TermId {
        let t = self.arena.intern(e);
        self.assert_term(t);
        t
    }

    /// The path condition: every asserted fact, in assertion order, as the
    /// arena's shared expressions (resolved under one arena read lock). A
    /// snapshot: structural scans iterate it while issuing queries, whose
    /// transient scopes would otherwise borrow the stack mid-scan.
    pub fn path(&self) -> Vec<Arc<Expr>> {
        self.arena.resolve_all(self.backend.borrow().assertions())
    }

    /// Adds a fact to the path condition after simplifying it; returns
    /// whether the path is still possibly satisfiable (`false` means the
    /// caller should prune/vanish). The simplified fact is what
    /// [`SolverCtx::path`] shows; trivially-true facts are not asserted.
    pub fn assume(&self, fact: &Expr) -> bool {
        let s = self.arena.simplify(self.arena.intern(fact));
        match self.arena.resolve(s).as_bool() {
            Some(true) => true,
            Some(false) => {
                self.assert_term(s);
                false
            }
            None => {
                self.assert_term(s);
                !self.check_unsat()
            }
        }
    }

    // ---- queries -------------------------------------------------------

    /// Is the conjunction of the asserted facts definitely unsatisfiable?
    pub fn check_unsat(&self) -> bool {
        self.stats.unsat_queries.fetch_add(1, Ordering::Relaxed);
        self.backend.borrow_mut().check_unsat(&self.arena)
    }

    /// Is the current path condition still possibly satisfiable?
    pub fn feasible(&self) -> bool {
        !self.check_unsat()
    }

    /// Do the asserted facts entail an interned goal?
    pub fn entails_term(&self, goal: TermId) -> bool {
        self.stats
            .entailment_queries
            .fetch_add(1, Ordering::Relaxed);
        self.backend.borrow_mut().entails(&self.arena, goal)
    }

    /// Do the asserted facts entail the goal?
    pub fn entails(&self, goal: &Expr) -> bool {
        self.entails_term(self.arena.intern(goal))
    }

    /// Are two expressions equal in all models of the asserted facts?
    pub fn must_equal(&self, a: &Expr, b: &Expr) -> bool {
        let sa = self.arena.simplify(self.arena.intern(a));
        let sb = self.arena.simplify(self.arena.intern(b));
        if sa == sb {
            return true;
        }
        self.entails(&Expr::eq(a.clone(), b.clone()))
    }

    /// Are two expressions in one class of the congruence closure over the
    /// asserted unit facts? A cheap, sound under-approximation of
    /// [`SolverCtx::must_equal`] for search heuristics that propose or rank
    /// candidates: `true` implies `must_equal`, but an equality that holds
    /// only through arithmetic or a case split reads `false`. It runs no
    /// case split and no linear solve, touches no cache, leaves no trace in
    /// the context, and is not counted as a query.
    pub fn congruent(&self, a: &Expr, b: &Expr) -> bool {
        let sa = self.arena.simplify(self.arena.intern(a));
        let sb = self.arena.simplify(self.arena.intern(b));
        sa == sb || self.backend.borrow_mut().congruent(&self.arena, sa, sb)
    }

    /// Are two expressions different in all models of the asserted facts?
    pub fn must_differ(&self, a: &Expr, b: &Expr) -> bool {
        self.entails(&Expr::ne(a.clone(), b.clone()))
    }

    /// Can the fact hold on some extension of the asserted facts?
    pub fn possibly(&self, fact: &Expr) -> bool {
        let s = self.arena.simplify(self.arena.intern(fact));
        self.stats.unsat_queries.fetch_add(1, Ordering::Relaxed);
        let mut b = self.backend.borrow_mut();
        b.push();
        b.assert(&self.arena, s);
        let r = !b.check_unsat(&self.arena);
        b.pop();
        r
    }

    /// A snapshot of the hub-wide statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    /// Builds one context per backend kind with the same asserted facts.
    /// Includes [`BackendKind::SmtLib`]: with a solver binary present (CI's
    /// smt job, or a dev machine with z3) the whole battery doubles as the
    /// external-backend agreement suite; without one the hybrid backend
    /// degrades to the kernel and agreement holds trivially.
    fn ctxs(facts: &[Expr]) -> Vec<SolverCtx> {
        BackendKind::ALL_WITH_SMT
            .iter()
            .map(|&kind| {
                let hub = Solver::with_backend(kind);
                let ctx = hub.ctx();
                for f in facts {
                    ctx.assert_expr(f);
                }
                ctx
            })
            .collect()
    }

    /// Runs `check_unsat` through every backend and asserts they agree.
    fn check_unsat(facts: &[Expr]) -> bool {
        let results: Vec<(&'static str, bool)> = ctxs(facts)
            .iter()
            .map(|c| (c.backend_name(), c.check_unsat()))
            .collect();
        let first = results[0].1;
        for (name, r) in &results {
            assert_eq!(*r, first, "backend {name} disagrees on {facts:?}");
        }
        first
    }

    /// Runs `entails` through every backend and asserts they agree.
    fn entails(facts: &[Expr], goal: &Expr) -> bool {
        let results: Vec<(&'static str, bool)> = ctxs(facts)
            .iter()
            .map(|c| (c.backend_name(), c.entails(goal)))
            .collect();
        let first = results[0].1;
        for (name, r) in &results {
            assert_eq!(*r, first, "backend {name} disagrees on {facts:?} |- {goal}");
        }
        first
    }

    #[test]
    fn empty_facts_are_satisfiable() {
        assert!(!check_unsat(&[]));
    }

    #[test]
    fn false_fact_is_unsat() {
        assert!(check_unsat(&[Expr::Bool(false)]));
    }

    #[test]
    fn equality_conflict_via_congruence() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = vec![
            Expr::eq(x.clone(), Expr::Int(1)),
            Expr::eq(x.clone(), Expr::Int(2)),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn option_match_branches_prune() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let facts = vec![
            Expr::eq(x.clone(), Expr::none()),
            Expr::eq(x.clone(), Expr::some(y)),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn arithmetic_overflow_pruning() {
        // The push_front scenario: len == |repr|, |repr| < MAX, len + 1 > MAX.
        let mut g = VarGen::new();
        let len = g.fresh_expr();
        let repr = g.fresh_expr();
        let max = Expr::Int(u64::MAX as i128);
        let facts = vec![
            Expr::eq(len.clone(), Expr::seq_len(repr.clone())),
            Expr::lt(Expr::seq_len(repr.clone()), max.clone()),
            Expr::lt(max, Expr::add(len, Expr::Int(1))),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn entailment_of_conjunction() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = vec![Expr::eq(x.clone(), Expr::Int(5))];
        let goal = Expr::and(
            Expr::lt(Expr::Int(0), x.clone()),
            Expr::lt(x.clone(), Expr::Int(10)),
        );
        assert!(entails(&facts, &goal));
    }

    #[test]
    fn entailment_fails_when_unknown() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = vec![Expr::lt(Expr::Int(0), x.clone())];
        let goal = Expr::lt(x, Expr::Int(10));
        assert!(!entails(&facts, &goal));
    }

    #[test]
    fn disjunction_splitting() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = vec![
            Expr::or(
                Expr::eq(x.clone(), Expr::Int(1)),
                Expr::eq(x.clone(), Expr::Int(2)),
            ),
            Expr::eq(x.clone(), Expr::Int(3)),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn implication_used_as_fact() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let facts = vec![
            Expr::implies(
                Expr::eq(x.clone(), Expr::Int(1)),
                Expr::eq(y.clone(), Expr::Int(2)),
            ),
            Expr::eq(x.clone(), Expr::Int(1)),
            Expr::eq(y.clone(), Expr::Int(3)),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn sequence_length_conflict() {
        let mut g = VarGen::new();
        let s = g.fresh_expr();
        let x = g.fresh_expr();
        // s == [x] ++ s'  and  s == []  is contradictory.
        let rest = g.fresh_expr();
        let facts = vec![
            Expr::eq(s.clone(), Expr::seq_prepend(x, rest)),
            Expr::eq(s, Expr::empty_seq()),
        ];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn congruence_proves_concat_equality() {
        let mut g = VarGen::new();
        let s = g.fresh_expr();
        let t = g.fresh_expr();
        let x = g.fresh_expr();
        let facts = vec![Expr::eq(s.clone(), t.clone())];
        let goal = Expr::eq(Expr::seq_prepend(x.clone(), s), Expr::seq_prepend(x, t));
        assert!(entails(&facts, &goal));
    }

    #[test]
    fn permutation_goal_via_bags() {
        let mut g = VarGen::new();
        let xs = g.fresh_expr();
        let ys = g.fresh_expr();
        let goal = Expr::eq(
            Expr::bag_of(Expr::seq_concat(xs.clone(), ys.clone())),
            Expr::bag_of(Expr::seq_concat(ys, xs)),
        );
        assert!(entails(&[], &goal));
    }

    #[test]
    fn permutation_with_element_moved() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let xs = g.fresh_expr();
        // bag([x] ++ xs) == bag(xs ++ [x])
        let goal = Expr::eq(
            Expr::bag_of(Expr::seq_prepend(x.clone(), xs.clone())),
            Expr::bag_of(Expr::seq_snoc(xs, x)),
        );
        assert!(entails(&[], &goal));
    }

    #[test]
    fn must_equal_and_must_differ() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        for ctx in ctxs(&[Expr::eq(x.clone(), Expr::Int(7))]) {
            assert!(ctx.must_equal(&x, &Expr::Int(7)));
            assert!(ctx.must_differ(&x, &Expr::Int(8)));
            assert!(!ctx.must_differ(&x, &Expr::Int(7)));
        }
    }

    #[test]
    fn congruent_is_a_sound_closure_lookup_on_every_backend() {
        let mut g = VarGen::new();
        let [x, y, a, b, c, e, h, v, w] = [(); 9].map(|_| g.fresh_expr());
        let f = |t: &Expr| Expr::app("f", vec![t.clone()]);
        let single = Expr::seq(vec![e.clone()]);
        let chain = [
            Expr::eq(h.clone(), v.clone()),
            Expr::eq(v.clone(), Expr::some(w.clone())),
        ];
        // What the closure sees: congruence, injectivity, normalisation
        // (`[e] ++ c` steered through `c`'s concrete member `[]`), a chain
        // of equalities with no single fact for `h`, and anything at all
        // once the unit facts contradict each other.
        let seen = [
            (vec![Expr::eq(x.clone(), y.clone())], f(&x), f(&y)),
            (
                vec![Expr::eq(Expr::some(a.clone()), Expr::some(b.clone()))],
                a.clone(),
                b.clone(),
            ),
            (
                vec![Expr::eq(c.clone(), Expr::empty_seq())],
                Expr::seq_concat(single.clone(), c.clone()),
                single,
            ),
            (chain.to_vec(), h.clone(), Expr::some(w.clone())),
            (
                vec![
                    Expr::eq(x.clone(), Expr::Int(1)),
                    Expr::eq(x.clone(), Expr::Int(2)),
                ],
                a.clone(),
                b.clone(),
            ),
        ];
        for (facts, l, r) in &seen {
            for ctx in ctxs(facts) {
                let kind = ctx.backend_name();
                assert!(
                    ctx.congruent(l, r),
                    "{kind}: {facts:?} puts {l}, {r} in one class"
                );
                assert!(ctx.must_equal(l, r), "{kind}: congruent implies must_equal");
            }
        }
        // The documented limit: only arithmetic proves `x == 1` here.
        let one = Expr::Int(1);
        let bounds = [
            Expr::le(x.clone(), one.clone()),
            Expr::le(one.clone(), x.clone()),
        ];
        for ctx in ctxs(&bounds) {
            let kind = ctx.backend_name();
            assert!(
                ctx.must_equal(&x, &one),
                "{kind}: x <= 1, 1 <= x proves x == 1"
            );
            assert!(!ctx.congruent(&x, &one), "{kind}: but not by congruence");
        }
        // No trace: the path, the counters and the next answers are those
        // of a clone that never asked.
        let facts: Vec<Expr> = chain.iter().chain(&bounds).cloned().collect();
        let goals = [
            Expr::eq(x.clone(), one.clone()),
            Expr::eq(f(&h), f(&Expr::some(w.clone()))),
            Expr::eq(f(&a), f(&h)),
        ];
        for ctx in ctxs(&facts) {
            let kind = ctx.backend_name();
            let twin = ctx.clone();
            let (path, before) = (ctx.path(), ctx.stats());
            assert!(ctx.congruent(&h, &Expr::some(w.clone())), "{kind}");
            assert!(!ctx.congruent(&x, &one), "{kind}");
            // Interns terms the context has never seen.
            assert!(!ctx.congruent(&f(&a), &f(&h)), "{kind}");
            assert_eq!(ctx.path(), path, "{kind}: path");
            let untimed = |s: SolverStats| SolverStats {
                kernel_nanos: 0,
                ..s
            };
            assert_eq!(untimed(ctx.stats()), untimed(before), "{kind}: counters");
            assert_eq!(ctx.check_unsat(), twin.check_unsat(), "{kind}: check_unsat");
            for goal in &goals {
                assert_eq!(ctx.entails(goal), twin.entails(goal), "{kind}: {goal}");
            }
        }
    }

    #[test]
    fn interleaved_checks_do_not_stale_linear_atom_keys() {
        // Regression: a congruence merge absorbing an atom-keyed class into
        // a class that carries no atoms *yet* must still reach the linear
        // store — rows added later are keyed under the surviving
        // representative and would otherwise never meet the absorbed-key
        // rows. The merge arrives as the equality `f(a) == f(b)`, which
        // substitutes the absorbed key away. The `q != f(b)` fact interns
        // `f(b)` early so the merge keeps its (atom-free) class as
        // representative; the interleaved check forces the incremental
        // state to settle mid-sequence.
        for kind in BackendKind::ALL {
            let hub = Solver::with_backend(kind);
            let ctx = hub.ctx();
            let mut g = VarGen::new();
            let (a, b, q) = (g.fresh_expr(), g.fresh_expr(), g.fresh_expr());
            let fa = Expr::app("f", vec![a.clone()]);
            let fb = Expr::app("f", vec![b.clone()]);
            ctx.assert_expr(&Expr::ne(q, fb.clone()));
            ctx.assert_expr(&Expr::ge(fa, Expr::Int(3)));
            ctx.assert_expr(&Expr::eq(a, b));
            assert!(!ctx.check_unsat(), "{kind}: still satisfiable");
            ctx.assert_expr(&Expr::lt(fb, Expr::Int(3)));
            assert!(
                ctx.check_unsat(),
                "{kind}: f(a) >= 3, a == b, f(b) < 3 must refute"
            );
        }
    }

    #[test]
    fn merge_equalities_roll_back_with_their_scope() {
        for kind in BackendKind::ALL {
            let hub = Solver::with_backend(kind);
            let ctx = hub.ctx();
            let mut g = VarGen::new();
            let (a, b) = (g.fresh_expr(), g.fresh_expr());
            let fa = Expr::app("f", vec![a.clone()]);
            let fb = Expr::app("f", vec![b.clone()]);
            ctx.assert_expr(&Expr::ge(fa, Expr::Int(3)));
            assert!(!ctx.check_unsat(), "{kind}: f(a) >= 3 alone");
            ctx.push();
            ctx.assert_expr(&Expr::eq(a, b));
            ctx.assert_expr(&Expr::lt(fb.clone(), Expr::Int(3)));
            assert!(
                ctx.check_unsat(),
                "{kind}: f(a) >= 3, a == b, f(b) < 3 must refute"
            );
            ctx.pop();
            ctx.assert_expr(&Expr::lt(fb, Expr::Int(3)));
            assert!(
                !ctx.check_unsat(),
                "{kind}: without a == b, f(b) < 3 is satisfiable"
            );
        }
    }

    #[test]
    fn overflowing_coefficients_do_not_refute() {
        // `x <= usize::MAX` and `usize::MAX * x >= 1` hold at x = 1.
        // Eliminating x multiplies the two coefficients, and 2^128 does not
        // fit in i128: a wrapped product would read as a contradiction.
        let max = Expr::Int(u64::MAX as i128);
        for kind in BackendKind::ALL {
            let hub = Solver::with_backend(kind);
            let ctx = hub.ctx();
            let x = Expr::lvar("x");
            ctx.assert_expr(&Expr::le(x.clone(), max.clone()));
            ctx.assert_expr(&Expr::ge(Expr::mul(max.clone(), x), Expr::Int(1)));
            assert!(!ctx.check_unsat(), "{kind}: the facts hold at x = 1");
            assert!(!ctx.entails(&Expr::Bool(false)), "{kind}: entails false");
        }
    }

    #[test]
    fn long_equality_chains_agree_on_every_backend() {
        for n in [16, 32, 64] {
            let x = |i: usize| Expr::lvar(&format!("x{i}"));
            let offsets: Vec<i128> = (0..n).map(|i| 1 + (i as i128 * 7) % 5).collect();
            let sum: i128 = offsets.iter().sum();
            for kind in BackendKind::ALL {
                let hub = Solver::with_backend(kind);
                let ctx = hub.ctx();
                for (i, c) in offsets.iter().enumerate() {
                    ctx.assert_expr(&Expr::eq(x(i + 1), Expr::add(x(i), Expr::Int(*c))));
                }
                assert!(ctx.entails(&Expr::lt(x(0), x(n))), "{kind} n={n}: x0 < xn");
                assert!(
                    ctx.entails(&Expr::eq(x(n), Expr::add(x(0), Expr::Int(sum)))),
                    "{kind} n={n}: xn == x0 + sum"
                );
                assert!(
                    !ctx.entails(&Expr::eq(x(n), Expr::add(x(0), Expr::Int(sum + 1)))),
                    "{kind} n={n}: xn == x0 + sum + 1"
                );
            }
        }
    }

    #[test]
    fn negated_atom_conflict() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let atom = Expr::lt(x.clone(), Expr::Int(3));
        let facts = vec![atom.clone(), Expr::not(atom)];
        assert!(check_unsat(&facts));
    }

    #[test]
    fn le_and_ge_do_not_refute() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let facts = vec![
            Expr::le(x.clone(), y.clone()),
            Expr::le(y.clone(), x.clone()),
        ];
        // The facts are satisfiable; nothing may be refuted.
        assert!(!check_unsat(&facts));
    }

    #[test]
    fn assume_reports_infeasibility() {
        let hub = Solver::new();
        let ctx = hub.ctx();
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        assert!(ctx.assume(&Expr::eq(x.clone(), Expr::Int(1))));
        assert!(!ctx.assume(&Expr::eq(x, Expr::Int(2))));
        assert!(!ctx.feasible());
    }

    #[test]
    fn possibly_checks_extensions() {
        let hub = Solver::new();
        let ctx = hub.ctx();
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        assert!(ctx.possibly(&Expr::eq(x.clone(), Expr::Int(1))));
        ctx.assert_expr(&Expr::ne(x.clone(), Expr::Int(1)));
        assert!(!ctx.possibly(&Expr::eq(x, Expr::Int(1))));
        // The transient hypothesis was popped: the path itself is satisfiable.
        assert!(ctx.feasible());
    }

    #[test]
    fn push_pop_restores_exact_assertion_state() {
        for kind in BackendKind::ALL_WITH_SMT {
            let hub = Solver::with_backend(kind);
            let ctx = hub.ctx();
            let mut g = VarGen::new();
            let x = g.fresh_expr();
            ctx.assert_expr(&Expr::lt(Expr::Int(0), x.clone()));
            let before = ctx.path();
            assert!(ctx.feasible());

            ctx.push();
            ctx.assert_expr(&Expr::eq(x.clone(), Expr::Int(0)));
            assert!(!ctx.feasible(), "{kind}: contradiction inside the scope");
            ctx.pop();

            assert_eq!(ctx.path(), before, "{kind}: stack restored");
            assert!(ctx.feasible(), "{kind}: satisfiable again after pop");

            // Nested scopes unwind one at a time.
            ctx.push();
            ctx.push();
            ctx.assert_expr(&Expr::eq(x.clone(), Expr::Int(5)));
            ctx.pop();
            ctx.pop();
            assert_eq!(ctx.path(), before);
        }
    }

    #[test]
    fn clones_have_independent_assertion_stacks() {
        let hub = Solver::new();
        let ctx = hub.ctx();
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        ctx.assert_expr(&Expr::lt(Expr::Int(0), x.clone()));
        let branch = ctx.clone();
        branch.assert_expr(&Expr::eq(x.clone(), Expr::Int(0)));
        assert!(!branch.feasible());
        assert!(ctx.feasible(), "sibling branch is unaffected");
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        // The PR-1 cache keyed on the literal fact vector, so permuted fact
        // orders missed. The canonical TermId-set key must hit.
        let hub = Solver::with_backend(BackendKind::CachedIncremental);
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let a = Expr::eq(x.clone(), Expr::Int(5));
        let b = Expr::lt(Expr::Int(0), x.clone());
        let goal = Expr::lt(x.clone(), Expr::Int(10));

        let ctx1 = hub.ctx();
        ctx1.assert_expr(&a);
        ctx1.assert_expr(&b);
        assert!(ctx1.entails(&goal));
        let hits_before = hub.stats().cache_hits;

        // Same facts, opposite order, fresh context.
        let ctx2 = hub.ctx();
        ctx2.assert_expr(&b);
        ctx2.assert_expr(&a);
        assert!(ctx2.entails(&goal));
        assert!(
            hub.stats().cache_hits > hits_before,
            "permuted assertion order must hit the canonical cache"
        );
    }

    #[test]
    fn duplicate_facts_share_a_cache_entry() {
        let hub = Solver::with_backend(BackendKind::CachedIncremental);
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let a = Expr::eq(x.clone(), Expr::Int(5));

        let ctx1 = hub.ctx();
        ctx1.assert_expr(&a);
        let _ = ctx1.check_unsat();
        let hits_before = hub.stats().cache_hits;

        let ctx2 = hub.ctx();
        ctx2.assert_expr(&a);
        ctx2.assert_expr(&a); // deduplicated by the canonical key
        let _ = ctx2.check_unsat();
        assert!(hub.stats().cache_hits > hits_before);
    }

    #[test]
    fn cached_backend_explores_fewer_leaf_cases() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = [
            Expr::eq(x.clone(), Expr::Int(1)),
            Expr::eq(x.clone(), Expr::Int(2)),
        ];
        let run = |kind: BackendKind| {
            let hub = Solver::with_backend(kind);
            let ctx = hub.ctx();
            for f in &facts {
                ctx.assert_expr(f);
            }
            // The same query repeated: the cache answers the repeats.
            for _ in 0..5 {
                assert!(ctx.check_unsat());
            }
            hub.stats().cases_explored
        };
        let one_shot = run(BackendKind::OneShot);
        let cached = run(BackendKind::CachedIncremental);
        assert!(
            cached < one_shot,
            "cached {cached} must explore strictly fewer leaf cases than one-shot {one_shot}"
        );
    }

    #[test]
    fn stats_are_collected() {
        let hub = Solver::new();
        let ctx = hub.ctx();
        ctx.assert_expr(&Expr::Bool(false));
        let _ = ctx.check_unsat();
        let _ = ctx.entails(&Expr::Bool(true));
        let st = hub.stats();
        assert!(st.unsat_queries >= 1);
        assert!(st.entailment_queries >= 1);
        hub.reset_stats();
        assert_eq!(hub.stats(), SolverStats::default());
    }
}
