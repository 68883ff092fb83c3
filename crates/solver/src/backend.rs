//! Pluggable solver backends.
//!
//! A [`SolverBackend`] owns an assertion stack over interned terms and
//! answers refutation/entailment queries about it. The symbolic-execution
//! engine talks to backends exclusively through [`crate::SolverCtx`]: it
//! pushes a scope at each branch point, asserts new path facts incrementally
//! and queries in place — instead of shipping the whole path condition on
//! every call.
//!
//! Two in-repo kernel backends ship, plus the external SMT-LIB bridge
//! ([`crate::smtlib::SmtBackend`]):
//!
//! * [`OneShotBackend`] — the reference: every query re-resolves and
//!   re-simplifies the whole assertion stack and runs the refutation kernel
//!   from scratch. The differential tests check the other backends against
//!   it, and the lint vacuity pass (one query per fresh context) runs on it.
//! * [`IncrementalStateBackend`] — incremental *theory state*, the default:
//!   a persistent congruence/linear closure with an undo trail does each
//!   literal's theory work once; queries consult the maintained closure and
//!   only re-split disjunctive literals.
//!
//! No backend remembers answers: every query is answered from the context's
//! own assertion stack, so no result crosses contexts, branches or
//! obligations.
//!
//! Adding a backend means implementing the trait's six core operations;
//! `entails` can lean on [`entails_by_decomposition`], and `congruent` can
//! ask a [`kernel::IncrementalState`] built from the stack, as the one-shot
//! reference does.

use crate::arena::{TermArena, TermId};
use crate::expr::{BinOp, Expr};
use crate::kernel;
use crate::simplify::simplify;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Statistics collected by the solver layer (exposed per-backend through the
/// verification reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of top-level `check_unsat` queries answered.
    pub unsat_queries: u64,
    /// Number of top-level entailment queries answered.
    pub entailment_queries: u64,
    /// Number of leaf conjunctions explored by the refutation kernel (the
    /// "raw work" measure of the ablation).
    pub cases_explored: u64,
    /// Always 0: no backend caches query answers any more. Kept so that
    /// readers written against the old query cache still build.
    #[deprecated(note = "the query cache is gone; this counter is always 0")]
    pub cache_hits: u64,
    /// Queries shipped to an external SMT process ([`BackendKind::SmtLib`]
    /// only; the kernel had failed to refute them first).
    pub smt_queries: u64,
    /// External queries answered `unsat` — refutations the kernel alone
    /// could not produce.
    pub smt_unsat: u64,
    /// External solves that timed out or whose process died (each one
    /// kills the process; the next solve spawns a replacement).
    pub smt_failures: u64,
    /// Times the SMT bridge came back after a backoff window: spawns had
    /// failed repeatedly and the bridge was resting, then a re-probe
    /// succeeded and external solving resumed (filled from the bridge's
    /// shared spawn-health state, not the per-context counters).
    pub smt_reenabled: u64,
    /// Wall-clock nanoseconds spent inside the refutation kernel (theory
    /// work at assert time plus query-time case splits), summed across
    /// contexts. The denominator for "is the solver the bottleneck?".
    pub kernel_nanos: u64,
    /// Queries answered straight from the maintained incremental theory
    /// state — no kernel re-run, no case split
    /// ([`BackendKind::IncrementalState`] and the kernel half of
    /// [`BackendKind::SmtLib`]).
    pub incremental_hits: u64,
    /// Verification targets answered from the persistent on-disk proof
    /// cache without re-proving (filled by the driver/daemon, not the
    /// solver: the whole proof was skipped, so no solver work occurred).
    pub disk_cache_hits: u64,
    /// Verification targets that consulted the persistent proof cache and
    /// had to be (re-)proved.
    pub disk_cache_misses: u64,
    /// Verified outcomes written back to the persistent proof cache.
    pub disk_cache_writes: u64,
    /// Always 0: the engine no longer consults the static value analysis
    /// at branches. Kept so that readers written against the old static
    /// branch pruning still build.
    #[deprecated(note = "static branch pruning is gone; this counter is always 0")]
    pub branches_pruned_static: u64,
    /// Always 0: the engine no longer seeds static-analysis facts into
    /// branch contexts. Kept so that readers written against the old
    /// static branch pruning still build.
    #[deprecated(note = "static fact seeding is gone; this counter is always 0")]
    pub absint_facts_seeded: u64,
}

impl SolverStats {
    /// Field-wise difference (`self - earlier`), used to report the work of
    /// one batch out of the hub's cumulative counters.
    pub fn since(self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            unsat_queries: self.unsat_queries.saturating_sub(earlier.unsat_queries),
            entailment_queries: self
                .entailment_queries
                .saturating_sub(earlier.entailment_queries),
            cases_explored: self.cases_explored.saturating_sub(earlier.cases_explored),
            smt_queries: self.smt_queries.saturating_sub(earlier.smt_queries),
            smt_unsat: self.smt_unsat.saturating_sub(earlier.smt_unsat),
            smt_failures: self.smt_failures.saturating_sub(earlier.smt_failures),
            smt_reenabled: self.smt_reenabled.saturating_sub(earlier.smt_reenabled),
            kernel_nanos: self.kernel_nanos.saturating_sub(earlier.kernel_nanos),
            incremental_hits: self
                .incremental_hits
                .saturating_sub(earlier.incremental_hits),
            disk_cache_hits: self.disk_cache_hits.saturating_sub(earlier.disk_cache_hits),
            disk_cache_misses: self
                .disk_cache_misses
                .saturating_sub(earlier.disk_cache_misses),
            disk_cache_writes: self
                .disk_cache_writes
                .saturating_sub(earlier.disk_cache_writes),
            // The deprecated counters stay 0.
            ..SolverStats::default()
        }
    }

    /// Total queries answered (refutation plus entailment).
    pub fn queries(self) -> u64 {
        self.unsat_queries + self.entailment_queries
    }
}

/// Lock-free counters shared by every [`crate::SolverCtx`] handle of a
/// [`crate::Solver`], so parallel workers aggregate without serialising.
#[derive(Debug, Default)]
pub(crate) struct AtomicSolverStats {
    pub(crate) unsat_queries: AtomicU64,
    pub(crate) entailment_queries: AtomicU64,
    pub(crate) cases_explored: AtomicU64,
    pub(crate) smt_queries: AtomicU64,
    pub(crate) smt_unsat: AtomicU64,
    pub(crate) smt_failures: AtomicU64,
    pub(crate) kernel_nanos: AtomicU64,
    pub(crate) incremental_hits: AtomicU64,
}

impl AtomicSolverStats {
    pub(crate) fn snapshot(&self) -> SolverStats {
        SolverStats {
            unsat_queries: self.unsat_queries.load(Ordering::Relaxed),
            entailment_queries: self.entailment_queries.load(Ordering::Relaxed),
            cases_explored: self.cases_explored.load(Ordering::Relaxed),
            smt_queries: self.smt_queries.load(Ordering::Relaxed),
            smt_unsat: self.smt_unsat.load(Ordering::Relaxed),
            smt_failures: self.smt_failures.load(Ordering::Relaxed),
            // Spawn-health lives in the shared SMT bridge, not the
            // per-context counters; `Solver::stats` merges it in.
            smt_reenabled: 0,
            kernel_nanos: self.kernel_nanos.load(Ordering::Relaxed),
            incremental_hits: self.incremental_hits.load(Ordering::Relaxed),
            // Disk-cache counters live at the driver/daemon layer, not in
            // the solver hub: a disk hit means no solver ever ran.
            disk_cache_hits: 0,
            disk_cache_misses: 0,
            disk_cache_writes: 0,
            // The deprecated counters stay 0.
            ..SolverStats::default()
        }
    }

    pub(crate) fn reset(&self) {
        self.unsat_queries.store(0, Ordering::Relaxed);
        self.entailment_queries.store(0, Ordering::Relaxed);
        self.cases_explored.store(0, Ordering::Relaxed);
        self.smt_queries.store(0, Ordering::Relaxed);
        self.smt_unsat.store(0, Ordering::Relaxed);
        self.smt_failures.store(0, Ordering::Relaxed);
        self.kernel_nanos.store(0, Ordering::Relaxed);
        self.incremental_hits.store(0, Ordering::Relaxed);
    }
}

/// Which backend a [`crate::Solver`] hands out from [`crate::Solver::ctx`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`OneShotBackend`]: re-simplify everything on every query (the
    /// differential reference).
    OneShot,
    /// [`IncrementalStateBackend`], the default: persistent
    /// congruence/linear state with an undo trail — queries consult the
    /// maintained closure and only re-split disjunctive literals.
    #[default]
    IncrementalState,
    /// [`crate::smtlib::SmtBackend`]: the in-repo kernel first, an
    /// external SMT-LIB2 process (z3/cvc5/`GILLIAN_SMT`)
    /// for whatever the kernel cannot refute. Degrades to the kernel alone
    /// when no solver binary is found.
    SmtLib,
}

impl BackendKind {
    /// Every in-repo backend, in ablation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::OneShot, BackendKind::IncrementalState];

    /// Every selectable backend, including the external SMT-LIB bridge
    /// (which degrades to the kernel when no solver binary is probed).
    pub const ALL_WITH_SMT: [BackendKind; 3] = [
        BackendKind::OneShot,
        BackendKind::IncrementalState,
        BackendKind::SmtLib,
    ];

    /// A stable machine-readable label (reports, JSON, bench output).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::OneShot => "one-shot",
            BackendKind::IncrementalState => "incremental-state",
            BackendKind::SmtLib => "smtlib",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A branch-scoped solver backend: an assertion stack plus refutation and
/// entailment queries over it. Queries are *sound for refutation*: `true`
/// answers are definitive, `false` means "could not establish".
pub trait SolverBackend: Send {
    /// The backend's stable label.
    fn name(&self) -> &'static str;

    /// Opens a new assertion scope.
    fn push(&mut self);

    /// Closes the innermost scope, dropping the facts asserted inside it.
    /// Popping with no open scope is a no-op.
    fn pop(&mut self);

    /// Asserts a fact into the current scope.
    fn assert(&mut self, arena: &TermArena, fact: TermId);

    /// Is the conjunction of the asserted facts definitely unsatisfiable?
    fn check_unsat(&mut self, arena: &TermArena) -> bool;

    /// Do the asserted facts entail the goal?
    fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool;

    /// Are the two (simplified) terms in one class of the congruence
    /// closure over the asserted unit facts? See
    /// [`kernel::IncrementalState::congruent`]: sound (`true` implies that
    /// `entails` would prove them equal), no case split, no linear solve,
    /// and no trace left in the backend's state.
    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool;

    /// The ids passed to [`SolverBackend::assert`] in the open scopes, in
    /// assertion order. This backs [`crate::SolverCtx::path`], the only copy
    /// of the path condition that the engine's structural scans read, so
    /// the order and the contents at rest (no transient `push`/`pop` pair
    /// open) are load-bearing: every fact asserted and not popped, each
    /// exactly as asserted, nothing else. Borrowed, so reading it costs no
    /// copy of the stack.
    fn assertions(&self) -> &[TermId];

    /// Clones the backend for a branching symbolic execution: the clone gets
    /// an independent assertion stack but shares the statistics (and, for
    /// the SMT bridge, the external processes) with the original.
    fn boxed_clone(&self) -> Box<dyn SolverBackend>;
}

/// Implements `entails` on top of `push`/`assert`/`pop`/`check_unsat` by
/// decomposing the goal: conjunctions split, implications assert their
/// hypothesis into a scope, disjunctions try each arm then refute the
/// negation, and any other goal is refuted by asserting its negation.
/// Recursive sub-queries go back through the backend's own entry points.
pub fn entails_by_decomposition<B: SolverBackend + ?Sized>(
    b: &mut B,
    arena: &TermArena,
    goal: TermId,
) -> bool {
    let goal = arena.resolve(arena.simplify(goal));
    match goal.as_ref() {
        Expr::Bool(true) => true,
        Expr::Bool(false) => b.check_unsat(arena),
        Expr::BinOp(BinOp::And, x, y) => {
            b.entails(arena, arena.intern(x)) && b.entails(arena, arena.intern(y))
        }
        Expr::BinOp(BinOp::Implies, x, y) => {
            b.push();
            b.assert(arena, arena.intern(x));
            let r = b.entails(arena, arena.intern(y));
            b.pop();
            r
        }
        Expr::BinOp(BinOp::Or, x, y) => {
            let (ix, iy) = (arena.intern(x), arena.intern(y));
            if b.entails(arena, ix) || b.entails(arena, iy) {
                return true;
            }
            b.push();
            b.assert(
                arena,
                arena.intern_owned(simplify(&Expr::not((**x).clone()))),
            );
            b.assert(
                arena,
                arena.intern_owned(simplify(&Expr::not((**y).clone()))),
            );
            let r = b.check_unsat(arena);
            b.pop();
            r
        }
        other => {
            b.push();
            b.assert(
                arena,
                arena.intern_owned(simplify(&Expr::not(other.clone()))),
            );
            let r = b.check_unsat(arena);
            b.pop();
            r
        }
    }
}

// ---------------------------------------------------------------------------
// One-shot reference
// ---------------------------------------------------------------------------

/// The reference backend: stores raw asserted ids and, on **every** query,
/// re-resolves and re-simplifies the whole stack from scratch (no arena
/// memoisation) and runs the refutation kernel over the result.
/// The differential tests compare every other backend against it, and the
/// lint vacuity pass uses it: one query per fresh context, which is exactly
/// one simplify → flatten → refute, and no SMT process.
#[derive(Debug)]
pub struct OneShotBackend {
    stats: Arc<AtomicSolverStats>,
    case_budget: usize,
    asserted: Vec<TermId>,
    scopes: Vec<usize>,
}

impl OneShotBackend {
    pub(crate) fn new(stats: Arc<AtomicSolverStats>, case_budget: usize) -> Self {
        OneShotBackend {
            stats,
            case_budget,
            asserted: Vec::new(),
            scopes: Vec::new(),
        }
    }

    /// The whole stack re-simplified and flattened into literals, and
    /// whether some fact simplified to `false`. Deliberately the
    /// free-function simplifier: the reference re-does the full
    /// simplification walk per query.
    fn literals(&self, arena: &TermArena) -> (Vec<Arc<Expr>>, bool) {
        let mut literals = Vec::new();
        let mut definitely_false = false;
        for &id in &self.asserted {
            let s = simplify(&arena.resolve(id));
            kernel::flatten_conjuncts(&s, &mut literals, &mut definitely_false);
        }
        (literals, definitely_false)
    }
}

impl SolverBackend for OneShotBackend {
    fn name(&self) -> &'static str {
        BackendKind::OneShot.label()
    }

    fn push(&mut self) {
        self.scopes.push(self.asserted.len());
    }

    fn pop(&mut self) {
        if let Some(mark) = self.scopes.pop() {
            self.asserted.truncate(mark);
        }
    }

    fn assert(&mut self, _arena: &TermArena, fact: TermId) {
        self.asserted.push(fact);
    }

    fn check_unsat(&mut self, arena: &TermArena) -> bool {
        let (literals, definitely_false) = self.literals(arena);
        if definitely_false {
            return true;
        }
        // Timed from here so `kernel_nanos` covers the same work in every
        // backend (kernel/theory time, not simplification).
        let start = Instant::now();
        let out = kernel::refute(&literals, self.case_budget);
        self.stats
            .cases_explored
            .fetch_add(out.leaf_cases, Ordering::Relaxed);
        self.stats
            .kernel_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out.refuted
    }

    fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool {
        entails_by_decomposition(self, arena, goal)
    }

    /// Builds a fresh incremental state from the whole stack and asks it.
    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool {
        let (literals, definitely_false) = self.literals(arena);
        let (a, b) = (arena.resolve(a), arena.resolve(b));
        let start = Instant::now();
        let mut state = kernel::IncrementalState::new();
        if definitely_false {
            state.set_false();
        }
        for lit in &literals {
            state.assert_lit(lit);
        }
        let equal = state.congruent(&a, &b);
        self.stats
            .kernel_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        equal
    }

    fn assertions(&self) -> &[TermId] {
        &self.asserted
    }

    fn boxed_clone(&self) -> Box<dyn SolverBackend> {
        Box::new(OneShotBackend {
            stats: Arc::clone(&self.stats),
            case_budget: self.case_budget,
            asserted: self.asserted.clone(),
            scopes: self.scopes.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Incremental-state backend
// ---------------------------------------------------------------------------

/// The truly incremental backend: a persistent [`kernel::IncrementalState`]
/// (congruence closure + linear context with an undo trail) does each
/// literal's theory work **once, at assert time**; `check_unsat` consults
/// the maintained closure and re-runs only the case split over disjunctive
/// literals (each disjunct's decomposition memoised). `push`/`pop` restore
/// exact state in O(changes since the push), and branch clones snapshot the
/// whole trail-backed state instead of rebuilding it.
///
/// Soundness is inherited from the state's contract: every maintained fact
/// is a consequence of literals currently on the stack, so `refuted` still
/// means genuinely unsatisfiable. (`Clone` because the SMT-LIB backend
/// embeds one as its kernel half.)
#[derive(Clone, Debug)]
pub struct IncrementalStateBackend {
    stats: Arc<AtomicSolverStats>,
    case_budget: usize,
    state: kernel::IncrementalState,
    /// Raw asserted ids, in assertion order.
    raw: Vec<TermId>,
    scopes: Vec<usize>,
}

impl IncrementalStateBackend {
    pub(crate) fn new(stats: Arc<AtomicSolverStats>, case_budget: usize) -> Self {
        IncrementalStateBackend {
            stats,
            case_budget,
            state: kernel::IncrementalState::new(),
            raw: Vec::new(),
            scopes: Vec::new(),
        }
    }
}

impl SolverBackend for IncrementalStateBackend {
    fn name(&self) -> &'static str {
        BackendKind::IncrementalState.label()
    }

    fn push(&mut self) {
        self.scopes.push(self.raw.len());
        self.state.push();
    }

    fn pop(&mut self) {
        if let Some(mark) = self.scopes.pop() {
            self.raw.truncate(mark);
            self.state.pop();
        }
    }

    fn assert(&mut self, arena: &TermArena, fact: TermId) {
        self.raw.push(fact);
        let simplified = arena.resolve(arena.simplify(fact));
        let mut lits = Vec::new();
        let mut definitely_false = false;
        kernel::flatten_shared(&simplified, &mut lits, &mut definitely_false);
        // The timer starts after simplify/flatten: every backend does that
        // work untimed, so `kernel_nanos` stays comparable across backends
        // (it measures theory/kernel work only).
        let start = Instant::now();
        if definitely_false {
            self.state.set_false();
        }
        for lit in &lits {
            self.state.assert_lit(lit);
        }
        self.stats
            .kernel_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn check_unsat(&mut self, arena: &TermArena) -> bool {
        let _ = arena;
        let start = Instant::now();
        let out = self.state.check(self.case_budget);
        if out.fast {
            self.stats.incremental_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .cases_explored
            .fetch_add(out.leaf_cases, Ordering::Relaxed);
        self.stats
            .kernel_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out.refuted
    }

    fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool {
        entails_by_decomposition(self, arena, goal)
    }

    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool {
        let (a, b) = (arena.resolve(a), arena.resolve(b));
        let start = Instant::now();
        let equal = self.state.congruent(&a, &b);
        self.stats
            .kernel_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        equal
    }

    fn assertions(&self) -> &[TermId] {
        &self.raw
    }

    fn boxed_clone(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }
}
