//! Pluggable solver backends.
//!
//! A [`SolverBackend`] owns an assertion stack over interned terms and
//! answers refutation/entailment queries about it. The symbolic-execution
//! engine talks to backends exclusively through [`crate::SolverCtx`]: it
//! pushes a scope at each branch point, asserts new path facts incrementally
//! and queries in place — instead of shipping the whole path condition on
//! every call.
//!
//! Three in-repo kernel backends ship, plus the external SMT-LIB bridge
//! ([`crate::smtlib::SmtBackend`]):
//!
//! * [`OneShotBackend`] — the reference: every query re-resolves and
//!   re-simplifies the whole assertion stack and runs the refutation kernel
//!   from scratch. The differential tests check the other backends against
//!   it, and the lint vacuity pass (one query per fresh context) runs on it.
//! * [`IncrementalStateBackend`] — incremental *theory state*: a persistent
//!   congruence/linear closure with an undo trail does each literal's theory
//!   work once; queries consult the maintained closure and only re-split
//!   disjunctive literals.
//! * [`CachingBackend`] — a decorator owning a canonicalised query cache: the
//!   key is the **sorted, deduplicated** set of simplified assertion
//!   [`TermId`]s (plus the goal), so `{a, b}` and `{b, a}` hit the same
//!   entry and the cache is shared across branch clones and worker threads.
//!   The default ([`BackendKind::CachedIncremental`]) wraps the
//!   incremental-state backend.
//!
//! Adding a backend means implementing the trait's six core operations;
//! `entails` can lean on [`entails_by_decomposition`], and `congruent` can
//! ask a [`kernel::IncrementalState`] built from the stack, as the one-shot
//! reference does.

use crate::arena::{TermArena, TermId};
use crate::expr::{BinOp, Expr};
use crate::kernel;
use crate::simplify::simplify;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
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
    /// Canonical-key cache hits.
    pub cache_hits: u64,
    /// Queries shipped to an external SMT process ([`BackendKind::SmtLib`]
    /// only; the kernel had failed to refute them first).
    pub smt_queries: u64,
    /// External queries answered `unsat` — refutations the kernel alone
    /// could not produce.
    pub smt_unsat: u64,
    /// External solves that timed out or whose process died (each one
    /// kills/respawns the process and abandons its in-flight cache entry).
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
    /// ([`BackendKind::IncrementalState`] and the backends wrapping it).
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
    /// Branch arms skipped outright because the static value analysis
    /// proved the guard one-sided (filled by the engine's `GotoIf` step:
    /// no solver scope was ever forked for the arm).
    pub branches_pruned_static: u64,
    /// Interval/shape facts from the static value analysis assumed into a
    /// branch's solver context (filled by the engine: each fact tightens
    /// the path condition before any kernel work).
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
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
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
            branches_pruned_static: self
                .branches_pruned_static
                .saturating_sub(earlier.branches_pruned_static),
            absint_facts_seeded: self
                .absint_facts_seeded
                .saturating_sub(earlier.absint_facts_seeded),
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
    pub(crate) cache_hits: AtomicU64,
    pub(crate) smt_queries: AtomicU64,
    pub(crate) smt_unsat: AtomicU64,
    pub(crate) smt_failures: AtomicU64,
    pub(crate) kernel_nanos: AtomicU64,
    pub(crate) incremental_hits: AtomicU64,
    pub(crate) branches_pruned_static: AtomicU64,
    pub(crate) absint_facts_seeded: AtomicU64,
}

impl AtomicSolverStats {
    pub(crate) fn snapshot(&self) -> SolverStats {
        SolverStats {
            unsat_queries: self.unsat_queries.load(Ordering::Relaxed),
            entailment_queries: self.entailment_queries.load(Ordering::Relaxed),
            cases_explored: self.cases_explored.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
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
            branches_pruned_static: self.branches_pruned_static.load(Ordering::Relaxed),
            absint_facts_seeded: self.absint_facts_seeded.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.unsat_queries.store(0, Ordering::Relaxed);
        self.entailment_queries.store(0, Ordering::Relaxed);
        self.cases_explored.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.smt_queries.store(0, Ordering::Relaxed);
        self.smt_unsat.store(0, Ordering::Relaxed);
        self.smt_failures.store(0, Ordering::Relaxed);
        self.kernel_nanos.store(0, Ordering::Relaxed);
        self.incremental_hits.store(0, Ordering::Relaxed);
        self.branches_pruned_static.store(0, Ordering::Relaxed);
        self.absint_facts_seeded.store(0, Ordering::Relaxed);
    }
}

/// Which backend a [`crate::Solver`] hands out from [`crate::Solver::ctx`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`OneShotBackend`]: re-simplify everything on every query (the
    /// differential reference).
    OneShot,
    /// [`IncrementalStateBackend`]: persistent congruence/linear state with
    /// an undo trail — queries consult the maintained closure and only
    /// re-split disjunctive literals. Uncached, so tests reach the trail
    /// undo without cache hits answering first.
    IncrementalState,
    /// [`CachingBackend`] over [`IncrementalStateBackend`]: the default.
    #[default]
    CachedIncremental,
    /// [`CachingBackend`] over [`crate::smtlib::SmtBackend`]: the in-repo
    /// kernel first, an external SMT-LIB2 process (z3/cvc5/`GILLIAN_SMT`)
    /// for whatever the kernel cannot refute. Degrades to the kernel alone
    /// when no solver binary is found.
    SmtLib,
}

impl BackendKind {
    /// Every in-repo backend, in ablation order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::OneShot,
        BackendKind::IncrementalState,
        BackendKind::CachedIncremental,
    ];

    /// Every selectable backend, including the external SMT-LIB bridge
    /// (which degrades to the kernel when no solver binary is probed).
    pub const ALL_WITH_SMT: [BackendKind; 4] = [
        BackendKind::OneShot,
        BackendKind::IncrementalState,
        BackendKind::CachedIncremental,
        BackendKind::SmtLib,
    ];

    /// A stable machine-readable label (reports, JSON, bench output).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::OneShot => "one-shot",
            BackendKind::IncrementalState => "incremental-state",
            BackendKind::CachedIncremental => "cached-incremental",
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
    /// no cache, and no trace left in the backend's state.
    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool;

    /// Was the most recent `check_unsat` answer *complete* — i.e. not cut
    /// short by the case budget? A complete verdict is a pure function of
    /// the asserted fact *set* (independent of assertion order), so only
    /// complete answers may be memoised under order-insensitive keys.
    fn last_query_complete(&self) -> bool {
        true
    }

    /// The ids passed to [`SolverBackend::assert`] in the open scopes, in
    /// assertion order. This backs [`crate::SolverCtx::path`], the only copy
    /// of the path condition that the engine's structural scans read, so
    /// the order and the contents at rest (no transient `push`/`pop` pair
    /// open) are load-bearing: every fact asserted and not popped, each
    /// exactly as asserted, nothing else. Borrowed, so reading it costs no
    /// copy of the stack.
    fn assertions(&self) -> &[TermId];

    /// Clones the backend for a branching symbolic execution: the clone gets
    /// an independent assertion stack but shares heavyweight structures
    /// (arena, cache, statistics) with the original.
    fn boxed_clone(&self) -> Box<dyn SolverBackend>;
}

/// Implements `entails` on top of `push`/`assert`/`pop`/`check_unsat` by
/// decomposing the goal: conjunctions split, implications assert their
/// hypothesis into a scope, disjunctions try each arm then refute the
/// negation, and any other goal is refuted by asserting its negation.
/// Recursive sub-queries go back through the backend's own entry points, so
/// a caching decorator also caches the sub-goals.
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
/// memoisation, no cache) and runs the refutation kernel over the result.
/// The differential tests compare every other backend against it, and the
/// lint vacuity pass uses it: one query per fresh context, which is exactly
/// one simplify → flatten → refute, and no SMT process.
#[derive(Debug)]
pub struct OneShotBackend {
    stats: Arc<AtomicSolverStats>,
    case_budget: usize,
    asserted: Vec<TermId>,
    scopes: Vec<usize>,
    last_complete: bool,
}

impl OneShotBackend {
    pub(crate) fn new(stats: Arc<AtomicSolverStats>, case_budget: usize) -> Self {
        OneShotBackend {
            stats,
            case_budget,
            asserted: Vec::new(),
            scopes: Vec::new(),
            last_complete: true,
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
            self.last_complete = true;
            return true;
        }
        // Timed from here so `kernel_nanos` covers the same work in every
        // backend (kernel/theory time, not simplification).
        let start = Instant::now();
        let out = kernel::refute(&literals, self.case_budget);
        self.last_complete = !out.budget_exhausted;
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

    fn last_query_complete(&self) -> bool {
        self.last_complete
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
            last_complete: self.last_complete,
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
    last_complete: bool,
}

impl IncrementalStateBackend {
    pub(crate) fn new(stats: Arc<AtomicSolverStats>, case_budget: usize) -> Self {
        IncrementalStateBackend {
            stats,
            case_budget,
            state: kernel::IncrementalState::new(),
            raw: Vec::new(),
            scopes: Vec::new(),
            last_complete: true,
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
        self.last_complete = !out.budget_exhausted;
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

    fn last_query_complete(&self) -> bool {
        self.last_complete
    }

    fn assertions(&self) -> &[TermId] {
        &self.raw
    }

    fn boxed_clone(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Caching decorator
// ---------------------------------------------------------------------------

/// A query that one context is currently computing. Concurrent askers of
/// the same (assertion set, goal) park here instead of re-running the
/// kernel, so each distinct query costs exactly one kernel exploration
/// whatever the thread count — this is what keeps the `cases_explored`
/// counter deterministic at 1 vs N obligation workers.
///
/// Waits cannot deadlock: a computation only ever waits (through its
/// decomposition sub-queries) on entries whose key is a superset of its
/// own, or — at equal keys — whose goal is strictly structurally smaller
/// (`None` smallest), a well-founded descent shared by every thread.
#[derive(Debug)]
pub(crate) struct InFlight {
    state: Mutex<InFlightState>,
    cv: Condvar,
}

#[derive(Clone, Copy, Debug)]
enum InFlightState {
    Pending,
    Done(bool),
    /// The computation finished budget-exhausted (not cacheable): waiters
    /// must compute for themselves.
    Abandoned,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            state: Mutex::new(InFlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> InFlightState {
        let mut st = self.state.lock().unwrap();
        while matches!(*st, InFlightState::Pending) {
            st = self.cv.wait(st).unwrap();
        }
        *st
    }

    fn settle(&self, st: InFlightState) {
        *self.state.lock().unwrap() = st;
        self.cv.notify_all();
    }
}

/// A cached verdict: settled, or still being computed by some context.
#[derive(Clone, Debug)]
pub(crate) enum CachedVerdict {
    Done(bool),
    InFlight(Arc<InFlight>),
}

/// Cached verdicts for one canonical assertion set: `None` keys the plain
/// `check_unsat`, `Some(goal)` keys entailments of that (simplified) goal.
type GoalVerdicts = HashMap<Option<TermId>, CachedVerdict>;

/// The shared canonical query cache: one per [`crate::Solver`], shared by
/// every branch clone and worker thread. Two-level so lookups can borrow the
/// canonical slice instead of allocating a key per query.
pub(crate) type QueryCache = Arc<RwLock<HashMap<Box<[TermId]>, GoalVerdicts>>>;

/// What [`CachingBackend::lookup_or_begin`] decided.
enum Lookup {
    /// A settled verdict (either cached, or computed by another context we
    /// waited for).
    Hit(bool),
    /// This context claimed the query: it must compute and then
    /// [`ClaimGuard::finish`] the claim.
    Compute(ClaimGuard),
}

/// RAII claim on an in-flight query. Created when a context installs the
/// in-flight marker, and guaranteed to release it exactly once: either
/// explicitly through [`ClaimGuard::finish`] (publishing the verdict), or on
/// drop — a panic during the computation, a backend that bails out early,
/// any future code path that forgets — by removing the entry and waking
/// every parked waiter with `Abandoned`. Structurally, no worker can be
/// left parked forever on a computation that will never settle; this is
/// load-bearing for external-process backends, whose solves can die or be
/// killed mid-query.
pub(crate) struct ClaimGuard {
    cache: QueryCache,
    cell: Arc<InFlight>,
    key: Box<[TermId]>,
    goal: Option<TermId>,
    finished: bool,
}

impl ClaimGuard {
    /// Publishes the result of the claimed query: settles the entry when the
    /// answer is complete (cacheable), removes it otherwise, and wakes every
    /// parked waiter either way. The key is the canonical-set snapshot taken
    /// at claim time (entailment decompositions push and pop around the
    /// computation; the stack is balanced, but the snapshot makes this
    /// independent of that invariant).
    fn finish(mut self, result: bool, complete: bool) {
        {
            let key = std::mem::take(&mut self.key);
            let mut write = self.cache.write().unwrap();
            let slot = write.entry(key).or_default();
            if complete {
                slot.insert(self.goal, CachedVerdict::Done(result));
            } else {
                slot.remove(&self.goal);
            }
        }
        self.cell.settle(if complete {
            InFlightState::Done(result)
        } else {
            InFlightState::Abandoned
        });
        self.finished = true;
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        if let Ok(mut write) = self.cache.write() {
            if let Some(m) = write.get_mut(&self.key) {
                m.remove(&self.goal);
            }
        }
        self.cell.settle(InFlightState::Abandoned);
    }
}

/// A decorator adding an order-insensitive query cache in front of any
/// backend. Keys canonicalise the assertion set (sorted, deduplicated), so
/// the same facts asserted in a different order — a different execution path
/// reaching the same pure state — hit the same entry.
///
/// Only *complete* answers are cached ([`SolverBackend::last_query_complete`]):
/// a budget-exhausted "could not refute" is the one kernel answer that can
/// depend on assertion order, so keeping it out of the cache makes cached
/// verdicts a pure function of the fact set — preserving both refutation
/// soundness and cross-worker determinism.
pub struct CachingBackend {
    inner: Box<dyn SolverBackend>,
    cache: QueryCache,
    stats: Arc<AtomicSolverStats>,
    /// Simplified ids of the asserted facts, in assertion order.
    key_ids: Vec<TermId>,
    scopes: Vec<usize>,
    /// Memoised canonical form of `key_ids`; invalidated on assert/pop.
    canonical: Option<Box<[TermId]>>,
    /// Bumped whenever an inner query comes back budget-exhausted; lets
    /// `entails` tell whether its whole decomposition was complete.
    incomplete_events: u64,
    name: &'static str,
}

impl std::fmt::Debug for CachingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CachingBackend({})", self.inner.name())
    }
}

impl CachingBackend {
    pub(crate) fn new(
        inner: Box<dyn SolverBackend>,
        cache: QueryCache,
        stats: Arc<AtomicSolverStats>,
        name: &'static str,
    ) -> Self {
        CachingBackend {
            inner,
            cache,
            stats,
            key_ids: Vec::new(),
            scopes: Vec::new(),
            canonical: None,
            incomplete_events: 0,
            name,
        }
    }

    /// The canonical (sorted, deduplicated) assertion set, recomputed only
    /// after the stack changed — queries between mutations reuse it.
    fn canonical(&mut self) -> &[TermId] {
        if self.canonical.is_none() {
            let mut ids = self.key_ids.clone();
            ids.sort_unstable();
            ids.dedup();
            self.canonical = Some(ids.into_boxed_slice());
        }
        self.canonical.as_deref().unwrap()
    }

    /// Resolves a query against the cache, *claiming* it when absent.
    ///
    /// * A settled entry is a hit.
    /// * An in-flight entry (another context is computing the same query
    ///   right now) parks until it settles — the query is never computed
    ///   twice, which keeps kernel-work counters deterministic whatever the
    ///   thread count.
    /// * An absent entry is claimed: an in-flight marker is installed and
    ///   the caller must compute and [`CachingBackend::finish`].
    fn lookup_or_begin(&mut self, goal: Option<TermId>) -> Lookup {
        use std::collections::hash_map::Entry;
        let cache = Arc::clone(&self.cache);
        // Fast path: a settled entry under the read lock, with no key
        // allocation (the overwhelmingly common case on warm caches).
        let fast = {
            let key = self.canonical();
            match cache.read().unwrap().get(key).and_then(|m| m.get(&goal)) {
                Some(CachedVerdict::Done(b)) => Some(*b),
                _ => None,
            }
        };
        if let Some(b) = fast {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(b);
        }
        loop {
            enum Probe {
                Hit(bool),
                Wait(Arc<InFlight>),
                Claimed(ClaimGuard),
            }
            let probe = {
                let key: Box<[TermId]> = Box::from(self.canonical());
                let mut write = cache.write().unwrap();
                match write.entry(key.clone()).or_default().entry(goal) {
                    Entry::Occupied(e) => match e.get() {
                        CachedVerdict::Done(b) => Probe::Hit(*b),
                        CachedVerdict::InFlight(cell) => Probe::Wait(Arc::clone(cell)),
                    },
                    Entry::Vacant(slot) => {
                        let cell = Arc::new(InFlight::new());
                        slot.insert(CachedVerdict::InFlight(Arc::clone(&cell)));
                        Probe::Claimed(ClaimGuard {
                            cache: Arc::clone(&cache),
                            cell,
                            key,
                            goal,
                            finished: false,
                        })
                    }
                }
            };
            match probe {
                Probe::Hit(b) => {
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(b);
                }
                Probe::Claimed(claim) => return Lookup::Compute(claim),
                Probe::Wait(cell) => match cell.wait() {
                    InFlightState::Done(b) => {
                        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Hit(b);
                    }
                    // The computation was not cacheable (budget-exhausted):
                    // retry, most likely claiming the query for ourselves.
                    InFlightState::Abandoned => continue,
                    InFlightState::Pending => unreachable!("wait() returns settled states"),
                },
            }
        }
    }
}

impl SolverBackend for CachingBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn push(&mut self) {
        self.scopes.push(self.key_ids.len());
        self.inner.push();
    }

    fn pop(&mut self) {
        if let Some(mark) = self.scopes.pop() {
            if mark != self.key_ids.len() {
                self.key_ids.truncate(mark);
                self.canonical = None;
            }
        }
        self.inner.pop();
    }

    fn assert(&mut self, arena: &TermArena, fact: TermId) {
        self.key_ids.push(arena.simplify(fact));
        self.canonical = None;
        self.inner.assert(arena, fact);
    }

    fn check_unsat(&mut self, arena: &TermArena) -> bool {
        match self.lookup_or_begin(None) {
            Lookup::Hit(b) => b,
            Lookup::Compute(claim) => {
                // The claim settles (as abandoned) if the inner backend
                // panics or otherwise exits without reaching `finish`.
                let result = self.inner.check_unsat(arena);
                let complete = self.inner.last_query_complete();
                if !complete {
                    self.incomplete_events += 1;
                }
                claim.finish(result, complete);
                result
            }
        }
    }

    fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool {
        let goal_id = arena.simplify(goal);
        match self.lookup_or_begin(Some(goal_id)) {
            Lookup::Hit(b) => b,
            Lookup::Compute(claim) => {
                // Decompose through *this* backend, so sub-goals and the
                // leaf refutations are cached too. The decomposition
                // restores the assertion stack (balanced push/pop), so the
                // claimed key is unchanged by the time we publish.
                let before = self.incomplete_events;
                let result = entails_by_decomposition(self, arena, goal_id);
                let complete = self.incomplete_events == before;
                claim.finish(result, complete);
                result
            }
        }
    }

    /// Not cached: the closure lookup costs less than a cache key.
    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool {
        self.inner.congruent(arena, a, b)
    }

    fn last_query_complete(&self) -> bool {
        self.inner.last_query_complete()
    }

    fn assertions(&self) -> &[TermId] {
        self.inner.assertions()
    }

    fn boxed_clone(&self) -> Box<dyn SolverBackend> {
        Box::new(CachingBackend {
            inner: self.inner.boxed_clone(),
            cache: Arc::clone(&self.cache),
            stats: Arc::clone(&self.stats),
            key_ids: self.key_ids.clone(),
            scopes: self.scopes.clone(),
            canonical: self.canonical.clone(),
            incomplete_events: self.incomplete_events,
            name: self.name,
        })
    }
}

#[cfg(test)]
mod inflight_tests {
    use super::*;
    use crate::expr::VarGen;
    use std::sync::mpsc;
    use std::time::Duration;

    /// An inner backend that signals when its computation starts, then
    /// panics — standing in for a computing thread (or an external solver
    /// process) that dies without ever settling its in-flight entry.
    struct PanickingBackend {
        asserted: Vec<TermId>,
        started: mpsc::Sender<()>,
    }

    impl SolverBackend for PanickingBackend {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn push(&mut self) {}
        fn pop(&mut self) {}
        fn assert(&mut self, _arena: &TermArena, fact: TermId) {
            self.asserted.push(fact);
        }
        fn check_unsat(&mut self, _arena: &TermArena) -> bool {
            let _ = self.started.send(());
            // Give the sibling context time to park on the in-flight entry.
            std::thread::sleep(Duration::from_millis(100));
            panic!("backend died mid-query");
        }
        fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool {
            entails_by_decomposition(self, arena, goal)
        }
        fn congruent(&mut self, _arena: &TermArena, a: TermId, b: TermId) -> bool {
            a == b
        }
        fn assertions(&self) -> &[TermId] {
            &self.asserted
        }
        fn boxed_clone(&self) -> Box<dyn SolverBackend> {
            unreachable!("not cloned in this test")
        }
    }

    /// Regression: a claimed in-flight computation that dies without
    /// settling must release parked waiters (the [`ClaimGuard`] settles the
    /// entry as abandoned on drop). Without the guard, the waiter parks on
    /// the condvar forever and a parallel exploration deadlocks.
    #[test]
    fn dead_computation_releases_parked_waiters() {
        let arena = Arc::new(TermArena::new());
        let stats = Arc::new(AtomicSolverStats::default());
        let cache: QueryCache = Arc::new(RwLock::new(HashMap::new()));
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let facts = [Expr::eq(x.clone(), Expr::Int(1)), Expr::eq(x, Expr::Int(2))];

        let (started_tx, started_rx) = mpsc::channel();
        let dying = {
            let arena = Arc::clone(&arena);
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            let facts = facts.clone();
            std::thread::spawn(move || {
                let mut b = CachingBackend::new(
                    Box::new(PanickingBackend {
                        asserted: Vec::new(),
                        started: started_tx,
                    }),
                    cache,
                    stats,
                    "caching-panicking",
                );
                for f in &facts {
                    let id = arena.intern(f);
                    b.assert(&arena, id);
                }
                // Claims the (facts, None) entry, then dies inside the inner
                // backend; the unwind drops the claim guard.
                b.check_unsat(&arena)
            })
        };
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the dying context claims the query");

        // A sibling context asking the same canonical query: parks on the
        // in-flight entry, must be released when the computation dies, and
        // then computes the verdict for itself.
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = {
            let arena = Arc::clone(&arena);
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let mut b = CachingBackend::new(
                    Box::new(OneShotBackend::new(Arc::clone(&stats), 512)),
                    cache,
                    stats,
                    "caching-one-shot",
                );
                for f in &facts {
                    let id = arena.intern(f);
                    b.assert(&arena, id);
                }
                let _ = done_tx.send(b.check_unsat(&arena));
            })
        };

        assert!(dying.join().is_err(), "the computing thread panicked");
        let verdict = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked waiter must be released, not deadlock");
        assert!(verdict, "x == 1 && x == 2 is unsatisfiable");
        waiter.join().unwrap();
    }
}
