//! The compositional symbolic-execution engine.
//!
//! The engine is parametric on a [`StateModel`]. It provides:
//!
//! * production and consumption of assertions (the matching mechanism that
//!   powers compositional reasoning, predicate folding and spec reuse);
//! * automatic folding and heuristic unfolding of user predicates;
//! * guarded predicates (full borrows) with automatic opening (`gunfold`) and
//!   closing (`gfold`), following §4.2 of the paper;
//! * automatic *recovery*: when a memory action or a consumption is missing a
//!   resource, the engine tries to unfold a related predicate or open a
//!   related borrow and retries — this is what makes proofs about
//!   `LinkedList::push_front` fully automatic;
//! * verification of procedures against their specifications and of lemmas
//!   against their proof scripts.

use crate::asrt::{Asrt, Pred, Spec};
use crate::config::{Bindings, ClosingToken, Config, FoldedPred, GuardedPred};
use crate::gil::{Cmd, LogicCmd, Proc, Prog};
use crate::state::{ActionResult, ConsumeResult, StateModel};
use gillian_solver::{simplify, BackendKind, Expr, Solver, Symbol};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Is `GILLIAN_DEBUG` set? Read from the environment once per process and
/// cached: the engine (and the tactics layer) probe this on hot paths —
/// every failed consume and every reachable failure — so re-reading the
/// environment per step would be measurable overhead for something that
/// cannot change mid-run.
pub fn debug_enabled() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var("GILLIAN_DEBUG").is_ok())
}

/// Core-predicate name for lifetime tokens `[κ]_q` (ins: `[κ]`, outs: `[q]`).
pub const LFT_TOKEN: &str = "lft_tok";
/// Reserved program-variable name bound to the return value in postconditions.
pub const RET_VAR: &str = "ret";

/// The structural category of a verification error, preserved from the point
/// of failure up through [`ProcReport`] so that callers can react to the
/// *kind* of failure instead of parsing messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerErrorKind {
    /// A postcondition or lemma conclusion could not be matched against some
    /// final state.
    SpecMismatch,
    /// A consumption failed because a resource was missing; the `hint`
    /// expressions name the resources that could not be found.
    ConsumeFailure,
    /// A search budget (steps, inlining depth, recovery) was exhausted.
    Timeout,
    /// The verification target has no registered specification, proof script
    /// or body.
    MissingSpec,
    /// Any other engine-level failure (reachable panic, unknown predicate,
    /// unresolved logical variables, …).
    Engine,
}

impl VerErrorKind {
    /// A stable machine-readable label (used by the JSON report rendering).
    pub fn label(self) -> &'static str {
        match self {
            VerErrorKind::SpecMismatch => "spec-mismatch",
            VerErrorKind::ConsumeFailure => "consume-failure",
            VerErrorKind::Timeout => "timeout",
            VerErrorKind::MissingSpec => "missing-spec",
            VerErrorKind::Engine => "engine",
        }
    }
}

/// A verification error on some execution path.
#[derive(Clone, Debug)]
pub struct VerError {
    /// The structural category of the failure.
    pub kind: VerErrorKind,
    /// Human-readable description.
    pub msg: String,
    /// Expressions whose resource was missing (used for recovery).
    pub hint: Vec<Expr>,
}

impl VerError {
    pub fn new(msg: impl Into<String>) -> Self {
        VerError {
            kind: VerErrorKind::Engine,
            msg: msg.into(),
            hint: vec![],
        }
    }

    /// A missing-resource error; the hints drive automatic recovery.
    pub fn with_hint(msg: impl Into<String>, hint: Vec<Expr>) -> Self {
        VerError {
            kind: VerErrorKind::ConsumeFailure,
            msg: msg.into(),
            hint,
        }
    }

    pub fn spec_mismatch(msg: impl Into<String>) -> Self {
        VerError::new(msg).with_kind(VerErrorKind::SpecMismatch)
    }

    pub fn timeout(msg: impl Into<String>) -> Self {
        VerError::new(msg).with_kind(VerErrorKind::Timeout)
    }

    pub fn missing_spec(msg: impl Into<String>) -> Self {
        VerError::new(msg).with_kind(VerErrorKind::MissingSpec)
    }

    pub fn with_kind(mut self, kind: VerErrorKind) -> Self {
        self.kind = kind;
        self
    }
}

impl std::fmt::Display for VerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for VerError {}

/// Tuning options for the engine.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Automatically unfold folded predicates related to a branch guard.
    pub auto_unfold_on_branch: bool,
    /// Automatically recover from missing resources by unfolding predicates
    /// and opening/closing borrows.
    pub auto_recover: bool,
    /// Maximum chained recovery steps for a single operation.
    pub max_recovery_steps: usize,
    /// Maximum depth of procedure inlining.
    pub max_inline_depth: usize,
    /// Maximum number of interpreted commands per procedure verification.
    pub max_steps: usize,
    /// Maximum depth of auto-unfolding at a branch.
    pub max_branch_unfolds: usize,
    /// Treat reachable panics as safe path termination rather than
    /// verification failures (used for type-safety-only verification, where
    /// panicking is well-defined behaviour).
    pub panics_are_safe: bool,
    /// Which solver backend answers pure queries
    /// ([`BackendKind::IncrementalState`] by default;
    /// [`BackendKind::OneShot`] is the differential reference;
    /// [`BackendKind::SmtLib`] additionally drives an external SMT-LIB2
    /// process for queries the in-repo kernel cannot refute).
    pub backend: BackendKind,
    /// Wall-clock time box for each external SMT solve (milliseconds;
    /// [`BackendKind::SmtLib`] only). On timeout the solver process is
    /// killed, the query falls back to the kernel's verdict, and the next
    /// solve spawns a replacement. Defaults to `GILLIAN_SMT_TIMEOUT_MS` or
    /// 3000.
    pub smt_timeout_ms: u64,
    /// Explicit external solver command line for [`BackendKind::SmtLib`]
    /// (`None` probes `GILLIAN_SMT`, then `PATH` for `z3`/`cvc5`). Lets
    /// tests and benches inject stub solvers deterministically.
    pub smt_command: Option<Vec<String>>,
    /// Cooperative wall-clock deadline for each verification target
    /// (`None` = unbounded, the default). The deadline is installed when
    /// [`Engine::verify_proc_from`] / [`Engine::verify_lemma_from`] enter
    /// and checked at every step of [`Engine::exec_proc`]; a target that
    /// overruns fails with [`VerErrorKind::Timeout`] carrying the elapsed
    /// budget, and the rest of the batch is unaffected.
    /// Timeouts are failures, so they are never written to the proof cache
    /// — the option therefore does not participate in cache namespacing.
    pub target_timeout: Option<Duration>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        let smt_timeout = gillian_solver::SmtOptions::from_env().timeout;
        EngineOptions {
            auto_unfold_on_branch: true,
            auto_recover: true,
            max_recovery_steps: 8,
            max_inline_depth: 16,
            max_steps: 200_000,
            max_branch_unfolds: 3,
            panics_are_safe: false,
            backend: BackendKind::default(),
            smt_timeout_ms: smt_timeout.as_millis() as u64,
            smt_command: None,
            target_timeout: None,
        }
    }
}

// The per-thread target deadline: `(deadline, budget)`. Installed by the
// verification entry points from [`EngineOptions::target_timeout`] and read
// at every step of `Engine::exec_proc`. An obligation runs on one thread
// from start to end, so a thread-local (rather than an `Engine` field)
// gives each concurrent obligation on one shared engine its own clock.
thread_local! {
    static TARGET_DEADLINE: std::cell::Cell<Option<(Instant, Duration)>> =
        const { std::cell::Cell::new(None) };
}

/// Installs the target deadline for the current thread and restores the
/// previous one on drop (verification entry points can nest — e.g. a test
/// calling `verify_proc_from` from inside another obligation's worker).
struct DeadlineGuard {
    prev: Option<(Instant, Duration)>,
}

impl DeadlineGuard {
    fn install(timeout: Option<Duration>) -> DeadlineGuard {
        let prev = TARGET_DEADLINE.with(|d| d.get());
        let next = timeout.map(|budget| (Instant::now() + budget, budget));
        TARGET_DEADLINE.with(|d| d.set(next));
        DeadlineGuard { prev }
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        TARGET_DEADLINE.with(|d| d.set(prev));
    }
}

fn current_deadline() -> Option<(Instant, Duration)> {
    TARGET_DEADLINE.with(|d| d.get())
}

fn deadline_error(budget: Duration, proc: Symbol) -> VerError {
    VerError::timeout(format!(
        "target deadline of {budget:?} exceeded while executing {proc}"
    ))
}

impl EngineOptions {
    /// A configuration with all automation disabled — used as the
    /// "RefinedRust-style" baseline in the evaluation benches (every fold,
    /// unfold and borrow manipulation must be spelled out, and the engine
    /// falls back to exhaustive search where it can).
    pub fn baseline() -> Self {
        EngineOptions {
            auto_unfold_on_branch: false,
            auto_recover: false,
            ..EngineOptions::default()
        }
    }
}

/// Statistics about a verification run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub actions: u64,
    pub consumer_calls: u64,
    pub producer_calls: u64,
    pub folds: u64,
    pub unfolds: u64,
    pub borrow_opens: u64,
    pub borrow_closes: u64,
    pub recoveries: u64,
    pub branches: u64,
    pub paths_completed: u64,
    pub commands_executed: u64,
    /// High-water mark of simultaneously-live (queued) branches across every
    /// `exec_proc` exploration since the last reset.
    pub max_live_branches: u64,
}

impl EngineStats {
    /// Field-wise difference (`self - earlier`), used to report the work of
    /// one batch out of the engine's cumulative counters.
    pub fn since(self, earlier: EngineStats) -> EngineStats {
        EngineStats {
            actions: self.actions.saturating_sub(earlier.actions),
            consumer_calls: self.consumer_calls.saturating_sub(earlier.consumer_calls),
            producer_calls: self.producer_calls.saturating_sub(earlier.producer_calls),
            folds: self.folds.saturating_sub(earlier.folds),
            unfolds: self.unfolds.saturating_sub(earlier.unfolds),
            borrow_opens: self.borrow_opens.saturating_sub(earlier.borrow_opens),
            borrow_closes: self.borrow_closes.saturating_sub(earlier.borrow_closes),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            branches: self.branches.saturating_sub(earlier.branches),
            paths_completed: self.paths_completed.saturating_sub(earlier.paths_completed),
            commands_executed: self
                .commands_executed
                .saturating_sub(earlier.commands_executed),
            // A high-water mark, not a counter: the batch's mark is the
            // cumulative one (it cannot be meaningfully subtracted).
            max_live_branches: self.max_live_branches,
        }
    }
}

/// Lock-free counters behind the engine's `&self` API: the hot loop bumps
/// them once per command, so a mutex here would serialise the obligation
/// workers sharing one engine.
#[derive(Debug, Default)]
struct AtomicEngineStats {
    actions: AtomicU64,
    consumer_calls: AtomicU64,
    producer_calls: AtomicU64,
    folds: AtomicU64,
    unfolds: AtomicU64,
    borrow_opens: AtomicU64,
    borrow_closes: AtomicU64,
    recoveries: AtomicU64,
    branches: AtomicU64,
    paths_completed: AtomicU64,
    commands_executed: AtomicU64,
    max_live_branches: AtomicU64,
}

impl AtomicEngineStats {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            actions: self.actions.load(Ordering::Relaxed),
            consumer_calls: self.consumer_calls.load(Ordering::Relaxed),
            producer_calls: self.producer_calls.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
            unfolds: self.unfolds.load(Ordering::Relaxed),
            borrow_opens: self.borrow_opens.load(Ordering::Relaxed),
            borrow_closes: self.borrow_closes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            branches: self.branches.load(Ordering::Relaxed),
            paths_completed: self.paths_completed.load(Ordering::Relaxed),
            commands_executed: self.commands_executed.load(Ordering::Relaxed),
            max_live_branches: self.max_live_branches.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for field in [
            &self.actions,
            &self.consumer_calls,
            &self.producer_calls,
            &self.folds,
            &self.unfolds,
            &self.borrow_opens,
            &self.borrow_closes,
            &self.recoveries,
            &self.branches,
            &self.paths_completed,
            &self.commands_executed,
            &self.max_live_branches,
        ] {
            field.store(0, Ordering::Relaxed);
        }
    }
}

/// A semi-automatic tactic registered with the engine.
pub type TacticFn<S> = fn(&Engine<S>, Config<S>, &[Expr]) -> Result<Vec<Config<S>>, VerError>;

/// Strength of the connection between a recovery candidate's arguments and
/// the failed consume's hint (stronger first; see `Engine::try_recover`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Relatedness {
    /// Syntactic containment either way, or one congruence class.
    Direct,
    /// Only connected through a path-condition fact mentioning both.
    ViaPath,
}

/// The classified outcome of executing one command on one branch.
/// (`Finished` boxes its configuration so the common `Forked`/`Pruned`
/// values stay small.)
enum StepOutcome<S> {
    /// Zero or more successor branches, in canonical visit order.
    Forked(Vec<(Config<S>, usize)>),
    /// The branch reached the end of the procedure with a return value.
    Finished(Box<Config<S>>, Expr),
    /// The branch vanished (infeasible, or a safe panic in TS mode).
    Pruned,
}

impl<S> StepOutcome<S> {
    fn one(cfg: Config<S>, pc: usize) -> StepOutcome<S> {
        StepOutcome::Forked(vec![(cfg, pc)])
    }
}

/// Report for the verification of one procedure or lemma.
#[derive(Clone, Debug)]
pub struct ProcReport {
    pub name: Symbol,
    pub verified: bool,
    /// Execution paths checked against the spec by THIS verification call
    /// (0 when trusted or failed early).
    pub paths: u64,
    pub error: Option<VerError>,
    pub elapsed: Duration,
}

/// The symbolic-execution engine. The engine is `Sync`: verification entry
/// points take `&self`, so one engine can drive many proof obligations from
/// several threads at once (the parallel batch path of `HybridSession`).
pub struct Engine<S: StateModel> {
    pub prog: Prog,
    pub solver: Solver,
    pub opts: EngineOptions,
    pub tactics: HashMap<Symbol, TacticFn<S>>,
    stats: AtomicEngineStats,
    /// Numbers the fresh logical-variable names of this engine's proofs
    /// (see [`Engine::fresh_lvar_name`]).
    fresh_lvars: AtomicU64,
}

/// Does `haystack` contain `needle` as a sub-expression?
pub fn contains_expr(haystack: &Expr, needle: &Expr) -> bool {
    let mut found = false;
    haystack.visit(&mut |e| {
        if e == needle {
            found = true;
        }
    });
    found
}

/// Pairs each item, in order, with its own copy of `base`. The last item
/// takes `base` itself, so one item costs no copy and `n` items cost
/// `n - 1`: a configuration is copied only where it really forks.
fn fan_out<C: Clone, T>(
    base: C,
    items: impl IntoIterator<Item = T>,
) -> impl Iterator<Item = (C, T)> {
    let mut base = Some(base);
    let mut items = items.into_iter().peekable();
    std::iter::from_fn(move || {
        let item = items.next()?;
        let copy = if items.peek().is_some() {
            base.clone()
        } else {
            base.take()
        };
        Some((copy?, item))
    })
}

impl<S: StateModel> Engine<S> {
    /// Creates an engine for a program with default options.
    pub fn new(prog: Prog) -> Self {
        Engine::with_options(prog, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(prog: Prog, opts: EngineOptions) -> Self {
        let solver = Solver::with_backend_and_smt(opts.backend, Self::smt_options(&opts));
        Engine {
            prog,
            solver,
            opts,
            tactics: HashMap::new(),
            stats: AtomicEngineStats::default(),
            fresh_lvars: AtomicU64::new(0),
        }
    }

    fn smt_options(opts: &EngineOptions) -> gillian_solver::SmtOptions {
        gillian_solver::SmtOptions {
            command: opts.smt_command.clone(),
            timeout: Duration::from_millis(opts.smt_timeout_ms),
        }
    }

    /// Swaps the solver backend (fresh arena and statistics). Used by
    /// the ablation harness to re-run the same compiled program under
    /// another backend without recompiling.
    pub fn set_backend(&mut self, kind: BackendKind) {
        self.opts.backend = kind;
        self.solver = Solver::with_backend_and_smt(kind, Self::smt_options(&self.opts));
    }

    /// Registers a semi-automatic tactic.
    pub fn register_tactic(&mut self, name: &str, f: TacticFn<S>) {
        self.tactics.insert(Symbol::new(name), f);
    }

    /// Returns a logical-variable name with the given prefix that no earlier
    /// call on this engine returned. A prefix that is itself a fresh name
    /// (`x%12`) is renamed from its base (`x%345`, not `x%12%345`).
    ///
    /// Names are numbered per engine, so a fresh session repeats the names
    /// of the last one and the process-wide symbol table stops growing
    /// after the first.
    pub fn fresh_lvar_name(&self, prefix: &str) -> Symbol {
        let base = prefix.split_once('%').map_or(prefix, |(base, _)| base);
        let n = self.fresh_lvars.fetch_add(1, Ordering::Relaxed);
        Symbol::new(&format!("{base}%{n}"))
    }

    /// Renames every logical variable in the assertion to a fresh name (see
    /// [`Engine::fresh_lvar_name`]), avoiding capture when predicate
    /// definitions are instantiated.
    pub fn freshen_lvars(&self, asrt: &Asrt) -> Asrt {
        let lvars = asrt.lvars();
        let mut map: HashMap<Symbol, Expr> = HashMap::new();
        for lv in lvars {
            map.insert(lv, Expr::LVar(self.fresh_lvar_name(lv.as_str())));
        }
        asrt.subst_lvars(&|s| map.get(&s).cloned())
    }

    /// Returns the statistics collected so far.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Resets the statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.solver.reset_stats();
    }

    fn bump(&self, f: impl Fn(&AtomicEngineStats) -> &AtomicU64) {
        f(&self.stats).fetch_add(1, Ordering::Relaxed);
    }

    // =====================================================================
    // Production
    // =====================================================================

    /// Produces an assertion into a configuration. Unbound logical variables
    /// become fresh symbolic variables (existentials). Returns the surviving
    /// branches (an empty vector means the production vanished).
    pub fn produce(
        &self,
        mut cfg: Config<S>,
        asrt: &Asrt,
        bindings: &mut Bindings,
    ) -> Vec<Config<S>> {
        for lv in asrt.lvars() {
            bindings.entry(lv).or_insert_with(|| cfg.fresh());
        }
        let atoms = asrt.atoms();
        let mut configs = vec![cfg];
        for atom in &atoms {
            let mut next = Vec::new();
            for c in configs {
                next.extend(self.produce_atom(c, atom, bindings));
            }
            configs = next;
            if configs.is_empty() {
                break;
            }
        }
        configs
    }

    fn produce_atom(&self, mut cfg: Config<S>, atom: &Asrt, bindings: &Bindings) -> Vec<Config<S>> {
        self.bump(|s| &s.producer_calls);
        let subst = |e: &Expr| -> Expr { simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned())) };
        match atom {
            Asrt::Emp | Asrt::Star(_) => vec![cfg],
            Asrt::Pure(e) => {
                let e = subst(e);
                if cfg.assume(e) {
                    vec![cfg]
                } else {
                    vec![]
                }
            }
            Asrt::Observation(e) => {
                let e = subst(e);
                self.produce_core(cfg, Symbol::new("observation"), &[e], &[])
            }
            Asrt::Core { name, ins, outs } => {
                let ins: Vec<Expr> = ins.iter().map(subst).collect();
                let outs: Vec<Expr> = outs.iter().map(subst).collect();
                self.produce_core(cfg, *name, &ins, &outs)
            }
            Asrt::Pred { name, args } => {
                let args: Vec<Expr> = args.iter().map(subst).collect();
                cfg.folded.push(FoldedPred { name: *name, args });
                vec![cfg]
            }
            Asrt::Guarded { name, lft, args } => {
                let args: Vec<Expr> = args.iter().map(subst).collect();
                cfg.guarded.push(GuardedPred {
                    name: *name,
                    lft: subst(lft),
                    args,
                });
                vec![cfg]
            }
        }
    }

    /// Produces a single core predicate.
    pub fn produce_core(
        &self,
        mut cfg: Config<S>,
        name: Symbol,
        ins: &[Expr],
        outs: &[Expr],
    ) -> Vec<Config<S>> {
        let outcomes = cfg.with_ctx(|state, ctx| state.produce_core(name, ins, outs, ctx));
        let mut result = Vec::new();
        for (mut c, ok) in fan_out(cfg, outcomes) {
            c.state = ok.state;
            let mut feasible = true;
            for f in ok.facts {
                if !c.assume(f) {
                    feasible = false;
                    break;
                }
            }
            if feasible && c.feasible() {
                result.push(c);
            }
        }
        result
    }

    // =====================================================================
    // Consumption (matching)
    // =====================================================================

    /// Consumes an assertion from a configuration, learning bindings for its
    /// logical variables. Returns the successful branches.
    pub fn consume(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        asrt: &Asrt,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        self.consume_from(Cow::Owned(cfg), bindings, asrt)
    }

    /// [`Engine::consume`] from a configuration that is owned or only
    /// borrowed. The assertion's leading pure atoms only read the
    /// configuration, so they are checked against it as it is; a borrowed
    /// configuration is copied at the first atom that changes state. An
    /// attempt that fails on its pure prefix therefore copies nothing.
    fn consume_from(
        &self,
        cfg: Cow<'_, Config<S>>,
        mut bindings: Bindings,
        asrt: &Asrt,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let failed = |atom: &Asrt, err: VerError| {
            if debug_enabled() {
                eprintln!("[consume] failed on atom {atom}: {}", err.msg);
            }
            err
        };
        let atoms = asrt.atoms();
        let mut rest = atoms.as_slice();
        while let [atom @ Asrt::Pure(e), tail @ ..] = rest {
            self.bump(|s| &s.consumer_calls);
            bindings = self
                .consume_pure(&cfg, bindings, e)
                .map_err(|err| failed(atom, err))?;
            rest = tail;
        }
        let mut branches = vec![(cfg.into_owned(), bindings)];
        for atom in rest {
            let mut next = Vec::new();
            let mut last_err: Option<VerError> = None;
            for (c, b) in branches {
                match self.consume_atom(c, b, atom, self.opts.max_recovery_steps) {
                    Ok(v) => next.extend(v),
                    Err(e) => last_err = Some(e),
                }
            }
            if next.is_empty() {
                let err =
                    last_err.unwrap_or_else(|| VerError::new(format!("failed to consume {atom}")));
                return Err(failed(atom, err));
            }
            branches = next;
        }
        Ok(branches)
    }

    fn consume_atom(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        atom: &Asrt,
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        self.bump(|s| &s.consumer_calls);
        match atom {
            Asrt::Emp | Asrt::Star(_) => Ok(vec![(cfg, bindings)]),
            Asrt::Pure(e) => {
                let bindings = self.consume_pure(&cfg, bindings, e)?;
                Ok(vec![(cfg, bindings)])
            }
            Asrt::Observation(e) => self.consume_observation(cfg, bindings, e, recovery_budget),
            Asrt::Core { name, ins, outs } => {
                self.consume_core_atom(cfg, bindings, *name, ins, outs, recovery_budget)
            }
            Asrt::Pred { name, args } => {
                self.consume_user_pred(cfg, bindings, *name, args, recovery_budget)
            }
            Asrt::Guarded { name, lft, args } => {
                self.consume_guarded(cfg, bindings, *name, lft, args, recovery_budget)
            }
        }
    }

    /// Consumes a pure assertion: it only asks the path condition, so it
    /// reads the configuration and returns the extended bindings.
    fn consume_pure(
        &self,
        cfg: &Config<S>,
        mut bindings: Bindings,
        e: &Expr,
    ) -> Result<Bindings, VerError> {
        let e = simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned()));
        // Conjunctions (e.g. decomposed constructor equalities) are consumed
        // conjunct by conjunct so that each equation can bind its variables.
        if let Expr::BinOp(gillian_solver::BinOp::And, a, b) = &e {
            let bindings = self.consume_pure(cfg, bindings, a)?;
            return self.consume_pure(cfg, bindings, b);
        }
        let unbound: Vec<Symbol> = e.lvars().into_iter().collect();
        if unbound.is_empty() {
            if cfg.entails(&e) {
                return Ok(bindings);
            }
            return Err(VerError::new(format!("pure assertion not entailed: {e}")));
        }
        // Try to solve an equality with unbound variables on one side.
        if let Expr::BinOp(gillian_solver::BinOp::Eq, a, b) = &e {
            let a_unbound = !a.lvars().is_empty();
            let b_unbound = !b.lvars().is_empty();
            let (pattern, value) = if a_unbound && !b_unbound {
                (a.as_ref(), b.as_ref())
            } else if b_unbound && !a_unbound {
                (b.as_ref(), a.as_ref())
            } else {
                return Err(VerError::new(format!(
                    "cannot determine logical variables {unbound:?} in {e}"
                )));
            };
            if self.unify(cfg, &mut bindings, pattern, value) {
                return Ok(bindings);
            }
            return Err(VerError::new(format!(
                "cannot unify {pattern} with {value}"
            )));
        }
        Err(VerError::new(format!(
            "unresolved logical variables {unbound:?} in pure assertion {e}"
        )))
    }

    fn consume_observation(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        e: &Expr,
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let e = simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned()));
        if !e.lvars().is_empty() {
            return Err(VerError::new(format!(
                "observation with unresolved logical variables: {e}"
            )));
        }
        self.consume_core_resolved(
            cfg,
            bindings,
            Symbol::new("observation"),
            &[e],
            &[],
            recovery_budget,
        )
    }

    fn consume_core_atom(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        name: Symbol,
        ins: &[Expr],
        outs: &[Expr],
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let ins_sub: Vec<Expr> = ins
            .iter()
            .map(|e| simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned())))
            .collect();
        for i in &ins_sub {
            if !i.lvars().is_empty() {
                return Err(VerError::new(format!(
                    "core predicate {name}: in-parameter {i} is not determined"
                )));
            }
        }
        let outs_sub: Vec<Expr> = outs
            .iter()
            .map(|e| e.subst_lvars(&|s| bindings.get(&s).cloned()))
            .collect();
        self.consume_core_resolved(cfg, bindings, name, &ins_sub, &outs_sub, recovery_budget)
    }

    fn consume_core_resolved(
        &self,
        mut cfg: Config<S>,
        bindings: Bindings,
        name: Symbol,
        ins: &[Expr],
        out_patterns: &[Expr],
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let result = cfg.with_ctx(|state, ctx| state.consume_core(name, ins, ctx));
        match result {
            ConsumeResult::Ok(outcomes) => {
                let mut branches = Vec::new();
                for ((mut c, mut b), ok) in fan_out((cfg, bindings), outcomes) {
                    c.state = ok.state;
                    let mut feasible = true;
                    for f in ok.facts {
                        if !c.assume(f) {
                            feasible = false;
                            break;
                        }
                    }
                    if !feasible {
                        continue;
                    }
                    if out_patterns.len() != ok.outs.len() {
                        continue;
                    }
                    let mut matched = true;
                    for (pat, actual) in out_patterns.iter().zip(ok.outs.iter()) {
                        if !self.unify(&c, &mut b, pat, actual) {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        branches.push((c, b));
                    }
                }
                if branches.is_empty() {
                    Err(VerError::new(format!(
                        "consuming core predicate {name}({ins:?}) produced no usable outcome"
                    )))
                } else {
                    Ok(branches)
                }
            }
            ConsumeResult::Missing { msg, hint } => {
                if recovery_budget > 0 && self.opts.auto_recover {
                    let recovered = self.try_recover(&cfg, &hint);
                    let mut out = Vec::new();
                    for rc in recovered {
                        if let Ok(v) = self.consume_core_resolved(
                            rc,
                            bindings.clone(),
                            name,
                            ins,
                            out_patterns,
                            recovery_budget - 1,
                        ) {
                            out.extend(v);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(out);
                    }
                }
                Err(VerError::with_hint(
                    format!("missing resource for core predicate {name}: {msg}"),
                    hint,
                ))
            }
            ConsumeResult::Error(msg) => Err(VerError::new(format!(
                "error consuming core predicate {name}: {msg}"
            ))),
        }
    }

    fn consume_user_pred(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        name: Symbol,
        args: &[Expr],
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let pred = self
            .prog
            .pred(name)
            .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?;
        let num_ins = pred.num_ins.min(args.len());
        let ins_sub: Vec<Expr> = args[..num_ins]
            .iter()
            .map(|e| simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned())))
            .collect();
        for i in &ins_sub {
            if !i.lvars().is_empty() {
                return Err(VerError::new(format!(
                    "predicate {name}: in-parameter {i} is not determined"
                )));
            }
        }
        let out_patterns: Vec<Expr> = args[num_ins..]
            .iter()
            .map(|e| e.subst_lvars(&|s| bindings.get(&s).cloned()))
            .collect();

        // 1. A folded instance with matching ins. Unification only asks the
        //    path condition, so the outs are matched in place and the
        //    instance is removed only on success.
        if let Some(idx) = cfg.find_folded(name, &ins_sub, num_ins) {
            let mut b = bindings.clone();
            let matched = out_patterns
                .iter()
                .zip(cfg.folded[idx].args[num_ins..].iter())
                .all(|(pat, actual)| self.unify(&cfg, &mut b, pat, actual));
            if matched {
                let mut c = cfg;
                c.folded.remove(idx);
                return Ok(vec![(c, b)]);
            }
        }

        // 2. Abstract predicates can only be matched against folded instances.
        if pred.is_abstract {
            if recovery_budget > 0 && self.opts.auto_recover {
                let recovered = self.try_recover(&cfg, &ins_sub);
                let mut out = Vec::new();
                for rc in recovered {
                    if let Ok(v) = self.consume_user_pred(
                        rc,
                        bindings.clone(),
                        name,
                        args,
                        recovery_budget - 1,
                    ) {
                        out.extend(v);
                    }
                }
                if !out.is_empty() {
                    return Ok(out);
                }
            }
            return Err(VerError::with_hint(
                format!("abstract predicate {name}({ins_sub:?}) not found in state"),
                ins_sub,
            ));
        }

        // 3. Fold from the definition (automatic folding). Each definition
        //    is an attempt on the borrowed configuration: recovery below
        //    still needs it untouched.
        self.bump(|s| &s.folds);
        let mut branches = Vec::new();
        let mut last_err: Option<VerError> = None;
        for def_idx in 0..pred.definitions.len() {
            let (def, fold_outs) = self.instantiate_for_fold(pred, def_idx, &ins_sub);
            match self.consume_from(Cow::Borrowed(&cfg), bindings.clone(), &def) {
                Ok(sub_branches) => {
                    for (c, mut b) in sub_branches {
                        // The out parameters must now be determined.
                        let mut ok = true;
                        let mut out_values = Vec::new();
                        for fo in &fold_outs {
                            match b.get(fo) {
                                Some(v) => out_values.push(v.clone()),
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        let mut matched = true;
                        for (pat, actual) in out_patterns.iter().zip(out_values.iter()) {
                            if !self.unify(&c, &mut b, pat, actual) {
                                matched = false;
                                break;
                            }
                        }
                        if matched {
                            branches.push((c, b));
                        }
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if !branches.is_empty() {
            return Ok(branches);
        }

        // 4. Recovery: unfold or open something related and retry.
        if recovery_budget > 0 && self.opts.auto_recover {
            let recovered = self.try_recover(&cfg, &ins_sub);
            let mut out = Vec::new();
            for rc in recovered {
                if let Ok(v) =
                    self.consume_user_pred(rc, bindings.clone(), name, args, recovery_budget - 1)
                {
                    out.extend(v);
                }
            }
            if !out.is_empty() {
                return Ok(out);
            }
        }
        Err(last_err.unwrap_or_else(|| {
            VerError::with_hint(
                format!("could not fold predicate {name}({ins_sub:?})"),
                ins_sub,
            )
        }))
    }

    /// Instantiates a predicate definition for folding: in-parameters are
    /// bound to the given expressions, out-parameters become fresh logical
    /// variables (returned so that the caller can read the learned values),
    /// and all other logical variables are freshened.
    fn instantiate_for_fold(
        &self,
        pred: &Pred,
        def_idx: usize,
        ins: &[Expr],
    ) -> (Asrt, Vec<Symbol>) {
        let mut args: Vec<Expr> = ins.to_vec();
        let mut fold_outs = Vec::new();
        for out_param in pred.outs() {
            let fresh = self.fresh_lvar_name(&format!("{}_{}", pred.name, out_param));
            fold_outs.push(fresh);
            args.push(Expr::LVar(fresh));
        }
        let inst = pred.instantiate(def_idx, &args);
        // Freshen the remaining (existential) lvars of the definition, taking
        // care not to rename the fold-out variables we just introduced.
        let keep: std::collections::BTreeSet<Symbol> = fold_outs.iter().copied().collect();
        let lvars = inst.lvars();
        let mut map: HashMap<Symbol, Expr> = HashMap::new();
        for lv in lvars {
            if !keep.contains(&lv) {
                map.insert(lv, Expr::LVar(self.fresh_lvar_name(lv.as_str())));
            }
        }
        (inst.subst_lvars(&|s| map.get(&s).cloned()), fold_outs)
    }

    fn consume_guarded(
        &self,
        cfg: Config<S>,
        bindings: Bindings,
        name: Symbol,
        lft: &Expr,
        args: &[Expr],
        recovery_budget: usize,
    ) -> Result<Vec<(Config<S>, Bindings)>, VerError> {
        let num_ins = self
            .prog
            .pred(name)
            .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?
            .num_ins
            .min(args.len());
        let ins_sub: Vec<Expr> = args[..num_ins]
            .iter()
            .map(|e| simplify(&e.subst_lvars(&|s| bindings.get(&s).cloned())))
            .collect();
        let lft_sub = lft.subst_lvars(&|s| bindings.get(&s).cloned());
        if let Some(idx) = cfg.find_guarded(name, &ins_sub, num_ins) {
            // Every path from here returns: the configuration is used up.
            let mut c = cfg;
            let inst = c.guarded.remove(idx);
            let mut b = bindings;
            // Unify the lifetime and the out arguments.
            if !self.unify(&c, &mut b, &lft_sub, &inst.lft) {
                return Err(VerError::new(format!(
                    "guarded predicate {name}: lifetime mismatch"
                )));
            }
            let out_patterns: Vec<Expr> = args[num_ins..]
                .iter()
                .map(|e| e.subst_lvars(&|s| b.get(&s).cloned()))
                .collect();
            let mut matched = true;
            for (pat, actual) in out_patterns.iter().zip(inst.args[num_ins..].iter()) {
                if !self.unify(&c, &mut b, pat, actual) {
                    matched = false;
                    break;
                }
            }
            if matched {
                return Ok(vec![(c, b)]);
            }
            return Err(VerError::new(format!(
                "guarded predicate {name}: out-parameter mismatch"
            )));
        }
        // Maybe the borrow is currently open: close it and retry.
        if recovery_budget > 0 && self.opts.auto_recover {
            if let Some(tok_idx) = cfg
                .closing
                .iter()
                .position(|ct| ct.pred == name && self.args_match(&cfg, &ct.args, &ins_sub))
            {
                if let Ok(closed_cfgs) = self.gfold(cfg, tok_idx) {
                    let mut out = Vec::new();
                    for c in closed_cfgs {
                        if let Ok(v) = self.consume_guarded(
                            c,
                            bindings.clone(),
                            name,
                            lft,
                            args,
                            recovery_budget - 1,
                        ) {
                            out.extend(v);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(out);
                    }
                }
            }
        }
        Err(VerError::with_hint(
            format!("guarded predicate {name}({ins_sub:?}) not found"),
            ins_sub,
        ))
    }

    fn args_match(&self, cfg: &Config<S>, a: &[Expr], b: &[Expr]) -> bool {
        if b.len() > a.len() {
            return false;
        }
        a.iter().zip(b.iter()).all(|(x, y)| cfg.must_equal(x, y))
    }

    /// Structural unification used when matching out-parameters: binds unbound
    /// logical variables in `pattern` to the corresponding parts of `actual`
    /// and checks equality for already-determined parts.
    pub fn unify(
        &self,
        cfg: &Config<S>,
        bindings: &mut Bindings,
        pattern: &Expr,
        actual: &Expr,
    ) -> bool {
        // The rewrite fallback explores the path-condition equality graph,
        // which may contain cycles; the depth bound keeps the search finite
        // and the failure memo keeps it from re-exploring.
        let mut failed = HashMap::new();
        self.unify_bounded(cfg, bindings, pattern, actual, 16, &mut failed)
    }

    fn unify_bounded(
        &self,
        cfg: &Config<S>,
        bindings: &mut Bindings,
        pattern: &Expr,
        actual: &Expr,
        depth: usize,
        failed: &mut HashMap<(Expr, Expr), usize>,
    ) -> bool {
        let pattern = pattern.subst_lvars(&|s| bindings.get(&s).cloned());
        match (&pattern, actual) {
            (Expr::LVar(s), _) => {
                bindings.insert(*s, actual.clone());
                true
            }
            (Expr::Ctor(t1, args1), Expr::Ctor(t2, args2))
                if t1 == t2 && args1.len() == args2.len() =>
            {
                args1
                    .iter()
                    .zip(args2.iter())
                    .all(|(p, a)| self.unify_bounded(cfg, bindings, p, a, depth, failed))
            }
            (Expr::Tuple(args1), Expr::Tuple(args2)) if args1.len() == args2.len() => args1
                .iter()
                .zip(args2.iter())
                .all(|(p, a)| self.unify_bounded(cfg, bindings, p, a, depth, failed)),
            (Expr::SeqLit(args1), Expr::SeqLit(args2)) if args1.len() == args2.len() => args1
                .iter()
                .zip(args2.iter())
                .all(|(p, a)| self.unify_bounded(cfg, bindings, p, a, depth, failed)),
            _ => {
                if pattern.lvars().is_empty() {
                    return cfg.must_equal(&pattern, actual);
                }
                // The pattern still has unknowns but the actual value is
                // opaque: look through the path condition for a constructor
                // form of the actual value (e.g. `v == Some(w)` learned by an
                // `unwrap_option`) and retry against it. Two passes: first
                // syntactic equality with either side of a path equation
                // (cheap), then membership of one congruence class
                // (`congruent`), which sees through chains like `h == v,
                // v == Some(w)` that have no single syntactic fact for `h`.
                // This only proposes a form to unify against, so the closure
                // lookup stands in for an entailment query: a form equal to
                // `actual` only through arithmetic or a case split is
                // missed, which can cost a proof but never soundness.
                //
                // The path condition is fixed for the whole unification, so
                // a (substituted pattern, actual) subproblem is determined
                // by the pair plus the remaining depth budget. Failures are
                // memoised together with the budget they failed at: a
                // failure with depth `d` soundly blocks retries with depth
                // `<= d` (a smaller budget can only explore less), while a
                // retry with a larger budget runs afresh. DFS reaches each
                // pair first along the shortest hop chain — the largest
                // remaining budget — so nearly every revisit is a memo hit.
                // Without the memo the fallback re-derives identical
                // failures along every combination of equality hops: the
                // LinkedList fold searches issued ~150 million (cached)
                // solver queries this way, dominating the multi-minute
                // proof times recorded in EXPERIMENTS.md.
                if depth > 0 && matches!(pattern, Expr::Ctor(..) | Expr::Tuple(_) | Expr::SeqLit(_))
                {
                    let key = (pattern.clone(), actual.clone());
                    if failed.get(&key).is_some_and(|&d| d >= depth) {
                        return false;
                    }
                    // Snapshot the path (refcount bumps only — the entries
                    // are shared arena allocations) and borrow the equation
                    // sides out of it: no term is deep-cloned here.
                    let path = cfg.ctx.path();
                    let mut ctor_facts: Vec<(&Expr, &Expr)> = Vec::new();
                    for fact in &path {
                        if let Expr::BinOp(gillian_solver::BinOp::Eq, a, b) = fact.as_ref() {
                            if matches!(
                                b.as_ref(),
                                Expr::Ctor(..) | Expr::Tuple(_) | Expr::SeqLit(_)
                            ) {
                                ctor_facts.push((a, b));
                            }
                            if matches!(
                                a.as_ref(),
                                Expr::Ctor(..) | Expr::Tuple(_) | Expr::SeqLit(_)
                            ) {
                                ctor_facts.push((b, a));
                            }
                        }
                    }
                    for &(opaque, form) in &ctor_facts {
                        if opaque == actual {
                            let mut trial = bindings.clone();
                            if self.unify_bounded(
                                cfg,
                                &mut trial,
                                &pattern,
                                form,
                                depth - 1,
                                failed,
                            ) {
                                *bindings = trial;
                                return true;
                            }
                        }
                    }
                    for &(opaque, form) in &ctor_facts {
                        if opaque != actual && cfg.ctx.congruent(opaque, actual) {
                            let mut trial = bindings.clone();
                            if self.unify_bounded(
                                cfg,
                                &mut trial,
                                &pattern,
                                form,
                                depth - 1,
                                failed,
                            ) {
                                *bindings = trial;
                                return true;
                            }
                        }
                    }
                    let slot = failed.entry(key).or_insert(0);
                    *slot = (*slot).max(depth);
                }
                false
            }
        }
    }

    // =====================================================================
    // Fold / unfold / borrows / recovery
    // =====================================================================

    /// Unfolds a folded predicate instance (by index), producing its
    /// definition. Branches over the definition disjuncts; infeasible
    /// disjuncts vanish.
    pub fn unfold_folded(
        &self,
        mut cfg: Config<S>,
        idx: usize,
    ) -> Result<Vec<Config<S>>, VerError> {
        let name = cfg.folded[idx].name;
        let pred = self
            .prog
            .pred(name)
            .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?;
        if pred.is_abstract {
            return Err(VerError::new(format!(
                "cannot unfold abstract predicate {name}"
            )));
        }
        self.bump(|s| &s.unfolds);
        let inst = cfg.folded.remove(idx);
        if debug_enabled() {
            eprintln!("[unfold] {}({:?})", inst.name, inst.args);
        }
        let mut out = Vec::new();
        for (base, def_idx) in fan_out(cfg, 0..pred.definitions.len()) {
            let def = self.freshen_lvars(&pred.instantiate(def_idx, &inst.args));
            let mut bindings = Bindings::new();
            out.extend(self.produce(base, &def, &mut bindings));
        }
        Ok(out)
    }

    /// Opens a guarded predicate (a full borrow): consumes the lifetime token,
    /// produces the predicate definition and a closing token (Unfold-Guarded).
    pub fn gunfold(&self, mut cfg: Config<S>, idx: usize) -> Result<Vec<Config<S>>, VerError> {
        let name = cfg.guarded[idx].name;
        let pred = self
            .prog
            .pred(name)
            .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?;
        self.bump(|s| &s.borrow_opens);
        let gp = cfg.guarded.remove(idx);
        if debug_enabled() {
            eprintln!("[borrow] open {}({:?})", gp.name, gp.args);
        }
        // Consume the lifetime token [κ]_q.
        let token = Asrt::Core {
            name: Symbol::new(LFT_TOKEN),
            ins: vec![gp.lft.clone()],
            outs: vec![Expr::LVar(self.fresh_lvar_name("q"))],
        };
        let frac_lvar = match &token {
            Asrt::Core { outs, .. } => match &outs[0] {
                Expr::LVar(s) => *s,
                _ => unreachable!(),
            },
            _ => unreachable!(),
        };
        let branches = self.consume(cfg, Bindings::new(), &token)?;
        let mut out = Vec::new();
        for (mut c, b) in branches {
            let frac = b.get(&frac_lvar).cloned().unwrap_or(Expr::Int(1));
            c.closing.push(ClosingToken {
                pred: gp.name,
                lft: gp.lft.clone(),
                frac,
                args: gp.args.clone(),
            });
            for (c, def_idx) in fan_out(c, 0..pred.definitions.len()) {
                let def = self.freshen_lvars(&pred.instantiate(def_idx, &gp.args));
                let mut bindings = Bindings::new();
                out.extend(self.produce(c, &def, &mut bindings));
            }
        }
        Ok(out)
    }

    /// Closes an open borrow: consumes the borrowed predicate's definition
    /// (re-folding it) and the closing token, restores the guarded predicate
    /// and recovers the lifetime token.
    pub fn gfold(&self, mut cfg: Config<S>, token_idx: usize) -> Result<Vec<Config<S>>, VerError> {
        self.bump(|s| &s.borrow_closes);
        let ct = cfg.closing.remove(token_idx);
        if debug_enabled() {
            eprintln!("[borrow] close {}({:?})", ct.pred, ct.args);
        }
        // Consume the predicate (this re-establishes the invariant).
        let pred_asrt = Asrt::Pred {
            name: ct.pred,
            args: ct.args.clone(),
        };
        let branches = self.consume(cfg, Bindings::new(), &pred_asrt)?;
        let mut out = Vec::new();
        for (mut c, _b) in branches {
            c.guarded.push(GuardedPred {
                name: ct.pred,
                lft: ct.lft.clone(),
                args: ct.args.clone(),
            });
            // Recover the lifetime token.
            out.extend(self.produce_core(
                c,
                Symbol::new(LFT_TOKEN),
                std::slice::from_ref(&ct.lft),
                std::slice::from_ref(&ct.frac),
            ));
        }
        if out.is_empty() {
            Err(VerError::new(format!(
                "could not close borrow {}({:?})",
                ct.pred, ct.args
            )))
        } else {
            Ok(out)
        }
    }

    /// Attempts one automatic recovery step for a missing resource related to
    /// the hint expressions: unfold a related folded predicate, open a related
    /// borrow, or close an open borrow (re-folding its body).
    ///
    /// Candidates are ranked by a **relatedness ordering** rather than tried
    /// in state order. Re-folds (closing an open borrow) and unfolds whose
    /// parameters *directly* overlap the failed consume — syntactic
    /// containment or one congruence class — come before candidates that
    /// are only related through a shared path-condition fact. Before this
    /// ordering, the first weakly-related spine predicate was unfolded at
    /// every recovery level, so searches over recursive structures
    /// (`dll_seg`) unrolled the whole spine to the recovery budget before
    /// the directly-relevant fold was ever attempted (EXPERIMENTS.md). The
    /// ranking asks the closure ([`gillian_solver::SolverCtx::congruent`]),
    /// not the solver: it only orders the attempts, and each attempt's
    /// consume still decides.
    pub fn try_recover(&self, cfg: &Config<S>, hint: &[Expr]) -> Vec<Config<S>> {
        if !self.opts.auto_recover || hint.is_empty() {
            return vec![];
        }
        self.bump(|s| &s.recoveries);

        enum Action {
            Close(usize),
            Unfold(usize),
            Open(usize),
        }
        // Rank: 0 = close a directly-overlapping open borrow (re-folding an
        // invariant that mentions the missing resource beats unfolding more
        // of a structure's spine), 1 = directly-overlapping unfold, 2 =
        // directly-overlapping borrow open, 3 = close a borrow whose
        // lifetime is the missing resource, 4/5 = weakly (path-fact)
        // related unfold/open. Ties break on state order, so the search
        // stays deterministic.
        let mut candidates: Vec<(u8, usize, Action)> = Vec::new();
        for (idx, fp) in cfg.folded.iter().enumerate() {
            match self.prog.pred(fp.name) {
                Some(p) if !p.is_abstract => {}
                _ => continue,
            }
            match self.relatedness(cfg, &fp.args, hint) {
                Some(Relatedness::Direct) => candidates.push((1, idx, Action::Unfold(idx))),
                Some(Relatedness::ViaPath) => candidates.push((4, idx, Action::Unfold(idx))),
                None => {}
            }
        }
        for (idx, gp) in cfg.guarded.iter().enumerate() {
            match self.relatedness(cfg, &gp.args, hint) {
                Some(Relatedness::Direct) => candidates.push((2, idx, Action::Open(idx))),
                Some(Relatedness::ViaPath) => candidates.push((5, idx, Action::Open(idx))),
                None => {}
            }
        }
        for (idx, ct) in cfg.closing.iter().enumerate() {
            if self.relatedness(cfg, &ct.args, hint) == Some(Relatedness::Direct) {
                candidates.push((0, idx, Action::Close(idx)));
            } else if hint.iter().any(|h| cfg.ctx.congruent(h, &ct.lft)) {
                candidates.push((3, idx, Action::Close(idx)));
            }
        }
        candidates.sort_by_key(|(rank, idx, _)| (*rank, *idx));
        for (_, _, action) in candidates {
            let result = match action {
                Action::Close(i) => self.gfold(cfg.clone(), i),
                Action::Unfold(i) => self.unfold_folded(cfg.clone(), i),
                Action::Open(i) => self.gunfold(cfg.clone(), i),
            };
            if let Ok(v) = result {
                if !v.is_empty() {
                    return v;
                }
            }
        }
        vec![]
    }

    /// Heuristic relatedness between a predicate's arguments and a hint: they
    /// are related if any pair is in one congruence class, one contains the
    /// other syntactically, or some path-condition fact mentions both.
    fn related(&self, cfg: &Config<S>, args: &[Expr], hint: &[Expr]) -> bool {
        self.relatedness(cfg, args, hint).is_some()
    }

    /// How strongly a predicate's arguments relate to a recovery hint:
    /// [`Relatedness::Direct`] when some pair is syntactically nested or in
    /// one congruence class, [`Relatedness::ViaPath`] when the only
    /// connection is a path-condition fact mentioning both sides.
    fn relatedness(&self, cfg: &Config<S>, args: &[Expr], hint: &[Expr]) -> Option<Relatedness> {
        let mut via_path = false;
        // Snapshotted once, by the first pair that needs it.
        let mut path = None;
        for a in args {
            if a.is_literal() {
                continue;
            }
            for h in hint {
                if contains_expr(a, h) || contains_expr(h, a) {
                    return Some(Relatedness::Direct);
                }
                if cfg.ctx.congruent(a, h) {
                    return Some(Relatedness::Direct);
                }
                if !via_path {
                    via_path = path
                        .get_or_insert_with(|| cfg.ctx.path())
                        .iter()
                        .any(|fact| contains_expr(fact, a) && contains_expr(fact, h));
                }
            }
        }
        via_path.then_some(Relatedness::ViaPath)
    }

    /// Auto-unfolds folded predicates related to a branch guard (the
    /// heuristic unfolding of §2.3 / §6).
    fn auto_unfold_for_branch(&self, cfg: Config<S>, guard: &Expr) -> Vec<Config<S>> {
        if !self.opts.auto_unfold_on_branch {
            return vec![cfg];
        }
        let mut atoms: Vec<Expr> = Vec::new();
        guard.visit(&mut |e| {
            if !e.is_literal() {
                atoms.push(e.clone());
            }
        });
        let mut configs = vec![cfg];
        for _ in 0..self.opts.max_branch_unfolds {
            let mut changed = false;
            let mut next = Vec::new();
            for c in configs {
                let target = c.folded.iter().enumerate().find_map(|(idx, fp)| {
                    let pred = self.prog.pred(fp.name)?;
                    if pred.is_abstract || !pred.unfold_on_branch {
                        return None;
                    }
                    let ins = &fp.args[..pred.num_ins.min(fp.args.len())];
                    if self.related(&c, ins, &atoms) {
                        Some(idx)
                    } else {
                        None
                    }
                });
                match target {
                    Some(idx) => match self.unfold_folded(c.clone(), idx) {
                        Ok(v) if !v.is_empty() => {
                            changed = true;
                            next.extend(v);
                        }
                        _ => next.push(c),
                    },
                    None => next.push(c),
                }
            }
            configs = next;
            if !changed {
                break;
            }
        }
        configs
    }

    // =====================================================================
    // Command execution
    // =====================================================================

    fn exec_action_cmd(
        &self,
        mut cfg: Config<S>,
        name: Symbol,
        args: &[Expr],
        budget: usize,
    ) -> Result<Vec<(Config<S>, Expr)>, VerError> {
        self.bump(|s| &s.actions);
        let result = cfg.with_ctx(|state, ctx| state.exec_action(name, args, ctx));
        match result {
            ActionResult::Ok(outcomes) => {
                let mut out = Vec::new();
                for (mut c, ok) in fan_out(cfg, outcomes) {
                    c.state = ok.state;
                    let mut feasible = true;
                    for f in ok.facts {
                        if !c.assume(f) {
                            feasible = false;
                            break;
                        }
                    }
                    if feasible {
                        out.push((c, ok.value));
                    }
                }
                Ok(out)
            }
            ActionResult::Missing { msg, hint } => {
                if budget > 0 && self.opts.auto_recover {
                    let recovered = self.try_recover(&cfg, &hint);
                    let mut out = Vec::new();
                    for rc in recovered {
                        if let Ok(v) = self.exec_action_cmd(rc, name, args, budget - 1) {
                            out.extend(v);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(out);
                    }
                }
                Err(VerError::with_hint(
                    format!("action {name} missing resource: {msg}"),
                    hint,
                ))
            }
            ActionResult::Error(msg) => Err(VerError::new(format!("action {name} failed: {msg}"))),
        }
    }

    /// Executes a logic (ghost) command.
    pub fn exec_logic(&self, cfg: Config<S>, cmd: &LogicCmd) -> Result<Vec<Config<S>>, VerError> {
        let eval_args = |cfg: &Config<S>, args: &[Expr]| -> Vec<Expr> {
            args.iter().map(|a| cfg.eval(a)).collect()
        };
        match cmd {
            LogicCmd::Fold(name, args) => {
                let args_e = eval_args(&cfg, args);
                let num_ins = self
                    .prog
                    .pred(*name)
                    .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?
                    .num_ins
                    .min(args_e.len());
                let branches = self.consume_user_pred(
                    cfg,
                    Bindings::new(),
                    *name,
                    &args_e,
                    self.opts.max_recovery_steps,
                )?;
                let mut out = Vec::new();
                for (mut c, b) in branches {
                    // Rebuild the argument list with learned outs.
                    let mut final_args = args_e[..num_ins].to_vec();
                    for pat in &args_e[num_ins..] {
                        final_args.push(simplify(&pat.subst_lvars(&|s| b.get(&s).cloned())));
                    }
                    c.folded.push(FoldedPred {
                        name: *name,
                        args: final_args,
                    });
                    out.push(c);
                }
                Ok(out)
            }
            LogicCmd::Unfold(name, args) => {
                let args_e = eval_args(&cfg, args);
                let pred = self
                    .prog
                    .pred(*name)
                    .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?;
                let idx = cfg
                    .find_folded(*name, &args_e, pred.num_ins.min(args_e.len()))
                    .ok_or_else(|| {
                        VerError::new(format!("no folded instance of {name} to unfold"))
                    })?;
                self.unfold_folded(cfg, idx)
            }
            LogicCmd::UnfoldGuarded(name, args) => {
                let args_e = eval_args(&cfg, args);
                let pred = self
                    .prog
                    .pred(*name)
                    .ok_or_else(|| VerError::new(format!("unknown predicate {name}")))?;
                let idx = cfg
                    .find_guarded(*name, &args_e, pred.num_ins.min(args_e.len()))
                    .ok_or_else(|| {
                        VerError::new(format!("no guarded instance of {name} to open"))
                    })?;
                self.gunfold(cfg, idx)
            }
            LogicCmd::FoldGuarded(name, args) => {
                let args_e = eval_args(&cfg, args);
                let idx = cfg
                    .closing
                    .iter()
                    .position(|ct| ct.pred == *name && self.args_match(&cfg, &ct.args, &args_e))
                    .ok_or_else(|| VerError::new(format!("no open borrow of {name} to close")))?;
                self.gfold(cfg, idx)
            }
            LogicCmd::ApplyLemma(name, args) => {
                let args_e = eval_args(&cfg, args);
                self.apply_lemma(cfg, *name, &args_e)
            }
            LogicCmd::Assert(asrt) => {
                let asrt = asrt.map_exprs(&|e| cfg.eval(e));
                let branches = self.consume(cfg, Bindings::new(), &asrt)?;
                let mut out = Vec::new();
                for (c, mut b) in branches {
                    out.extend(self.produce(c, &asrt, &mut b));
                }
                Ok(out)
            }
            LogicCmd::Assume(e) => {
                let mut c = cfg;
                let e = c.eval(e);
                if c.assume(e) {
                    Ok(vec![c])
                } else {
                    Ok(vec![])
                }
            }
            LogicCmd::Produce(asrt) => {
                let asrt = asrt.map_exprs(&|e| cfg.eval(e));
                let mut bindings = Bindings::new();
                Ok(self.produce(cfg, &asrt, &mut bindings))
            }
            LogicCmd::Consume(asrt) => {
                let asrt = asrt.map_exprs(&|e| cfg.eval(e));
                let branches = self.consume(cfg, Bindings::new(), &asrt)?;
                Ok(branches.into_iter().map(|(c, _)| c).collect())
            }
            LogicCmd::Tactic(name, args) => {
                let args_e = eval_args(&cfg, args);
                let tactic = self
                    .tactics
                    .get(name)
                    .copied()
                    .ok_or_else(|| VerError::new(format!("unknown tactic {name}")))?;
                tactic(self, cfg, &args_e)
            }
        }
    }

    /// Applies a lemma: consumes its hypothesis and produces its conclusions.
    pub fn apply_lemma(
        &self,
        cfg: Config<S>,
        name: Symbol,
        args: &[Expr],
    ) -> Result<Vec<Config<S>>, VerError> {
        let lemma = self
            .prog
            .lemma(name)
            .ok_or_else(|| VerError::new(format!("unknown lemma {name}")))?;
        let mut bindings = Bindings::new();
        for (param, arg) in lemma.params.iter().zip(args.iter()) {
            bindings.insert(*param, arg.clone());
        }
        let branches = self.consume(cfg, bindings, &lemma.hyp)?;
        let mut out = Vec::new();
        for (c, mut b) in branches {
            for (c, concl) in fan_out(c, &lemma.concls) {
                out.extend(self.produce(c, concl, &mut b));
            }
        }
        if out.is_empty() {
            Err(VerError::new(format!(
                "applying lemma {name} produced no feasible state"
            )))
        } else {
            Ok(out)
        }
    }

    /// Executes one command of `proc` at `pc` in `cfg`, classifying the
    /// outcome. Successors are returned in *canonical visit order*: the
    /// order in which [`Engine::exec_proc`] explores them.
    fn step(
        &self,
        cfg: Config<S>,
        pc: usize,
        proc: &Proc,
        depth: usize,
    ) -> Result<StepOutcome<S>, VerError> {
        self.bump(|s| &s.commands_executed);
        if pc >= proc.body.len() {
            return Ok(StepOutcome::Finished(Box::new(cfg), Expr::Unit));
        }
        match &proc.body[pc] {
            Cmd::Skip => Ok(StepOutcome::one(cfg, pc + 1)),
            Cmd::Assign(x, e) => {
                let mut c = cfg;
                let v = c.eval(e);
                c.assign(*x, v);
                Ok(StepOutcome::one(c, pc + 1))
            }
            Cmd::Action { lhs, name, args } => {
                let args_e: Vec<Expr> = args.iter().map(|a| cfg.eval(a)).collect();
                let results =
                    self.exec_action_cmd(cfg, *name, &args_e, self.opts.max_recovery_steps)?;
                Ok(StepOutcome::Forked(
                    results
                        .into_iter()
                        .map(|(mut c, v)| {
                            c.assign(*lhs, v);
                            (c, pc + 1)
                        })
                        .collect(),
                ))
            }
            Cmd::Goto(t) => Ok(StepOutcome::one(cfg, *t)),
            Cmd::GotoIf {
                guard,
                then_target,
                else_target,
            } => {
                let g = cfg.eval(guard);
                match g.as_bool() {
                    Some(true) => Ok(StepOutcome::one(cfg, *then_target)),
                    Some(false) => Ok(StepOutcome::one(cfg, *else_target)),
                    None => {
                        let configs = self.auto_unfold_for_branch(cfg, &g);
                        let mut succs = Vec::new();
                        for c in configs {
                            self.bump(|s| &s.branches);
                            // Each side gets its own solver scope: the guard
                            // is asserted incrementally on top of the shared
                            // path prefix.
                            let arms = [
                                (g.clone(), *then_target),
                                (Expr::not(g.clone()), *else_target),
                            ];
                            for (mut c, (fact, target)) in fan_out(c, arms) {
                                c.branch_scope();
                                if c.assume(fact) {
                                    succs.push((c, target));
                                }
                            }
                        }
                        Ok(StepOutcome::Forked(succs))
                    }
                }
            }
            Cmd::Call {
                lhs,
                proc: callee,
                args,
            } => {
                let args_e: Vec<Expr> = args.iter().map(|a| cfg.eval(a)).collect();
                let results = self.exec_call(cfg, *callee, &args_e, depth)?;
                Ok(StepOutcome::Forked(
                    results
                        .into_iter()
                        .map(|(mut c, v)| {
                            c.assign(*lhs, v);
                            (c, pc + 1)
                        })
                        .collect(),
                ))
            }
            Cmd::Logic(l) => {
                let configs = self.exec_logic(cfg, l)?;
                Ok(StepOutcome::Forked(
                    configs.into_iter().map(|c| (c, pc + 1)).collect(),
                ))
            }
            Cmd::Return(e) => {
                let v = cfg.eval(e);
                self.bump(|s| &s.paths_completed);
                Ok(StepOutcome::Finished(Box::new(cfg), v))
            }
            Cmd::Fail(msg) => {
                if self.opts.panics_are_safe {
                    // Type-safety mode: a panic is safe behaviour, the path
                    // simply terminates without returning.
                    return Ok(StepOutcome::Pruned);
                }
                if cfg.feasible() {
                    if debug_enabled() {
                        eprintln!("--- reachable failure in {}: {msg}", proc.name);
                        let path = cfg.ctx.path();
                        eprintln!("path ({}):", path.len());
                        for f in &path {
                            eprintln!("  {f}");
                        }
                        eprintln!(
                            "folded: {:?}",
                            cfg.folded.iter().map(|f| f.name).collect::<Vec<_>>()
                        );
                    }
                    return Err(VerError::new(format!(
                        "reachable failure in {}: {msg}",
                        proc.name
                    )));
                }
                // Path pruned: the failure is unreachable (e.g. an overflow
                // contradicted by an observation).
                Ok(StepOutcome::Pruned)
            }
        }
    }

    /// Executes a procedure body from the beginning, returning the final
    /// configuration and return value of every path, in deterministic
    /// depth-first order: a LIFO worklist, successors pushed in reverse so
    /// they pop — and finish — in canonical visit order.
    pub fn exec_proc(
        &self,
        cfg: Config<S>,
        proc: &Proc,
        depth: usize,
    ) -> Result<Vec<(Config<S>, Expr)>, VerError> {
        if depth > self.opts.max_inline_depth {
            return Err(VerError::timeout(format!(
                "maximum inlining depth exceeded while executing {}",
                proc.name
            )));
        }
        let mut work: Vec<(Config<S>, usize)> = vec![(cfg, 0)];
        let mut finished: Vec<(Config<S>, Expr)> = Vec::new();
        let mut steps = 0usize;
        let mut max_live = 1u64;
        let deadline = current_deadline();
        while let Some((cfg, pc)) = work.pop() {
            steps += 1;
            if steps > self.opts.max_steps {
                return Err(VerError::timeout(format!(
                    "step budget exhausted while executing {}",
                    proc.name
                )));
            }
            if let Some((dl, budget)) = deadline {
                if Instant::now() >= dl {
                    return Err(deadline_error(budget, proc.name));
                }
            }
            if gillian_faults::hit("engine.step").is_some() {
                return Err(VerError::new(format!(
                    "injected fault: engine step failed while executing {}",
                    proc.name
                )));
            }
            match self.step(cfg, pc, proc, depth)? {
                StepOutcome::Forked(succs) => {
                    work.extend(succs.into_iter().rev());
                    max_live = max_live.max(work.len() as u64);
                }
                StepOutcome::Finished(c, v) => finished.push((*c, v)),
                StepOutcome::Pruned => {}
            }
        }
        self.stats
            .max_live_branches
            .fetch_max(max_live, Ordering::Relaxed);
        Ok(finished)
    }

    /// Calls a procedure: by specification if one exists, otherwise by
    /// inlining its body (symbolically executing it like any other code).
    pub fn exec_call(
        &self,
        cfg: Config<S>,
        callee: Symbol,
        args: &[Expr],
        depth: usize,
    ) -> Result<Vec<(Config<S>, Expr)>, VerError> {
        if let Some(spec) = self.prog.spec(callee) {
            return self.call_with_spec(cfg, spec, args);
        }
        let proc = self
            .prog
            .proc(callee)
            .ok_or_else(|| VerError::new(format!("unknown procedure {callee}")))?;
        // Inline: swap the store for the callee frame.
        let mut callee_cfg = cfg;
        let callee_store = proc.params.iter().copied().zip(args.iter().cloned());
        let saved_store = std::mem::replace(&mut callee_cfg.store, callee_store.collect());
        let results = self.exec_proc(callee_cfg, proc, depth + 1)?;
        Ok(fan_out(saved_store, results)
            .map(|(store, (mut c, v))| {
                c.store = store;
                (c, v)
            })
            .collect())
    }

    /// Uses a specification at a call site: consume the precondition, produce
    /// one of the postconditions, return the (fresh) return value.
    pub fn call_with_spec(
        &self,
        cfg: Config<S>,
        spec: &Spec,
        args: &[Expr],
    ) -> Result<Vec<(Config<S>, Expr)>, VerError> {
        let proc_params: Vec<Symbol> = match self.prog.proc_sig(spec.name) {
            Some(p) => p.params.clone(),
            None => (0..args.len())
                .map(|i| Symbol::new(&format!("arg{i}")))
                .collect(),
        };
        let param_map: HashMap<Symbol, Expr> = proc_params
            .iter()
            .copied()
            .zip(args.iter().cloned())
            .collect();
        let pre = spec.pre.subst_pvars(&|s| param_map.get(&s).cloned());
        let branches = self.consume(cfg, Bindings::new(), &pre)?;
        let ret_sym = Symbol::new(RET_VAR);
        let mut out = Vec::new();
        for (mut c, b) in branches {
            let ret_val = c.fresh();
            let mut post_map = param_map.clone();
            post_map.insert(ret_sym, ret_val.clone());
            for ((c, mut bindings), post) in fan_out((c, b), &spec.posts) {
                let post = post.subst_pvars(&|s| post_map.get(&s).cloned());
                for produced in self.produce(c, &post, &mut bindings) {
                    out.push((produced, ret_val.clone()));
                }
            }
        }
        if out.is_empty() {
            Err(VerError::new(format!(
                "no feasible postcondition when calling {} by spec",
                spec.name
            )))
        } else {
            Ok(out)
        }
    }

    // =====================================================================
    // Verification drivers
    // =====================================================================

    /// Checks a final configuration against alternative postconditions (or
    /// lemma conclusions), in order, each from a copy of `bindings`, and
    /// stops at the first that consumes. Every alternative but the last
    /// borrows `cfg`, so one that fails on its pure prefix copies nothing;
    /// the last takes `cfg` by move. Fails with the last alternative's error
    /// (`None` when there are no alternatives).
    fn consume_first(
        &self,
        cfg: Config<S>,
        bindings: &Bindings,
        alts: impl ExactSizeIterator<Item = impl Borrow<Asrt>>,
    ) -> Result<(), Option<VerError>> {
        let n = alts.len();
        for (i, alt) in alts.enumerate() {
            if i + 1 == n {
                return self
                    .consume(cfg, bindings.clone(), alt.borrow())
                    .map(drop)
                    .map_err(Some);
            }
            if self
                .consume_from(Cow::Borrowed(&cfg), bindings.clone(), alt.borrow())
                .is_ok()
            {
                return Ok(());
            }
        }
        Err(None)
    }

    /// Verifies a procedure against its specification, starting from an empty
    /// state.
    pub fn verify_proc(&self, name: &str) -> ProcReport {
        self.verify_proc_from(name, S::empty())
    }

    /// Verifies a procedure against its specification, starting from the
    /// given initial state (used by state models that carry static context
    /// such as a type registry).
    pub fn verify_proc_from(&self, name: &str, initial: S) -> ProcReport {
        let start = Instant::now();
        let name_sym = Symbol::new(name);
        let _deadline = DeadlineGuard::install(self.opts.target_timeout);
        let result = self.verify_proc_inner(name_sym, initial);
        ProcReport {
            name: name_sym,
            verified: result.is_ok(),
            paths: *result.as_ref().unwrap_or(&0),
            error: result.err(),
            elapsed: start.elapsed(),
        }
    }

    /// Returns the number of execution paths checked against the
    /// postcondition (counted per call, so the figure is exact even when
    /// several obligations verify concurrently on the shared engine).
    fn verify_proc_inner(&self, name: Symbol, initial: S) -> Result<u64, VerError> {
        let spec = self
            .prog
            .spec(name)
            .ok_or_else(|| VerError::missing_spec(format!("no specification for {name}")))?;
        if spec.trusted {
            return Ok(0);
        }
        let proc = self
            .prog
            .proc(name)
            .ok_or_else(|| VerError::missing_spec(format!("no procedure named {name}")))?;
        let mut cfg: Config<S> = Config::new(self.solver.ctx());
        cfg.state = initial;
        let mut param_map: HashMap<Symbol, Expr> = HashMap::new();
        for p in &proc.params {
            let v = cfg.fresh();
            cfg.assign(*p, v.clone());
            param_map.insert(*p, v);
        }
        let pre = spec.pre.subst_pvars(&|s| param_map.get(&s).cloned());
        let mut bindings = Bindings::new();
        let produced = self.produce(cfg, &pre, &mut bindings);
        if produced.is_empty() {
            return Err(VerError::spec_mismatch(format!(
                "precondition of {name} is inconsistent"
            )));
        }
        let ret_sym = Symbol::new(RET_VAR);
        let mut checked_paths = 0u64;
        for start_cfg in produced {
            let paths = self.exec_proc(start_cfg, proc, 0)?;
            for (cfg, ret_val) in paths {
                checked_paths += 1;
                let mut post_map = param_map.clone();
                post_map.insert(ret_sym, ret_val);
                let posts = spec
                    .posts
                    .iter()
                    .map(|post| post.subst_pvars(&|s| post_map.get(&s).cloned()));
                if let Err(last_err) = self.consume_first(cfg, &bindings, posts) {
                    let base = format!("postcondition of {name} not satisfied on some path");
                    return Err(match last_err {
                        Some(e) => VerError {
                            kind: VerErrorKind::SpecMismatch,
                            msg: format!("{base}: {}", e.msg),
                            hint: e.hint,
                        },
                        None => VerError::spec_mismatch(base),
                    });
                }
            }
        }
        Ok(checked_paths)
    }

    /// Verifies a lemma using its proof script (trusted lemmas are skipped).
    pub fn verify_lemma(&self, name: &str) -> ProcReport {
        self.verify_lemma_from(name, S::empty())
    }

    /// Verifies a lemma starting from the given initial state.
    pub fn verify_lemma_from(&self, name: &str, initial: S) -> ProcReport {
        let start = Instant::now();
        let name_sym = Symbol::new(name);
        let _deadline = DeadlineGuard::install(self.opts.target_timeout);
        let result = self.verify_lemma_inner(name_sym, initial);
        ProcReport {
            name: name_sym,
            verified: result.is_ok(),
            paths: *result.as_ref().unwrap_or(&0),
            error: result.err(),
            elapsed: start.elapsed(),
        }
    }

    /// Returns the number of proof states checked against the conclusions.
    fn verify_lemma_inner(&self, name: Symbol, initial: S) -> Result<u64, VerError> {
        let lemma = self
            .prog
            .lemma(name)
            .ok_or_else(|| VerError::missing_spec(format!("no lemma named {name}")))?;
        if lemma.trusted {
            return Ok(0);
        }
        let proof = lemma
            .proof
            .as_ref()
            .ok_or_else(|| VerError::missing_spec(format!("lemma {name} has no proof script")))?;
        let mut cfg: Config<S> = Config::new(self.solver.ctx());
        cfg.state = initial;
        let mut bindings = Bindings::new();
        for p in &lemma.params {
            bindings.insert(*p, cfg.fresh());
        }
        let produced = self.produce(cfg, &lemma.hyp, &mut bindings);
        let mut configs = produced;
        for step in proof {
            // Logic commands in lemma proofs refer to the lemma parameters as
            // logical variables; substitute them first.
            let step = subst_logic_cmd(step, &bindings);
            let mut next = Vec::new();
            for c in configs {
                next.extend(self.exec_logic(c, &step)?);
            }
            configs = next;
        }
        let mut checked_paths = 0u64;
        for c in configs {
            checked_paths += 1;
            if self
                .consume_first(c, &bindings, lemma.concls.iter())
                .is_err()
            {
                return Err(VerError::spec_mismatch(format!(
                    "conclusion of lemma {name} not satisfied on some path"
                )));
            }
        }
        Ok(checked_paths)
    }
}

fn subst_logic_cmd(cmd: &LogicCmd, bindings: &Bindings) -> LogicCmd {
    let s = |e: &Expr| e.subst_lvars(&|x| bindings.get(&x).cloned());
    let sv = |es: &[Expr]| es.iter().map(s).collect::<Vec<_>>();
    match cmd {
        LogicCmd::Fold(n, a) => LogicCmd::Fold(*n, sv(a)),
        LogicCmd::Unfold(n, a) => LogicCmd::Unfold(*n, sv(a)),
        LogicCmd::UnfoldGuarded(n, a) => LogicCmd::UnfoldGuarded(*n, sv(a)),
        LogicCmd::FoldGuarded(n, a) => LogicCmd::FoldGuarded(*n, sv(a)),
        LogicCmd::ApplyLemma(n, a) => LogicCmd::ApplyLemma(*n, sv(a)),
        LogicCmd::Assert(a) => LogicCmd::Assert(a.subst_lvars(&|x| bindings.get(&x).cloned())),
        LogicCmd::Assume(e) => LogicCmd::Assume(s(e)),
        LogicCmd::Produce(a) => LogicCmd::Produce(a.subst_lvars(&|x| bindings.get(&x).cloned())),
        LogicCmd::Consume(a) => LogicCmd::Consume(a.subst_lvars(&|x| bindings.get(&x).cloned())),
        LogicCmd::Tactic(n, a) => LogicCmd::Tactic(*n, sv(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EmptyState;

    #[test]
    fn unify_finds_a_constructor_form_through_the_closure_without_a_query() {
        // `h == v, v == Some(w)`: no single fact gives `h` a constructor
        // form, so the fallback's second pass finds `Some(w)` in `h`'s
        // congruence class, and asks the solver nothing.
        let engine: Engine<EmptyState> = Engine::new(Prog::new());
        let mut cfg: Config<EmptyState> = Config::new(engine.solver.ctx());
        let (h, v, w) = (cfg.fresh(), cfg.fresh(), cfg.fresh());
        assert!(cfg.assume(Expr::eq(h.clone(), v.clone())));
        assert!(cfg.assume(Expr::eq(v, Expr::some(w.clone()))));
        let x = Symbol::new("#x");
        let mut bindings = Bindings::new();
        let queries = engine.solver.stats().queries();
        assert!(engine.unify(&cfg, &mut bindings, &Expr::some(Expr::LVar(x)), &h));
        assert_eq!(bindings.get(&x), Some(&w));
        assert_eq!(engine.solver.stats().queries(), queries);
    }

    #[test]
    fn exec_proc_stops_at_the_step_budget() {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new("spin", &[], vec![Cmd::Goto(0)]));
        let opts = EngineOptions {
            max_steps: 100,
            ..EngineOptions::default()
        };
        let engine: Engine<EmptyState> = Engine::with_options(prog, opts);
        let cfg: Config<EmptyState> = Config::new(engine.solver.ctx());
        let proc = engine.prog.proc(Symbol::new("spin")).unwrap();
        let err = engine.exec_proc(cfg, proc, 0).unwrap_err();
        assert_eq!(err.kind, VerErrorKind::Timeout);
        assert!(err.msg.contains("step budget"), "{err}");
        assert_eq!(engine.stats().commands_executed, 100);
    }
}

/// The depth-first driver on a diamond: `x == 0` returns 1; otherwise
/// `x == 1` returns 2, else 3. The names date from the deleted
/// branch-parallel driver, which had to reproduce this serial order.
#[cfg(test)]
mod branch_parallel_tests {
    use super::*;
    use crate::state::EmptyState;

    fn diamond() -> Engine<EmptyState> {
        let mut prog = Prog::new();
        prog.add_proc(Proc::new(
            "diamond",
            &["x"],
            vec![
                Cmd::GotoIf {
                    guard: Expr::eq(Expr::pvar("x"), Expr::Int(0)),
                    then_target: 1,
                    else_target: 2,
                },
                Cmd::Return(Expr::Int(1)),
                Cmd::GotoIf {
                    guard: Expr::eq(Expr::pvar("x"), Expr::Int(1)),
                    then_target: 3,
                    else_target: 4,
                },
                Cmd::Return(Expr::Int(2)),
                Cmd::Return(Expr::Int(3)),
            ],
        ));
        Engine::new(prog)
    }

    fn run(engine: &Engine<EmptyState>) -> Vec<Expr> {
        let mut cfg: Config<EmptyState> = Config::new(engine.solver.ctx());
        let x = cfg.fresh();
        cfg.assign(Symbol::new("x"), x);
        let proc = engine.prog.proc(Symbol::new("diamond")).unwrap();
        engine
            .exec_proc(cfg, proc, 0)
            .expect("the diamond executes")
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    #[test]
    fn parallel_driver_matches_serial_order() {
        let order = run(&diamond());
        assert_eq!(order, vec![Expr::Int(1), Expr::Int(2), Expr::Int(3)]);
        assert_eq!(run(&diamond()), order);
    }

    /// The driver never holds more than the two arms of one fork.
    #[test]
    fn parallel_driver_tracks_live_branches() {
        let engine = diamond();
        run(&engine);
        assert_eq!(engine.stats().branches, 2);
        assert_eq!(engine.stats().max_live_branches, 2);
    }
}

/// Configurations are copied only where a proof forks. The state model
/// below counts its clones, and a configuration copy clones the state once,
/// so the count is the number of configuration copies.
#[cfg(test)]
mod clone_tests {
    use super::*;
    use crate::state::{ConsumeOk, ProduceOk, PureCtx};
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// A heap of `cell(loc; val)` resources whose `Clone` counts. Its own
    /// operations build new states without cloning.
    #[derive(Debug, Default)]
    struct Cells(Vec<(Expr, Expr)>);

    impl Clone for Cells {
        fn clone(&self) -> Self {
            CLONES.with(|n| n.set(n.get() + 1));
            Cells(self.0.clone())
        }
    }

    impl StateModel for Cells {
        fn empty() -> Self {
            Cells::default()
        }

        fn exec_action(&self, name: Symbol, _: &[Expr], _: &mut PureCtx<'_>) -> ActionResult<Self> {
            ActionResult::Error(format!("no action {name}"))
        }

        fn consume_core(
            &self,
            _: Symbol,
            ins: &[Expr],
            ctx: &mut PureCtx<'_>,
        ) -> ConsumeResult<Self> {
            match self
                .0
                .iter()
                .position(|(loc, _)| ctx.must_equal(loc, &ins[0]))
            {
                Some(i) => {
                    let mut rest = self.0.to_vec();
                    let (_, val) = rest.remove(i);
                    ConsumeResult::Ok(vec![ConsumeOk {
                        state: Cells(rest),
                        outs: vec![val],
                        facts: vec![],
                    }])
                }
                None => ConsumeResult::Missing {
                    msg: "no such cell".into(),
                    hint: ins.to_vec(),
                },
            }
        }

        fn produce_core(
            &self,
            _: Symbol,
            ins: &[Expr],
            outs: &[Expr],
            _: &mut PureCtx<'_>,
        ) -> Vec<ProduceOk<Self>> {
            let mut cells = self.0.to_vec();
            cells.push((ins[0].clone(), outs[0].clone()));
            vec![ProduceOk {
                state: Cells(cells),
                facts: vec![],
            }]
        }

        fn core_arity(&self, _: Symbol) -> Option<(usize, usize)> {
            Some((1, 1))
        }

        fn is_empty_heap(&self) -> bool {
            self.0.is_empty()
        }
    }

    /// Runs `f` and returns its result with the number of state clones.
    fn clones_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
        CLONES.with(|n| n.set(0));
        let r = f();
        (r, CLONES.with(|n| n.get()))
    }

    fn cell(loc: Expr, val: Expr) -> Asrt {
        Asrt::core("cell", vec![loc], vec![val])
    }

    fn config(engine: &Engine<Cells>) -> Config<Cells> {
        Config::new(engine.solver.ctx())
    }

    #[test]
    fn consuming_a_folded_instance_copies_nothing() {
        let mut prog = Prog::new();
        prog.add_pred(Pred::abstract_pred("p", &["x", "v"], 1));
        let engine: Engine<Cells> = Engine::new(prog);
        let mut cfg = config(&engine);
        let x = cfg.fresh();
        cfg.folded.push(FoldedPred {
            name: Symbol::new("p"),
            args: vec![x.clone(), Expr::Int(5)],
        });
        let asrt = Asrt::pred("p", vec![x, Expr::lvar("v")]);
        let (branches, clones) = clones_in(|| engine.consume(cfg, Bindings::new(), &asrt));
        let branches = branches.expect("the folded instance matches");
        assert_eq!(clones, 0);
        assert_eq!(branches.len(), 1);
        assert!(branches[0].0.folded.is_empty());
        assert_eq!(branches[0].1.get(&Symbol::new("v")), Some(&Expr::Int(5)));
    }

    #[test]
    fn single_outcome_core_steps_copy_nothing() {
        let engine: Engine<Cells> = Engine::new(Prog::new());
        let mut cfg = config(&engine);
        let x = cfg.fresh();
        let loc = std::slice::from_ref(&x);
        let (mut produced, clones) =
            clones_in(|| engine.produce_core(cfg, Symbol::new("cell"), loc, &[Expr::Int(7)]));
        assert_eq!(clones, 0);
        assert_eq!(produced.len(), 1);
        let cfg = produced.remove(0);
        let asrt = cell(x, Expr::lvar("v"));
        let (consumed, clones) = clones_in(|| engine.consume(cfg, Bindings::new(), &asrt));
        let consumed = consumed.expect("the cell is there");
        assert_eq!(clones, 0);
        assert_eq!(consumed.len(), 1);
        assert_eq!(consumed[0].1.get(&Symbol::new("v")), Some(&Expr::Int(7)));
    }

    #[test]
    fn folding_copies_only_past_the_pure_prefix() {
        // `p(x)` is `x == 0 * cell(x; v)` or `x == 1 * cell(x; v)`. With
        // `x == 1` the first definition fails on its pure atom, before any
        // copy; the second copies once, at `cell`.
        let def = |k: i128| {
            Asrt::star(vec![
                Asrt::pure(Expr::eq(Expr::lvar("x"), Expr::Int(k))),
                cell(Expr::lvar("x"), Expr::lvar("v")),
            ])
        };
        let mut prog = Prog::new();
        prog.add_pred(Pred::new("p", &["x"], 1, vec![def(0), def(1)]));
        let engine: Engine<Cells> = Engine::new(prog);
        let mut cfg = config(&engine);
        let x = cfg.fresh();
        assert!(cfg.assume(Expr::eq(x.clone(), Expr::Int(1))));
        cfg.state = Cells(vec![(x.clone(), Expr::Int(7))]);
        let asrt = Asrt::pred("p", vec![x]);
        let (branches, clones) = clones_in(|| engine.consume(cfg, Bindings::new(), &asrt));
        let branches = branches.expect("the second definition folds");
        assert_eq!(clones, 1);
        assert_eq!(branches.len(), 1);
        assert!(branches[0].0.state.0.is_empty());
        assert_eq!(engine.stats().folds, 1);
    }

    #[test]
    fn a_symbolic_goto_if_copies_once() {
        // Two paths, checked against two postconditions: the first fails on
        // its pure atom and the second, the last, takes each final state.
        let mut prog = Prog::new();
        prog.add_proc(Proc::new(
            "branchy",
            &["x"],
            vec![
                Cmd::GotoIf {
                    guard: Expr::eq(Expr::pvar("x"), Expr::Int(0)),
                    then_target: 1,
                    else_target: 2,
                },
                Cmd::Return(Expr::Int(1)),
                Cmd::Return(Expr::Int(2)),
            ],
        ));
        prog.add_spec(Spec::with_posts(
            "branchy",
            Asrt::Emp,
            vec![
                Asrt::pure(Expr::eq(Expr::pvar(RET_VAR), Expr::Int(3))),
                Asrt::pure(Expr::lt(Expr::Int(0), Expr::pvar(RET_VAR))),
            ],
        ));
        let engine: Engine<Cells> = Engine::new(prog);
        let (report, clones) = clones_in(|| engine.verify_proc("branchy"));
        assert!(report.verified, "{:?}", report.error);
        assert_eq!(report.paths, 2);
        assert_eq!(engine.stats().branches, 1);
        assert_eq!(clones, 1);
    }
}
