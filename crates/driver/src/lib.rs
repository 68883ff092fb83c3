//! # hybrid-driver
//!
//! The unified front door of the hybrid verification pipeline: a
//! [`HybridSession`] bundles a mini-MIR program, its Gilsonite specification
//! context, optional Pearlite extern-specs (auto-elaborated through
//! `creusot_lite::elaborate`, closing the §6 hybrid loop inside the API), the
//! verified property ([`SpecMode`]) and the engine configuration behind one
//! fluent [`SessionBuilder`].
//!
//! Every workload of the reproduction — type safety, functional correctness,
//! the RefinedRust-style baseline ablation, hybrid spec reuse and the Table 1
//! regeneration — is a configuration of this one driver:
//!
//! ```
//! use driver::HybridSession;
//! use gillian_rust::gilsonite::{lv, SpecMode};
//! use gillian_solver::Expr;
//! use rust_ir::{BodyBuilder, Operand, Place, Program, Ty};
//!
//! let mut program = Program::new("demo");
//! let mut b = BodyBuilder::new("id", vec![("x", Ty::usize())], Ty::usize());
//! b.ret_val(Operand::copy(Place::local("x")));
//! let f = b.finish();
//! program.add_fn(f.clone());
//!
//! let session = HybridSession::builder()
//!     .name("demo")
//!     .program(program)
//!     .mode(SpecMode::FunctionalCorrectness)
//!     .configure(move |g| {
//!         let spec = g.fn_spec(&f, vec![], vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
//!         g.add_spec(spec);
//!     })
//!     .verify_fn("id")
//!     .workers(2)
//!     .build()
//!     .unwrap();
//! let report = session.verify_all();
//! assert!(report.all_verified());
//! ```
//!
//! [`HybridSession::verify_all`] runs every registered target **in parallel**
//! across a configurable number of worker threads (the [`Verifier`] is
//! `&self`-based and `Sync`), aggregating per-case outcomes, engine statistics
//! and wall/CPU time into a [`VerificationReport`] that renders to text or
//! JSON.

pub use creusot_lite::ExternSpecs;
pub use gillian_absint::{AnalysisOptions, InvariantTable, ProcInvariants};
pub use gillian_engine::{EngineOptions, EngineStats};
pub use gillian_lint::{LintDiagnostic, LintOptions, LintReport, Severity as LintSeverity};
pub use gillian_rust::verifier::VerifyDiagnostic;
pub use gillian_solver::{BackendKind, SolverStats};
pub use proof_cache::{CacheStore, DirStore, MemStore};

use creusot_lite::elaborate;
use gillian_absint::{analyze_prog, ActionBounds};
use gillian_rust::compile::CompileError;
use gillian_rust::gilsonite::{GilsoniteCtx, SpecMode};
use gillian_rust::types::{TypeRegistry, Types};
use gillian_rust::verifier::{CaseReport, Verifier, VerifierOptions};
use gillian_solver::Symbol;
use proof_cache::{
    find_record, fingerprint_reads, namespace_fingerprint, verified_record, CacheRecord, DepKey,
    RunCounters,
};
use rust_ir::{LayoutOracle, Program, Ty};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// An error raised while building a [`HybridSession`].
#[derive(Debug)]
pub enum SessionError {
    /// No mini-MIR program was registered with the builder.
    MissingProgram,
    /// The session resolved to zero verification targets: nothing would be
    /// verified and `verify_all` would vacuously report success.
    NoTargets,
    /// The program failed to compile to GIL.
    Compile(CompileError),
    /// An extern spec names a function absent from the program.
    UnknownExternSpec { name: String },
    /// A verification target names neither a function nor a lemma.
    UnknownTarget { name: String },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingProgram => {
                write!(
                    f,
                    "no program registered: call SessionBuilder::program first"
                )
            }
            SessionError::NoTargets => write!(
                f,
                "no verification targets: register specs (or explicit verify_fn/verify_lemma targets) so the session has something to prove"
            ),
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::UnknownExternSpec { name } => {
                write!(f, "extern spec `{name}` names no function of the program")
            }
            SessionError::UnknownTarget { name } => {
                write!(
                    f,
                    "verification target `{name}` is neither a function nor a lemma"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// What kind of obligation a verification target is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    Function,
    Lemma,
}

impl TargetKind {
    pub fn label(self) -> &'static str {
        match self {
            TargetKind::Function => "fn",
            TargetKind::Lemma => "lemma",
        }
    }
}

/// One verification target of a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Target {
    pub kind: TargetKind,
    pub name: String,
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The outcome of one verification target.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    pub kind: TargetKind,
    pub report: CaseReport,
}

impl CaseOutcome {
    /// The verified outcome a matching proof-cache record stands for. It
    /// carries the cold proving time, so cached reports keep a meaningful
    /// Table 1 "Time" column.
    pub fn from_record(target: &Target, record: &CacheRecord) -> CaseOutcome {
        CaseOutcome {
            kind: target.kind,
            report: CaseReport {
                name: target.name.clone(),
                verified: true,
                elapsed: Duration::from_nanos(record.elapsed_nanos),
                diagnostic: None,
            },
        }
    }

    pub fn name(&self) -> &str {
        &self.report.name
    }

    pub fn verified(&self) -> bool {
        self.report.verified
    }

    pub fn diagnostic(&self) -> Option<&VerifyDiagnostic> {
        self.report.diagnostic.as_ref()
    }
}

/// The aggregated result of a [`HybridSession::verify_all`] batch.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// The session name (for rendering).
    pub session: String,
    /// The verified property.
    pub mode: SpecMode,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Per-target outcomes, in registration order regardless of worker count.
    pub cases: Vec<CaseOutcome>,
    /// End-to-end wall-clock time of the batch.
    pub wall_time: Duration,
    /// Engine statistics accumulated over the batch.
    pub stats: EngineStats,
    /// The solver backend that answered the batch's pure queries.
    pub backend: BackendKind,
    /// Solver statistics (query/hit counts) accumulated over the batch.
    pub solver: SolverStats,
    /// Static-analysis findings from the lint-before-verify pass (empty when
    /// linting is disabled or the program is clean). Lint *errors* fail the
    /// batch fast — every case reports unverified with a lint diagnostic and
    /// no proof search runs; warnings ride along informationally.
    pub lints: Vec<LintDiagnostic>,
}

impl VerificationReport {
    /// Did every target verify?
    pub fn all_verified(&self) -> bool {
        self.cases.iter().all(|c| c.verified())
    }

    /// Number of verified targets.
    pub fn verified_count(&self) -> usize {
        self.cases.iter().filter(|c| c.verified()).count()
    }

    /// Total CPU time: the sum of per-target verification times (the "Time"
    /// column of Table 1). Under parallel execution this exceeds
    /// [`VerificationReport::wall_time`].
    pub fn cpu_time(&self) -> Duration {
        self.cases.iter().map(|c| c.report.elapsed).sum()
    }

    /// Looks up the outcome for a target by name.
    pub fn case(&self, name: &str) -> Option<&CaseOutcome> {
        self.cases.iter().find(|c| c.name() == name)
    }

    /// The plain per-case reports (used by Table 1 projections).
    pub fn into_case_reports(self) -> Vec<CaseReport> {
        self.cases.into_iter().map(|c| c.report).collect()
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mode = match self.mode {
            SpecMode::TypeSafety => "TS",
            SpecMode::FunctionalCorrectness => "FC",
        };
        let smt = if self.solver.smt_queries > 0 || self.solver.smt_failures > 0 {
            let reenabled = if self.solver.smt_reenabled > 0 {
                format!(" / {} re-enabled", self.solver.smt_reenabled)
            } else {
                String::new()
            };
            format!(
                ", smt {} asked / {} unsat / {} failed{reenabled}",
                self.solver.smt_queries, self.solver.smt_unsat, self.solver.smt_failures,
            )
        } else {
            String::new()
        };
        let disk = if self.solver.disk_cache_hits
            + self.solver.disk_cache_misses
            + self.solver.disk_cache_writes
            > 0
        {
            format!(
                ", disk cache {} hit / {} miss / {} written",
                self.solver.disk_cache_hits,
                self.solver.disk_cache_misses,
                self.solver.disk_cache_writes,
            )
        } else {
            String::new()
        };
        let mut out = format!(
            "== {} ({mode}) — {}/{} verified, wall {:.3}s, cpu {:.3}s, {} worker(s), {} max live branches, solver {} ({} queries, {} incremental hits, kernel {:.3}s{smt}{disk}) ==\n",
            self.session,
            self.verified_count(),
            self.cases.len(),
            self.wall_time.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.workers,
            self.stats.max_live_branches,
            self.backend,
            self.solver.queries(),
            self.solver.incremental_hits,
            self.solver.kernel_nanos as f64 / 1e9,
        );
        for d in &self.lints {
            out.push_str(&format!("  lint {d}\n"));
        }
        for c in &self.cases {
            out.push_str(&format!(
                "  {:<5} {:<20} verified={:<5} time={:.3}s",
                c.kind.label(),
                c.name(),
                c.verified(),
                c.report.elapsed.as_secs_f64(),
            ));
            if let Some(d) = c.diagnostic() {
                out.push_str(&format!(" {d}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the report as JSON (hand-rolled: the reproduction carries no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mode = match self.mode {
            SpecMode::TypeSafety => "type-safety",
            SpecMode::FunctionalCorrectness => "functional-correctness",
        };
        let mut out = String::from("{");
        out.push_str(&format!("\"session\":{},", json_str(&self.session)));
        out.push_str(&format!("\"mode\":\"{mode}\","));
        out.push_str(&format!("\"workers\":{},", self.workers));
        out.push_str(&format!("\"all_verified\":{},", self.all_verified()));
        out.push_str(&format!(
            "\"wall_seconds\":{:.6},",
            self.wall_time.as_secs_f64()
        ));
        out.push_str(&format!(
            "\"cpu_seconds\":{:.6},",
            self.cpu_time().as_secs_f64()
        ));
        out.push_str(&format!("\"backend\":\"{}\",", self.backend));
        out.push_str(&format!(
            "\"solver\":{{\"unsat_queries\":{},\"entailment_queries\":{},\"cases_explored\":{},\"incremental_hits\":{},\"kernel_nanos\":{},\"smt_queries\":{},\"smt_unsat\":{},\"smt_failures\":{},\"smt_reenabled\":{},\"disk_cache_hits\":{},\"disk_cache_misses\":{},\"disk_cache_writes\":{}}},",
            self.solver.unsat_queries,
            self.solver.entailment_queries,
            self.solver.cases_explored,
            self.solver.incremental_hits,
            self.solver.kernel_nanos,
            self.solver.smt_queries,
            self.solver.smt_unsat,
            self.solver.smt_failures,
            self.solver.smt_reenabled,
            self.solver.disk_cache_hits,
            self.solver.disk_cache_misses,
            self.solver.disk_cache_writes,
        ));
        out.push_str(&format!(
            "\"stats\":{{\"commands\":{},\"folds\":{},\"unfolds\":{},\"borrow_opens\":{},\"borrow_closes\":{},\"recoveries\":{},\"branches\":{},\"max_live_branches\":{}}},",
            self.stats.commands_executed,
            self.stats.folds,
            self.stats.unfolds,
            self.stats.borrow_opens,
            self.stats.borrow_closes,
            self.stats.recoveries,
            self.stats.branches,
            self.stats.max_live_branches,
        ));
        out.push_str("\"lints\":[");
        for (i, d) in self.lints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"span\":{},\"message\":{}}}",
                d.code,
                d.severity.label(),
                json_str(&d.span.to_string()),
                json_str(&d.message),
            ));
        }
        out.push_str("],");
        out.push_str("\"cases\":[");
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"name\":{},\"verified\":{},\"seconds\":{:.6}",
                c.kind.label(),
                json_str(c.name()),
                c.verified(),
                c.report.elapsed.as_secs_f64(),
            ));
            if let Some(d) = c.diagnostic() {
                out.push_str(&format!(
                    ",\"diagnostic\":{{\"category\":\"{}\",\"message\":{},\"fingerprint\":{}",
                    d.category(),
                    json_str(d.message()),
                    json_str(&d.fingerprint()),
                ));
                // Hint expressions (missing resources of a consume failure)
                // render through Display and routinely contain quotes and
                // backslashes — they go through the same escaper.
                if !d.hints().is_empty() {
                    out.push_str(",\"hints\":[");
                    for (j, h) in d.hints().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_str(&h.to_string()));
                    }
                    out.push(']');
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string into a JSON string literal (including the surrounding
/// quotes). The single escaper behind every hand-rolled JSON emitter of the
/// reproduction — the daemon protocol depends on it, so it lives in the
/// public API and is round-trip tested against the server's JSON parser.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str(s: &str) -> String {
    json_escape(s)
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

type SpecsFn = Box<dyn FnOnce(&Types, SpecMode) -> GilsoniteCtx>;
type ConfigureFn = Box<dyn FnOnce(&mut GilsoniteCtx)>;

/// Fluent builder for a [`HybridSession`].
pub struct SessionBuilder {
    name: String,
    program: Option<Program>,
    layout: LayoutOracle,
    mode: SpecMode,
    engine: Option<EngineOptions>,
    backend: Option<BackendKind>,
    baseline: bool,
    workers: Option<usize>,
    specs: Option<SpecsFn>,
    configures: Vec<ConfigureFn>,
    extern_specs: Vec<ExternSpecs>,
    targets: Vec<Target>,
    cache: Option<Arc<dyn CacheStore>>,
    lint: bool,
    lint_deny_warnings: bool,
    lint_allow: Vec<String>,
    target_timeout: Option<Duration>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            name: "session".to_owned(),
            program: None,
            layout: LayoutOracle::default(),
            mode: SpecMode::FunctionalCorrectness,
            engine: None,
            backend: None,
            baseline: false,
            workers: None,
            specs: None,
            configures: Vec::new(),
            extern_specs: Vec::new(),
            targets: Vec::new(),
            cache: None,
            lint: true,
            lint_deny_warnings: false,
            lint_allow: Vec::new(),
            target_timeout: None,
        }
    }
}

impl SessionBuilder {
    /// Names the session (used by report rendering).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Registers the mini-MIR program to verify.
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Selects the layout oracle (§3.1 layout independence).
    pub fn layout(mut self, layout: LayoutOracle) -> Self {
        self.layout = layout;
        self
    }

    /// Selects the verified property (TS or FC).
    pub fn mode(mut self, mode: SpecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the engine tuning (defaults are derived from the mode).
    pub fn engine_options(mut self, opts: EngineOptions) -> Self {
        self.engine = Some(opts);
        self
    }

    /// Selects the solver backend answering the session's pure queries
    /// (defaults to [`BackendKind::IncrementalState`]; `OneShot` is the
    /// differential reference, and `SmtLib` adds an external SMT-LIB2
    /// process).
    /// Overrides any [`EngineOptions::backend`] set through
    /// [`SessionBuilder::engine_options`].
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Disables the paper's automations: the RefinedRust-style comparison
    /// baseline of the evaluation.
    pub fn baseline(mut self) -> Self {
        self.baseline = true;
        self
    }

    /// Number of worker threads for [`HybridSession::verify_all`]. Defaults
    /// to the machine's available parallelism, capped by the target count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Installs the Gilsonite specification context: ownership predicates,
    /// specifications, lemmas. The closure receives the shared type registry
    /// and the selected mode — existing per-case-study `gilsonite` functions
    /// plug in directly (`.specs(linked_list::gilsonite)`).
    pub fn specs(mut self, f: impl FnOnce(&Types, SpecMode) -> GilsoniteCtx + 'static) -> Self {
        self.specs = Some(Box::new(f));
        self
    }

    /// Runs an extra configuration step on the Gilsonite context after
    /// [`SessionBuilder::specs`] (e.g. to override one specification in a
    /// failure-injection experiment).
    pub fn configure(mut self, f: impl FnOnce(&mut GilsoniteCtx) + 'static) -> Self {
        self.configures.push(Box::new(f));
        self
    }

    /// Registers a Pearlite extern-spec registry (§6): each entry is
    /// elaborated through `creusot_lite::elaborate` into a Gilsonite
    /// specification of the named program function — the hybrid bridge,
    /// closed inside the API.
    pub fn extern_specs(mut self, registry: ExternSpecs) -> Self {
        self.extern_specs.push(registry);
        self
    }

    /// Adds one function verification target.
    pub fn verify_fn(mut self, name: impl Into<String>) -> Self {
        self.targets.push(Target {
            kind: TargetKind::Function,
            name: name.into(),
        });
        self
    }

    /// Adds several function verification targets.
    pub fn verify_fns<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for n in names {
            self = self.verify_fn(n);
        }
        self
    }

    /// Adds one lemma verification target.
    pub fn verify_lemma(mut self, name: impl Into<String>) -> Self {
        self.targets.push(Target {
            kind: TargetKind::Lemma,
            name: name.into(),
        });
        self
    }

    /// Attaches a persistent proof-cache store: `verify_all` checks it
    /// before proving each target and writes verified outcomes back. A hit
    /// is honoured only after every recorded dependency fingerprint is
    /// re-checked against the current program, so soundness never rests on
    /// the cache. With a cache attached, cache *misses* are proved serially
    /// (the dependency-recording window is program-global); warm runs — the
    /// point of the cache — skip proving entirely.
    pub fn cache(mut self, store: Arc<dyn CacheStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Convenience for [`SessionBuilder::cache`] with an on-disk
    /// [`DirStore`] rooted at `dir`.
    pub fn cache_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.cache(Arc::new(DirStore::new(dir)))
    }

    /// Enables or disables the lint-before-verify pass (on by default). With
    /// linting on, [`HybridSession::verify_all`] refuses to start proof
    /// search when the compiled program has lint *errors*: every case fails
    /// fast with a lint diagnostic. Warnings are reported on the
    /// [`VerificationReport`] but do not block.
    pub fn lint(mut self, enabled: bool) -> Self {
        self.lint = enabled;
        self
    }

    /// Promotes lint warnings to batch-blocking findings (`-D warnings` for
    /// the static analyzer): with this set, any diagnostic — not just errors
    /// — makes [`HybridSession::verify_all`] fail fast.
    pub fn lint_deny(mut self) -> Self {
        self.lint_deny_warnings = true;
        self
    }

    /// Caps the wall-clock budget of each individual target. The engine
    /// checks the deadline cooperatively (once per symbolic step), so a
    /// runaway proof fails with a structured [`VerifyDiagnostic`] of
    /// category `timeout` instead of hanging the batch. A timed-out target
    /// is explicitly *incomplete* — reported unverified, never written to
    /// the proof cache — and the rest of the batch proceeds normally.
    /// Deliberately excluded from the cache namespace: only verified
    /// outcomes are cached, and the budget cannot change what "verified"
    /// means.
    pub fn target_timeout(mut self, budget: Duration) -> Self {
        self.target_timeout = Some(budget);
        self
    }

    /// Suppresses specific lint codes (e.g. `["GL012"]`).
    pub fn lint_allow<I, S>(mut self, codes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.lint_allow.extend(codes.into_iter().map(Into::into));
        self
    }

    /// Builds the session: interns the program, runs the spec closure and the
    /// extern-spec elaboration, compiles everything to GIL and resolves the
    /// target list. With no explicit targets, every specified (non-trusted)
    /// function with a body and every lemma with a proof script becomes a
    /// target.
    pub fn build(self) -> Result<HybridSession, SessionError> {
        let program = self.program.ok_or(SessionError::MissingProgram)?;
        let types = TypeRegistry::new(program, self.layout);
        let mode = self.mode;

        let mut gilsonite = match self.specs {
            Some(f) => f(&types, mode),
            None => GilsoniteCtx::new(types.clone(), mode),
        };
        for f in self.configures {
            f(&mut gilsonite);
        }
        // The hybrid bridge: elaborate each Pearlite extern spec into a
        // Gilsonite specification of the corresponding program function.
        for registry in &self.extern_specs {
            for (fn_name, hspec) in registry.iter() {
                let fn_def = types
                    .program
                    .function(fn_name)
                    .ok_or_else(|| SessionError::UnknownExternSpec {
                        name: fn_name.to_owned(),
                    })?
                    .clone();
                let requires: Vec<_> = hspec.requires.iter().map(elaborate).collect();
                let ensures: Vec<_> = hspec.ensures.iter().map(elaborate).collect();
                let spec = gilsonite.fn_spec(&fn_def, requires, ensures);
                gilsonite.add_spec(spec);
            }
        }

        let explicit_engine = self.engine.is_some();
        let mut engine_opts = match (self.engine, self.baseline) {
            // Explicit options win; `.baseline()` on top overrides only the
            // automation flags.
            (Some(mut opts), true) => {
                let b = EngineOptions::baseline();
                opts.auto_unfold_on_branch = b.auto_unfold_on_branch;
                opts.auto_recover = b.auto_recover;
                opts
            }
            (Some(opts), false) => opts,
            // No explicit options: the canonical baseline definition, so the
            // RefinedRust-comparison benches track `EngineOptions::baseline`.
            (None, true) => EngineOptions::baseline(),
            (None, false) => EngineOptions::default(),
        };
        if mode == SpecMode::TypeSafety && !explicit_engine {
            engine_opts.panics_are_safe = VerifierOptions::type_safety().engine.panics_are_safe;
        }
        if let Some(kind) = self.backend {
            engine_opts.backend = kind;
        }
        if let Some(budget) = self.target_timeout {
            engine_opts.target_timeout = Some(budget);
        }

        let verifier = Verifier::new(
            types,
            gilsonite,
            VerifierOptions {
                mode,
                engine: engine_opts,
            },
        )?;

        let mut targets = self.targets;
        if targets.is_empty() {
            targets = default_targets(&verifier);
            if targets.is_empty() {
                return Err(SessionError::NoTargets);
            }
        } else {
            for t in &targets {
                let known = match t.kind {
                    TargetKind::Function => {
                        let sym = Symbol::new(&t.name);
                        verifier.engine.prog.proc(sym).is_some()
                            || verifier.engine.prog.spec(sym).is_some()
                    }
                    TargetKind::Lemma => verifier.engine.prog.lemma(Symbol::new(&t.name)).is_some(),
                };
                if !known {
                    return Err(SessionError::UnknownTarget {
                        name: t.name.clone(),
                    });
                }
            }
        }

        let workers = self
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);

        // Lint-before-verify: the six static passes over the compiled GIL.
        // The report is computed once here and carried by the session; the
        // fail-fast decision happens in `verify_all`, so callers can still
        // inspect a linted session freely.
        let lint = if self.lint {
            let opts = LintOptions {
                known_tactics: verifier
                    .engine
                    .tactics
                    .keys()
                    .map(|s| s.as_str().to_string())
                    .collect(),
                allow: self.lint_allow.into_iter().collect(),
                ..LintOptions::default()
            };
            Some(gillian_lint::lint_prog(&verifier.engine.prog, &opts))
        } else {
            None
        };

        let namespace = session_namespace(&self.name, mode, &verifier.engine.opts);
        Ok(HybridSession {
            name: self.name,
            mode,
            workers,
            targets,
            verifier,
            cache: self.cache,
            namespace,
            lint,
            lint_deny_warnings: self.lint_deny_warnings,
            invariants: OnceLock::new(),
        })
    }
}

/// The driver-level [`ActionBounds`] hook: `load`/`load_move` actions carry
/// the loaded type as their second argument, and integer loads are bounded
/// by the machine-integer range of that type.
fn typed_load_bounds(types: Types) -> ActionBounds {
    Arc::new(move |name, args| {
        if !matches!(name.as_str(), "load" | "load_move") {
            return None;
        }
        match types.resolve_expr(args.get(1)?)? {
            Ty::Int(i) => Some((i.min(), i.max())),
            _ => None,
        }
    })
}

/// Fingerprint of the verification configuration a cached outcome is valid
/// for: session name, mode, and every verdict-affecting engine option.
/// Deliberately excludes the solver backend and the worker count — those
/// change *how fast* a verdict is reached, never the verdict itself
/// (asserted by the backend and worker-count differential tests) — so a
/// cache warmed under one configuration serves all of them.
fn session_namespace(name: &str, mode: SpecMode, opts: &EngineOptions) -> u64 {
    let mode = match mode {
        SpecMode::TypeSafety => "type-safety",
        SpecMode::FunctionalCorrectness => "functional-correctness",
    };
    namespace_fingerprint([
        ("session", name.to_string()),
        ("mode", mode.to_string()),
        (
            "auto_unfold_on_branch",
            opts.auto_unfold_on_branch.to_string(),
        ),
        ("auto_recover", opts.auto_recover.to_string()),
        ("max_recovery_steps", opts.max_recovery_steps.to_string()),
        ("max_inline_depth", opts.max_inline_depth.to_string()),
        ("max_steps", opts.max_steps.to_string()),
        ("max_branch_unfolds", opts.max_branch_unfolds.to_string()),
        ("panics_are_safe", opts.panics_are_safe.to_string()),
    ])
}

/// With no explicit targets: every function of the program that carries a
/// non-trusted specification and a body, plus every non-trusted lemma with a
/// proof script — in deterministic order (program order, then sorted lemmas).
fn default_targets(verifier: &Verifier) -> Vec<Target> {
    let prog = &verifier.engine.prog;
    let mut targets = Vec::new();
    for f in verifier.types.program.functions() {
        let sym = Symbol::new(&f.name);
        if let Some(spec) = prog.spec(sym) {
            if !spec.trusted && prog.proc(sym).is_some() {
                targets.push(Target {
                    kind: TargetKind::Function,
                    name: f.name.clone(),
                });
            }
        }
    }
    let mut lemma_names: Vec<String> = prog
        .lemmas
        .iter()
        .filter(|(_, l)| !l.trusted && l.proof.is_some())
        .map(|(n, _)| n.to_string())
        .collect();
    lemma_names.sort();
    for name in lemma_names {
        targets.push(Target {
            kind: TargetKind::Lemma,
            name,
        });
    }
    targets
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A fully-built verification session: one program, one specification
/// context, one engine configuration, many verification targets.
pub struct HybridSession {
    name: String,
    mode: SpecMode,
    workers: usize,
    targets: Vec<Target>,
    verifier: Verifier,
    cache: Option<Arc<dyn CacheStore>>,
    /// Cache namespace: fingerprint of the verdict-affecting configuration.
    namespace: u64,
    /// The lint-before-verify report (`None` when linting was disabled).
    lint: Option<LintReport>,
    /// Treat lint warnings as batch-blocking (`-D warnings`).
    lint_deny_warnings: bool,
    /// Abstract-interpretation invariants over the compiled GIL, built on
    /// the first [`HybridSession::invariants`] call.
    invariants: OnceLock<InvariantTable>,
}

impl HybridSession {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The verified property.
    pub fn mode(&self) -> SpecMode {
        self.mode
    }

    /// The registered verification targets, in execution order.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// The number of worker threads [`HybridSession::verify_all`] uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Changes the worker count of an already-built session (avoids
    /// recompiling the program just to re-run the batch at another width).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Ignored: every obligation is explored by one serial depth-first
    /// driver. Returns the session unchanged; kept only so that callers
    /// written against the removed branch-width knob still build.
    #[deprecated(note = "ignored: each obligation is explored serially")]
    pub fn with_branch_parallelism(self, _workers: usize) -> Self {
        self
    }

    /// The solver backend answering this session's pure queries.
    pub fn backend(&self) -> BackendKind {
        self.verifier.backend_kind()
    }

    /// Swaps the solver backend of an already-built session (fresh arena
    /// and statistics; the compiled program and specifications are
    /// reused). This is how the backend differential tests re-run the
    /// Table 1 suite under each backend.
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.verifier.set_backend(kind);
        self
    }

    /// Attaches (or replaces) the persistent proof-cache store of an
    /// already-built session. See [`SessionBuilder::cache`].
    pub fn with_cache(mut self, store: Arc<dyn CacheStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// The attached proof-cache store, if any.
    pub fn cache_store(&self) -> Option<&Arc<dyn CacheStore>> {
        self.cache.as_ref()
    }

    /// The cache namespace: a stable fingerprint of the session name, mode
    /// and verdict-affecting engine options. Records from other namespaces
    /// are invisible to this session.
    pub fn cache_namespace(&self) -> u64 {
        self.namespace
    }

    /// The lint-before-verify report, when linting was enabled at build time
    /// (the default). Recomputed only on [`HybridSession::relint`].
    pub fn lint_report(&self) -> Option<&LintReport> {
        self.lint.as_ref()
    }

    /// Re-runs the lint passes against the *current* compiled program. The
    /// daemon calls this after swapping a spec or function body in place, so
    /// the carried report never goes stale across edits.
    pub fn relint(&mut self) {
        if self.lint.is_none() {
            return;
        }
        let opts = self.lint_options();
        self.lint = Some(gillian_lint::lint_prog(&self.verifier.engine.prog, &opts));
    }

    /// The lint options this session lints with: tactic registry from the
    /// engine, defaults elsewhere (allow-lists are applied at build time and
    /// folded into the carried report, not re-derivable here).
    pub fn lint_options(&self) -> LintOptions {
        LintOptions {
            known_tactics: self
                .verifier
                .engine
                .tactics
                .keys()
                .map(|s| s.as_str().to_string())
                .collect(),
            ..LintOptions::default()
        }
    }

    /// The lint diagnostics attached to every report from this session.
    fn lint_diagnostics(&self) -> Vec<LintDiagnostic> {
        self.lint
            .as_ref()
            .map(|r| r.diagnostics.clone())
            .unwrap_or_default()
    }

    /// The diagnostics that block verification: errors always, warnings too
    /// under [`SessionBuilder::lint_deny`].
    fn lint_blockers(&self) -> Vec<&LintDiagnostic> {
        match &self.lint {
            None => Vec::new(),
            Some(r) if self.lint_deny_warnings => r.diagnostics.iter().collect(),
            Some(r) => r.errors().collect(),
        }
    }

    /// The abstract-interpretation invariants of the compiled procedures,
    /// built on the first call and kept for the session's lifetime. The
    /// type registry supplies machine-integer bounds for typed loads (the
    /// memory model enforces exactly these ranges); everything else stays
    /// Top.
    ///
    /// The table describes the procedures as compiled at build time. No
    /// session API changes a procedure body after the build: the daemon's
    /// edits swap only specifications and predicates, which the analysis
    /// does not read. A body swapped by hand through
    /// [`HybridSession::verifier_mut`] is not reflected; build a new session.
    pub fn invariants(&self) -> &InvariantTable {
        self.invariants.get_or_init(|| {
            let opts = AnalysisOptions {
                action_bounds: Some(typed_load_bounds(self.verifier.types.clone())),
            };
            analyze_prog(&self.verifier.engine.prog, &opts)
        })
    }

    /// Access to the underlying verifier (escape hatch for existing code).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Mutable access to the underlying verifier. The daemon uses this to
    /// swap an updated specification into the compiled program while keeping
    /// the session — arena, caches, SMT processes — warm.
    pub fn verifier_mut(&mut self) -> &mut Verifier {
        &mut self.verifier
    }

    /// Consumes the session, returning the underlying verifier (for callers
    /// that drive obligations one by one).
    pub fn into_verifier(self) -> Verifier {
        self.verifier
    }

    /// Verifies a single function now, regardless of the target list.
    pub fn verify_fn(&self, name: &str) -> CaseReport {
        self.verifier.verify_fn(name)
    }

    /// Verifies a single lemma now, regardless of the target list.
    pub fn verify_lemma(&self, name: &str) -> CaseReport {
        self.verifier.verify_lemma(name)
    }

    /// Per-target wall-clock budget, when one was configured at build time.
    pub fn target_timeout(&self) -> Option<Duration> {
        self.verifier.engine.opts.target_timeout
    }

    /// Changes the per-target budget of an already-built session (see
    /// [`SessionBuilder::target_timeout`]; the compiled program and caches
    /// are reused).
    pub fn with_target_timeout(mut self, budget: Option<Duration>) -> Self {
        self.verifier.engine.opts.target_timeout = budget;
        self
    }

    /// Runs one target with panic isolation: a panic inside proof search
    /// (an engine bug, or an injected fault in the chaos tests) is caught
    /// here and folded into a structured unverified [`CaseReport`] of
    /// category `panic`, so one poisoned proof never aborts the batch or
    /// the daemon.
    fn run_target(&self, t: &Target) -> CaseOutcome {
        let start = Instant::now();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match t.kind {
            TargetKind::Function => self.verifier.verify_fn(&t.name),
            TargetKind::Lemma => self.verifier.verify_lemma(&t.name),
        }));
        let report = match attempt {
            Ok(report) => report,
            Err(payload) => CaseReport {
                name: t.name.clone(),
                verified: false,
                elapsed: start.elapsed(),
                diagnostic: Some(VerifyDiagnostic::from_panic(payload.as_ref())),
            },
        };
        CaseOutcome {
            kind: t.kind,
            report,
        }
    }

    /// Runs one target, panic-isolated like every batch target, under the
    /// program's dependency-recording window, which is closed again even
    /// when the proof panics. Returns the outcome and the stable
    /// fingerprint of every item the proof read (misses included) — what
    /// the daemon's dependency tracker keeps and a proof-cache record
    /// persists. The window is global to the program, so recorded runs must
    /// not overlap.
    pub fn run_recorded(&self, t: &Target) -> (CaseOutcome, Vec<(DepKey, u64)>) {
        let prog = &self.verifier.engine.prog;
        prog.begin_dep_recording();
        let outcome = self.run_target(t);
        (outcome, fingerprint_reads(prog, prog.end_dep_recording()))
    }

    /// Verifies every registered target and aggregates the outcomes.
    ///
    /// With more than one worker the targets are distributed over a pool of
    /// scoped threads sharing the verifier (`Verifier` is `Sync`; every
    /// obligation builds its own initial state). Outcomes are reported in
    /// registration order whatever the worker count, so batch results are
    /// deterministic modulo timing. The report's statistics cover this batch
    /// only (the engine's cumulative counters are snapshotted around it).
    pub fn verify_all(&self) -> VerificationReport {
        // Lint gate: errors (and warnings under `lint_deny`) mean the program
        // is malformed or the specs are meaningless — starting proof search
        // would waste time or, worse, verify vacuously. Fail every case fast.
        let blockers = self.lint_blockers();
        if !blockers.is_empty() {
            return self.lint_failfast_report(&blockers);
        }
        match &self.cache {
            None => self.verify_all_uncached(),
            Some(store) => self.verify_all_cached(store.as_ref()),
        }
    }

    /// The report `verify_all` returns when the lint gate blocks the batch:
    /// every target unverified, zero proof-search time, each case carrying a
    /// lint diagnostic summarising the blocking findings.
    fn lint_failfast_report(&self, blockers: &[&LintDiagnostic]) -> VerificationReport {
        let summary = format!(
            "lint gate: {} blocking finding(s), first: {}",
            blockers.len(),
            blockers[0]
        );
        let cases = self
            .targets
            .iter()
            .map(|t| CaseOutcome {
                kind: t.kind,
                report: CaseReport {
                    name: t.name.clone(),
                    verified: false,
                    elapsed: Duration::ZERO,
                    diagnostic: Some(VerifyDiagnostic::Lint {
                        message: summary.clone(),
                    }),
                },
            })
            .collect();
        VerificationReport {
            session: self.name.clone(),
            mode: self.mode,
            workers: self.workers,
            cases,
            wall_time: Duration::ZERO,
            stats: EngineStats::default(),
            backend: self.verifier.backend_kind(),
            solver: SolverStats::default(),
            lints: self.lint_diagnostics(),
        }
    }

    fn verify_all_uncached(&self) -> VerificationReport {
        let start = Instant::now();
        let stats_before = self.verifier.stats();
        let solver_before = self.verifier.solver_stats();
        let workers = self.workers.min(self.targets.len()).max(1);
        let cases = parallel_map(self.targets.iter().collect(), workers, |t| {
            self.run_target(t)
        });
        VerificationReport {
            session: self.name.clone(),
            mode: self.mode,
            workers,
            cases,
            wall_time: start.elapsed(),
            stats: self.verifier.stats().since(stats_before),
            backend: self.verifier.backend_kind(),
            solver: self.verifier.solver_stats().since(solver_before),
            lints: self.lint_diagnostics(),
        }
    }

    /// The cache-aware batch: each target is answered from the store when a
    /// record's target *and* dependency fingerprints all match the current
    /// program, and re-proved otherwise. Verified re-proofs are written
    /// back. Misses run serially — the dependency-recording window is
    /// global to the program, so concurrent targets would bleed reads into
    /// each other's records; warm runs (the point of the cache) skip
    /// proving entirely.
    fn verify_all_cached(&self, store: &dyn CacheStore) -> VerificationReport {
        let start = Instant::now();
        let stats_before = self.verifier.stats();
        let solver_before = self.verifier.solver_stats();
        let prog = &self.verifier.engine.prog;
        let mut counters = RunCounters::default();
        let mut cases = Vec::with_capacity(self.targets.len());
        for t in &self.targets {
            if let Some(rec) = find_record(store, prog, self.namespace, t.kind.label(), &t.name) {
                counters.hits += 1;
                cases.push(CaseOutcome::from_record(t, &rec));
                continue;
            }
            counters.misses += 1;
            let (outcome, reads) = self.run_recorded(t);
            if outcome.verified() {
                store.insert(&verified_record(
                    prog,
                    self.namespace,
                    t.kind.label(),
                    &t.name,
                    &reads,
                    outcome.report.elapsed,
                ));
                counters.writes += 1;
            }
            cases.push(outcome);
        }
        store.note_run(counters);
        let mut solver = self.verifier.solver_stats().since(solver_before);
        solver.disk_cache_hits = counters.hits;
        solver.disk_cache_misses = counters.misses;
        solver.disk_cache_writes = counters.writes;
        VerificationReport {
            session: self.name.clone(),
            mode: self.mode,
            // Misses run serially under the recording window.
            workers: 1,
            cases,
            wall_time: start.elapsed(),
            stats: self.verifier.stats().since(stats_before),
            backend: self.verifier.backend_kind(),
            solver,
            lints: self.lint_diagnostics(),
        }
    }
}

/// Runs `f` over `items` on up to `workers` scoped threads, preserving item
/// order in the results. The single shared primitive behind every batch in
/// the driver and the Table 1 regeneration: an atomic index hands each item
/// to exactly one worker, and per-slot cells collect the results.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let todo: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let done: Vec<Mutex<Option<R>>> = todo.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= todo.len() {
                    break;
                }
                let item = todo[idx]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each item runs once");
                *done[idx].lock().unwrap() = Some(f(item));
            });
        }
    });
    done.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every slot is filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_rust::compile::GHOST_MUTREF_AUTO_RESOLVE;
    use gillian_rust::gilsonite::lv;
    use gillian_solver::Expr;
    use rust_ir::{BinOp, BodyBuilder, Operand, Place, Ty};

    /// A two-function program: `inc` adds 1 through a `&mut usize`, `double`
    /// doubles an owned usize.
    fn demo_program() -> Program {
        let mut program = Program::new("demo");
        let mut b = BodyBuilder::new("inc", vec![("x", Ty::mut_ref("'a", Ty::usize()))], Ty::Unit);
        let tmp = b.local("tmp", Ty::usize());
        b.assign_use(tmp.clone(), Operand::copy(Place::local("x").deref()));
        let tmp2 = b.local("tmp2", Ty::usize());
        b.assign_binop(
            tmp2.clone(),
            BinOp::Add,
            Operand::copy(tmp),
            Operand::usize(1),
        );
        b.assign_use(Place::local("x").deref(), Operand::copy(tmp2));
        let cont = b.new_block();
        b.call(
            GHOST_MUTREF_AUTO_RESOLVE,
            vec![],
            vec![Operand::local("x")],
            Place::local("_ret"),
            cont,
        );
        b.switch_to(cont);
        b.ret_val(Operand::unit());
        program.add_fn(b.finish());

        let mut d = BodyBuilder::new("double", vec![("x", Ty::usize())], Ty::usize());
        let out = d.local("out", Ty::usize());
        d.assign_binop(
            out.clone(),
            BinOp::Add,
            Operand::copy(Place::local("x")),
            Operand::copy(Place::local("x")),
        );
        d.ret_val(Operand::copy(out));
        program.add_fn(d.finish());
        program
    }

    fn demo_builder(ok_post: bool) -> SessionBuilder {
        HybridSession::builder()
            .name("demo")
            .program(demo_program())
            .mode(SpecMode::FunctionalCorrectness)
            .configure(move |g| {
                let inc = g.types.program.function("inc").unwrap().clone();
                let delta = if ok_post { 1 } else { 2 };
                let spec = g.fn_spec(
                    &inc,
                    vec![Expr::lt(lv("x_cur"), Expr::Int(1000))],
                    vec![Expr::eq(
                        lv("x_fin"),
                        Expr::add(lv("x_cur"), Expr::Int(delta)),
                    )],
                );
                g.add_spec(spec);
                let double = g.types.program.function("double").unwrap().clone();
                let spec = g.fn_spec(
                    &double,
                    vec![Expr::lt(lv("x_repr"), Expr::Int(1000))],
                    vec![Expr::eq(
                        lv("ret_repr"),
                        Expr::add(lv("x_repr"), lv("x_repr")),
                    )],
                );
                g.add_spec(spec);
            })
    }

    #[test]
    fn default_targets_are_discovered_and_verify() {
        let session = demo_builder(true).workers(1).build().unwrap();
        assert_eq!(session.targets().len(), 2);
        let report = session.verify_all();
        assert!(report.all_verified(), "{}", report.render_text());
        assert_eq!(report.verified_count(), 2);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = demo_builder(true).workers(1).build().unwrap().verify_all();
        let parallel = demo_builder(true).workers(4).build().unwrap().verify_all();
        assert_eq!(serial.cases.len(), parallel.cases.len());
        for (a, b) in serial.cases.iter().zip(parallel.cases.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.verified(), b.verified());
        }
    }

    #[test]
    fn wrong_postcondition_yields_spec_mismatch_diagnostic() {
        let session = demo_builder(false).workers(2).build().unwrap();
        let report = session.verify_all();
        assert!(!report.all_verified());
        let inc = report.case("inc").unwrap();
        let diag = inc.diagnostic().expect("failing case carries a diagnostic");
        assert!(
            matches!(diag, VerifyDiagnostic::SpecMismatch { .. }),
            "expected a spec-mismatch diagnostic, got {diag:?}"
        );
    }

    #[test]
    fn unknown_target_is_rejected_at_build_time() {
        let err = demo_builder(true)
            .verify_fn("nonexistent")
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::UnknownTarget { .. }));
    }

    #[test]
    fn session_with_no_possible_targets_is_rejected() {
        // No specs and no explicit targets: verify_all() would vacuously
        // report success over zero cases, so build() refuses.
        let err = HybridSession::builder()
            .program(demo_program())
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, SessionError::NoTargets));
    }

    #[test]
    fn missing_program_is_rejected() {
        let err = HybridSession::builder().build().err().unwrap();
        assert!(matches!(err, SessionError::MissingProgram));
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = demo_builder(true).workers(2).build().unwrap().verify_all();
        let text = report.render_text();
        assert!(text.contains("demo"));
        assert!(text.contains("inc"));
        let json = report.to_json();
        assert!(json.contains("\"session\":\"demo\""));
        assert!(json.contains("\"all_verified\":true"));
    }

    #[test]
    fn cached_batch_hits_on_second_run_and_renders_counters() {
        let store: Arc<dyn CacheStore> = Arc::new(MemStore::new());
        let cold = demo_builder(true)
            .cache(Arc::clone(&store))
            .build()
            .unwrap()
            .verify_all();
        assert!(cold.all_verified());
        assert_eq!(cold.solver.disk_cache_hits, 0);
        assert_eq!(cold.solver.disk_cache_misses, 2);
        assert_eq!(cold.solver.disk_cache_writes, 2);
        // A *fresh* session over the same program answers entirely from the
        // store: no proving, only fingerprint checks.
        let warm = demo_builder(true)
            .cache(Arc::clone(&store))
            .build()
            .unwrap()
            .verify_all();
        assert!(warm.all_verified());
        assert_eq!(warm.solver.disk_cache_hits, 2);
        assert_eq!(warm.solver.disk_cache_misses, 0);
        assert_eq!(warm.solver.queries(), 0, "a warm run runs no solver");
        let text = warm.render_text();
        assert!(
            text.contains("disk cache 2 hit / 0 miss / 0 written"),
            "{text}"
        );
        assert!(warm.to_json().contains("\"disk_cache_hits\":2"));
    }

    #[test]
    fn cached_batch_invalidates_on_spec_change() {
        let store: Arc<dyn CacheStore> = Arc::new(MemStore::new());
        let cold = demo_builder(true)
            .cache(Arc::clone(&store))
            .build()
            .unwrap()
            .verify_all();
        assert!(cold.all_verified());
        // Same session name, different spec content (delta=2 fails `inc`):
        // the changed spec must miss, and the unchanged `double` still hits.
        let edited = demo_builder(false)
            .cache(Arc::clone(&store))
            .build()
            .unwrap()
            .verify_all();
        assert_eq!(edited.solver.disk_cache_hits, 1);
        assert_eq!(edited.solver.disk_cache_misses, 1);
        assert!(!edited.all_verified());
        // Failures are never written back.
        assert_eq!(edited.solver.disk_cache_writes, 0);
        let inc = edited.case("inc").unwrap();
        assert!(
            inc.diagnostic().is_some(),
            "re-proved failure keeps its diagnostic"
        );
    }

    #[test]
    fn cache_namespace_excludes_speed_knobs_but_not_mode() {
        let a = demo_builder(true).build().unwrap();
        let b = demo_builder(true).workers(8).build().unwrap();
        let c = demo_builder(true)
            .backend(BackendKind::OneShot)
            .build()
            .unwrap();
        assert_eq!(a.cache_namespace(), b.cache_namespace());
        assert_eq!(a.cache_namespace(), c.cache_namespace());
        let ts = demo_builder(true)
            .mode(SpecMode::TypeSafety)
            .build()
            .unwrap();
        assert_ne!(a.cache_namespace(), ts.cache_namespace());
        let baseline = demo_builder(true).baseline().build().unwrap();
        assert_ne!(a.cache_namespace(), baseline.cache_namespace());
    }
}
