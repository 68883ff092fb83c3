//! `gillian serve` — the request loop of the verification daemon.
//!
//! A [`ServerCore`] holds one loaded workload: the immutable program side
//! (interned terms, elaborated specifications, layouts) lives inside the
//! retained [`HybridSession`](driver::HybridSession) and is shared by every
//! request, while each request only allocates its own response. Verification
//! runs record, per target, exactly which specs/procs/preds/lemmas the proof
//! read (through the engine's `Prog` lookups) together with the stable
//! fingerprints of those items — the values the proof cache persists, so a
//! read-set moves between the tracker and the disk store unchanged;
//! `update_spec`/`update_fn` then dirty only the reverse-dependency cone of
//! the edited item, and `verify` answers every clean target from the
//! retained outcome cache.

use crate::db::{mode_label, parse_mode, workload, ProgramDb};
use crate::depgraph::{DepKey, DepTracker};
use crate::json::Value;
use crate::protocol::{parse_request, Request};
use creusot_lite::{elaborate, parse_term};
use driver::{CaseOutcome, SolverStats, Target};
use gillian_engine::gil::DepKind;
use gillian_lint::{LintDiagnostic, Severity};
use gillian_rust::verifier::VerifyDiagnostic;
use gillian_solver::Symbol;
use proof_cache::{
    find_record, record_reads, stable_fingerprint_key, stable_pred, stable_spec, verified_record,
    CacheStore, DirStore, RunCounters,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A failed request: the error message, plus the lint findings behind it
/// when the failure came from the static-analysis gate (an edit rejected by
/// `update_spec`/`update_fn`). Plain `String` errors convert losslessly, so
/// every pre-existing `?` site keeps working.
#[derive(Debug)]
pub struct DispatchError {
    pub message: String,
    pub lints: Vec<LintDiagnostic>,
}

impl From<String> for DispatchError {
    fn from(message: String) -> Self {
        DispatchError {
            message,
            lints: Vec::new(),
        }
    }
}

/// One loaded workload plus its dependency tracker and the disk-cache
/// counters accumulated over its lifetime (hits at hydration, misses and
/// writes at verification).
struct Loaded {
    db: ProgramDb,
    tracker: DepTracker,
    disk: RunCounters,
}

/// The daemon state shared across requests.
///
/// Workloads stay resident after a `load`: re-loading a `workload`/`mode`
/// pair that is already in memory switches back to the warm session — its
/// dependency tracker and outcome cache intact — instead of rebuilding, so a
/// client can cycle through several workloads and return to any of them
/// without losing incremental state.
pub struct ServerCore {
    sessions: BTreeMap<String, Loaded>,
    current: Option<String>,
    requests_served: u64,
    started: Instant,
    shutting_down: bool,
    /// Persistent proof-cache store, if the daemon was started with one
    /// (`--cache-dir` or `GILLIAN_CACHE_DIR`). Hydrates dependency trackers
    /// on `load`, absorbs verified proofs after each `verify`, and is
    /// flushed once more on `shutdown` — so a restarted daemon re-proves
    /// nothing that did not change.
    store: Option<Arc<dyn CacheStore>>,
}

impl Default for ServerCore {
    fn default() -> Self {
        ServerCore::new()
    }
}

impl ServerCore {
    pub fn new() -> ServerCore {
        ServerCore {
            sessions: BTreeMap::new(),
            current: None,
            requests_served: 0,
            started: Instant::now(),
            shutting_down: false,
            store: None,
        }
    }

    /// A core backed by a persistent proof-cache store.
    pub fn with_store(store: Arc<dyn CacheStore>) -> ServerCore {
        let mut core = ServerCore::new();
        core.store = Some(store);
        core
    }

    /// A core backed by an on-disk store rooted at `dir`.
    pub fn with_cache_dir(dir: impl Into<std::path::PathBuf>) -> ServerCore {
        ServerCore::with_store(Arc::new(DirStore::new(dir)))
    }

    /// Whether a `shutdown` request has been served.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Handles one request line and returns one response line.
    ///
    /// Request handling is panic-isolated: a panic anywhere inside dispatch
    /// (an engine bug, or an injected `daemon.request` fault in the chaos
    /// tests) is caught here and answered as a structured `ok:false` error
    /// on the request's own id — the daemon and its warm sessions survive.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.requests_served += 1;
        let envelope = parse_request(line);
        let result = match envelope.request {
            Err(e) => Err(DispatchError::from(e)),
            Ok(req) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if gillian_faults::hit("daemon.request").is_some() {
                        Err(DispatchError::from(
                            "injected fault: request handler failed".to_string(),
                        ))
                    } else {
                        self.dispatch(req)
                    }
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        let diag = VerifyDiagnostic::from_panic(payload.as_ref());
                        Err(DispatchError::from(format!(
                            "request handler panicked (daemon still serving): {}",
                            diag.message()
                        )))
                    }
                }
            }
        };
        let mut fields: Vec<(String, Value)> = Vec::new();
        match envelope.id {
            Some(id) => fields.push(("id".to_string(), Value::Int(id))),
            None => fields.push(("id".to_string(), Value::Null)),
        }
        match result {
            Ok(body) => {
                fields.push(("ok".to_string(), Value::Bool(true)));
                fields.extend(body);
            }
            Err(e) => {
                fields.push(("ok".to_string(), Value::Bool(false)));
                fields.push(("error".to_string(), Value::Str(e.message)));
                if !e.lints.is_empty() {
                    fields.push(("lints".to_string(), lint_array(&e.lints)));
                }
            }
        }
        Value::Object(fields).to_string()
    }

    fn dispatch(&mut self, req: Request) -> Result<Vec<(String, Value)>, DispatchError> {
        match req {
            Request::Load {
                workload,
                mode,
                workers,
                branch_parallelism,
            } => self.do_load(&workload, mode.as_deref(), workers, branch_parallelism),
            Request::Verify {
                targets,
                force,
                timeout_ms,
            } => self.do_verify(targets, force, timeout_ms),
            Request::UpdateSpec {
                func,
                requires,
                ensures,
            } => self.do_update_spec(&func, &requires, &ensures),
            Request::UpdateFn { func } => self.do_update_fn(&func),
            Request::Lint => self.do_lint(),
            Request::Stats => Ok(self.do_stats()),
            Request::Shutdown => {
                self.flush_all();
                self.shutting_down = true;
                Ok(vec![("bye".to_string(), Value::Bool(true))])
            }
        }
    }

    fn loaded(&mut self) -> Result<&mut Loaded, String> {
        let key = self
            .current
            .as_ref()
            .ok_or_else(|| "no workload loaded (send a `load` request first)".to_string())?;
        Ok(self
            .sessions
            .get_mut(key)
            .expect("current always names a resident session"))
    }

    fn do_load(
        &mut self,
        name: &str,
        mode: Option<&str>,
        workers: Option<usize>,
        branch_parallelism: Option<usize>,
    ) -> Result<Vec<(String, Value)>, DispatchError> {
        let mode = match mode {
            None => None,
            Some(s) => Some(
                parse_mode(s)
                    .ok_or_else(|| format!("unknown mode `{s}` (use \"ts\" or \"fc\")"))?,
            ),
        };
        let w = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let mode = mode.unwrap_or(w.default_mode);
        let key = format!("{}:{}", w.name, mode_label(mode));

        // Re-loading a resident pair switches back to the warm session; the
        // workers/branch_parallelism of the original load stay in effect.
        let reused = self.sessions.contains_key(&key);
        let mut hydrated: Vec<String> = Vec::new();
        if !reused {
            let db = ProgramDb::load(name, Some(mode), workers, branch_parallelism)?;
            let mut tracker = DepTracker::new(db.session.targets().iter().map(|t| t.name.clone()));
            let mut disk = RunCounters::default();
            if let Some(store) = &self.store {
                hydrated = hydrate(store.as_ref(), &db, &mut tracker);
                disk.hits = hydrated.len() as u64;
            }
            self.sessions
                .insert(key.clone(), Loaded { db, tracker, disk });
        }
        self.current = Some(key.clone());

        let loaded = &self.sessions[&key];
        let targets: Vec<Value> = loaded
            .db
            .session
            .targets()
            .iter()
            .map(|t| Value::Str(t.name.clone()))
            .collect();
        Ok(vec![
            (
                "workload".to_string(),
                Value::Str(loaded.db.workload.name.to_string()),
            ),
            (
                "mode".to_string(),
                Value::Str(mode_label(loaded.db.mode).to_string()),
            ),
            ("reused".to_string(), Value::Bool(reused)),
            ("targets".to_string(), Value::Array(targets)),
            (
                "backend".to_string(),
                Value::Str(loaded.db.session.backend().to_string()),
            ),
            (
                "smt_available".to_string(),
                Value::Bool(loaded.db.session.verifier().engine.solver.smt_available()),
            ),
            ("hydrated".to_string(), string_array(&hydrated)),
            // Invariants are computed by the session builder; surface the
            // table fingerprint so clients can detect analysis drift.
            (
                "invariants_fingerprint".to_string(),
                Value::Str(format!(
                    "{:016x}",
                    loaded.db.session.invariants().fingerprint
                )),
            ),
            // Automatic linting on load: the findings of the build-time
            // analysis ride along (shipped workloads are clean, so this is
            // `[]` unless someone adds a defective workload).
            (
                "lints".to_string(),
                lint_array(
                    loaded
                        .db
                        .session
                        .lint_report()
                        .map(|r| r.diagnostics.as_slice())
                        .unwrap_or(&[]),
                ),
            ),
        ])
    }

    fn do_verify(
        &mut self,
        targets: Option<Vec<String>>,
        force: bool,
        timeout_ms: Option<u64>,
    ) -> Result<Vec<(String, Value)>, DispatchError> {
        let store = self.store.clone();
        let loaded = self.loaded()?;
        let all: Vec<Target> = loaded.db.session.targets().to_vec();
        let selected: Vec<Target> = match targets {
            None => all.clone(),
            Some(names) => {
                let mut out = Vec::with_capacity(names.len());
                for n in &names {
                    let t = all
                        .iter()
                        .find(|t| t.name == *n)
                        .cloned()
                        .ok_or_else(|| format!("unknown target `{n}`"))?;
                    out.push(t);
                }
                out
            }
        };

        // Per-request deadline: applied for this run only and restored
        // afterwards, so one client's budget never leaks into the session
        // configuration the next request sees.
        let saved_timeout = loaded.db.session.verifier().engine.opts.target_timeout;
        if let Some(ms) = timeout_ms {
            loaded.db.session.verifier_mut().engine.opts.target_timeout =
                Some(Duration::from_millis(ms));
        }

        let before = loaded.db.session.verifier().solver_stats();
        let disk_before = loaded.disk;
        let wall = Instant::now();
        let mut reverified: Vec<String> = Vec::new();
        let mut cached: Vec<String> = Vec::new();
        let mut cases: Vec<(CaseOutcome, bool)> = Vec::new();

        for t in &selected {
            if force || loaded.tracker.is_dirty(&t.name) {
                let outcome = run_target(&loaded.db, &mut loaded.tracker, t);
                if let Some(store) = &store {
                    loaded.disk.misses += 1;
                    // A verified outcome is never transient, so the tracker
                    // now holds it.
                    if outcome.verified() {
                        write_back(store.as_ref(), loaded, t);
                        loaded.disk.writes += 1;
                    }
                }
                reverified.push(t.name.clone());
                cases.push((outcome, false));
            } else {
                let outcome = loaded
                    .tracker
                    .cached(&t.name)
                    .expect("clean target has a cached outcome")
                    .clone();
                cached.push(t.name.clone());
                cases.push((outcome, true));
            }
        }

        if timeout_ms.is_some() {
            loaded.db.session.verifier_mut().engine.opts.target_timeout = saved_timeout;
        }

        let wall_seconds = wall.elapsed().as_secs_f64();
        let mut delta = loaded.db.session.verifier().solver_stats().since(before);
        delta.disk_cache_hits = loaded.disk.hits - disk_before.hits;
        delta.disk_cache_misses = loaded.disk.misses - disk_before.misses;
        delta.disk_cache_writes = loaded.disk.writes - disk_before.writes;
        if let Some(store) = &store {
            store.note_run(loaded.disk);
        }
        let all_verified = cases.iter().all(|(o, _)| o.verified());
        let case_values: Vec<Value> = cases
            .iter()
            .map(|(o, was_cached)| case_value(o, *was_cached))
            .collect();

        Ok(vec![
            ("all_verified".to_string(), Value::Bool(all_verified)),
            ("cases".to_string(), Value::Array(case_values)),
            ("reverified".to_string(), string_array(&reverified)),
            ("cached".to_string(), string_array(&cached)),
            ("wall_seconds".to_string(), Value::Float(wall_seconds)),
            ("solver_delta".to_string(), stats_value(delta)),
            (
                "backend".to_string(),
                Value::Str(loaded.db.session.backend().to_string()),
            ),
        ])
    }

    fn do_update_spec(
        &mut self,
        func: &str,
        requires: &[String],
        ensures: &[String],
    ) -> Result<Vec<(String, Value)>, DispatchError> {
        let loaded = self.loaded()?;

        let parse_clauses = |clauses: &[String], what: &str| {
            clauses
                .iter()
                .map(|src| {
                    parse_term(src)
                        .map(|t| elaborate(&t))
                        .map_err(|e| format!("{what} `{src}`: {} at byte {}", e.message, e.offset))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let req_exprs = parse_clauses(requires, "requires")?;
        let ens_exprs = parse_clauses(ensures, "ensures")?;

        let fndef = loaded
            .db
            .session
            .verifier()
            .types
            .program
            .function(func)
            .cloned()
            .ok_or_else(|| format!("unknown function `{func}`"))?;

        // Re-elaborate against the retained side context: own-predicates are
        // created on demand there, so they may need syncing into the engine.
        let spec = loaded.db.side_ctx.fn_spec(&fndef, req_exprs, ens_exprs);

        // Lint the candidate spec on a scratch copy of the engine program
        // *before* any retained state changes: a rejected edit must leave
        // the warm session — engine program, spec tables, dependency cone —
        // exactly as it was. Lint errors (unknown predicate, unsatisfiable
        // precondition, …) reject the edit with the findings on the wire;
        // warnings ride along on the success response.
        let lint_findings = {
            let mut candidate = loaded.db.session.verifier().engine.prog.clone();
            for (name, pred) in &loaded.db.side_ctx.prog.preds {
                if !candidate.preds.contains_key(name) {
                    candidate.add_pred(pred.clone());
                }
            }
            candidate.add_spec(spec.clone());
            gillian_lint::lint_spec(&candidate, func, &loaded.db.session.lint_options())
        };
        if lint_findings.iter().any(|d| d.severity == Severity::Error) {
            let first = lint_findings
                .iter()
                .find(|d| d.severity == Severity::Error)
                .expect("an error exists");
            return Err(DispatchError {
                message: format!("update_spec rejected by lint: {first}"),
                lints: lint_findings,
            });
        }

        loaded.db.side_ctx.add_spec(spec.clone());

        let mut dirtied: BTreeSet<String> = BTreeSet::new();
        let mut changed = false;

        let pred_names: Vec<Symbol> = loaded.db.side_ctx.prog.preds.keys().copied().collect();
        for name in pred_names {
            let new_fp = stable_pred(&loaded.db.side_ctx.prog.preds[&name]);
            let old_fp = stable_fingerprint_key(
                &loaded.db.session.verifier().engine.prog,
                DepKind::Pred,
                name,
            );
            if old_fp != new_fp {
                let pred = loaded.db.side_ctx.prog.preds[&name].clone();
                loaded.db.session.verifier_mut().engine.prog.add_pred(pred);
                changed = true;
                dirtied.extend(
                    loaded
                        .tracker
                        .dirty_key(&(DepKind::Pred, name.to_string()), new_fp),
                );
            }
        }

        let new_fp = stable_spec(&spec);
        let old_fp = stable_fingerprint_key(
            &loaded.db.session.verifier().engine.prog,
            DepKind::Spec,
            Symbol::new(func),
        );
        if old_fp != new_fp {
            loaded.db.session.verifier_mut().engine.prog.add_spec(spec);
            changed = true;
            dirtied.extend(
                loaded
                    .tracker
                    .dirty_key(&(DepKind::Spec, func.to_string()), new_fp),
            );
        }

        if changed {
            // Keep the session's carried lint report in sync with the
            // mutated program, so `lint` requests and future reports never
            // describe a stale spec table.
            loaded.db.session.relint();
        }

        let dirtied: Vec<String> = dirtied.into_iter().collect();
        Ok(vec![
            ("fn".to_string(), Value::Str(func.to_string())),
            ("changed".to_string(), Value::Bool(changed)),
            ("dirtied".to_string(), string_array(&dirtied)),
            ("lints".to_string(), lint_array(&lint_findings)),
        ])
    }

    fn do_update_fn(&mut self, func: &str) -> Result<Vec<(String, Value)>, DispatchError> {
        let loaded = self.loaded()?;
        let sym = Symbol::new(func);
        if !loaded
            .db
            .session
            .verifier()
            .engine
            .prog
            .procs
            .contains_key(&sym)
        {
            return Err(format!("unknown function `{func}`").into());
        }
        // Automatic linting on the touched procedure: errors reject the
        // invalidation (a malformed body can only waste re-proof work),
        // warnings are attached to the response.
        let lint_findings = gillian_lint::lint_proc(
            &loaded.db.session.verifier().engine.prog,
            func,
            &loaded.db.session.lint_options(),
        );
        if lint_findings.iter().any(|d| d.severity == Severity::Error) {
            let first = lint_findings
                .iter()
                .find(|d| d.severity == Severity::Error)
                .expect("an error exists");
            return Err(DispatchError {
                message: format!("update_fn rejected by lint: {first}"),
                lints: lint_findings,
            });
        }
        // The body itself cannot be edited over the wire (programs are
        // compiled in), so an `update_fn` conservatively invalidates every
        // proof that read the procedure: its own, plus any caller that
        // inlined it for lack of a spec.
        let key: DepKey = (DepKind::Proc, func.to_string());
        let dirtied = loaded.tracker.dirty_key_force(&key);
        // The abstract-interpretation invariants follow the same per-proc
        // granularity: recompute just the touched procedure and refresh the
        // engine's static oracle.
        loaded.db.session.refresh_invariants_for(func);
        Ok(vec![
            ("fn".to_string(), Value::Str(func.to_string())),
            ("dirtied".to_string(), string_array(&dirtied)),
            ("lints".to_string(), lint_array(&lint_findings)),
            (
                "invariants_fingerprint".to_string(),
                Value::Str(format!(
                    "{:016x}",
                    loaded.db.session.invariants().fingerprint
                )),
            ),
        ])
    }

    /// `lint` — runs the full static analysis over the loaded program and
    /// returns every finding, without touching the dependency tracker or
    /// starting any proof search.
    fn do_lint(&mut self) -> Result<Vec<(String, Value)>, DispatchError> {
        let loaded = self.loaded()?;
        let report = gillian_lint::lint_prog(
            &loaded.db.session.verifier().engine.prog,
            &loaded.db.session.lint_options(),
        );
        Ok(vec![
            ("lints".to_string(), lint_array(&report.diagnostics)),
            (
                "errors".to_string(),
                Value::Int(report.errors().count() as i64),
            ),
            (
                "warnings".to_string(),
                Value::Int(report.warnings().count() as i64),
            ),
            ("clean".to_string(), Value::Bool(report.is_clean())),
            (
                "vacuity_seconds".to_string(),
                Value::Float(report.vacuity_time.as_secs_f64()),
            ),
        ])
    }

    fn do_stats(&mut self) -> Vec<(String, Value)> {
        let uptime = self.started.elapsed().as_secs_f64();
        let mut body = vec![
            (
                "requests_served".to_string(),
                Value::Int(self.requests_served as i64),
            ),
            ("uptime_seconds".to_string(), Value::Float(uptime)),
            (
                "loaded_sessions".to_string(),
                Value::Int(self.sessions.len() as i64),
            ),
        ];
        let current = self.current.as_ref().and_then(|key| self.sessions.get(key));
        match current {
            None => body.push(("workload".to_string(), Value::Null)),
            Some(loaded) => {
                let verifier = loaded.db.session.verifier();
                body.push((
                    "workload".to_string(),
                    Value::Str(loaded.db.workload.name.to_string()),
                ));
                body.push((
                    "mode".to_string(),
                    Value::Str(mode_label(loaded.db.mode).to_string()),
                ));
                body.push((
                    "arena_terms".to_string(),
                    Value::Int(verifier.engine.solver.arena().len() as i64),
                ));
                body.push((
                    "dirty_targets".to_string(),
                    Value::Int(loaded.tracker.dirty_count() as i64),
                ));
                let mut solver = verifier.solver_stats();
                solver.disk_cache_hits = loaded.disk.hits;
                solver.disk_cache_misses = loaded.disk.misses;
                solver.disk_cache_writes = loaded.disk.writes;
                body.push(("solver".to_string(), stats_value(solver)));
                body.push((
                    "backend".to_string(),
                    Value::Str(verifier.backend_kind().to_string()),
                ));
                body.push((
                    "smt_available".to_string(),
                    Value::Bool(verifier.engine.solver.smt_available()),
                ));
            }
        }
        body
    }

    /// Writes a stable record for every clean, verified target of every
    /// resident session to the disk store. Eager write-back after each
    /// `verify` already covers freshly proved targets; this shutdown sweep
    /// additionally re-writes hydrated ones, refreshing their mtimes for
    /// `cache gc`'s least-recently-used ordering. Public so the binary's
    /// SIGTERM/SIGINT handler can flush exactly like a `shutdown` request.
    pub fn flush_all(&mut self) {
        let Some(store) = &self.store else { return };
        for loaded in self.sessions.values() {
            for t in loaded.db.session.targets() {
                if !loaded.tracker.is_dirty(&t.name) {
                    write_back(store.as_ref(), loaded, t);
                }
            }
        }
    }
}

/// Writes `target`'s tracked outcome to `store` if it is verified — only
/// verified outcomes persist: failures are always re-proved, so their
/// diagnostics are always fresh. The record carries the read-set
/// fingerprints the tracker already holds.
fn write_back(store: &dyn CacheStore, loaded: &Loaded, target: &Target) {
    let name = &target.name;
    let (Some(outcome), Some(reads)) = (loaded.tracker.cached(name), loaded.tracker.deps_of(name))
    else {
        return;
    };
    if !outcome.verified() {
        return;
    }
    store.insert(&verified_record(
        &loaded.db.session.verifier().engine.prog,
        loaded.db.session.cache_namespace(),
        target.kind.label(),
        name,
        reads,
        outcome.report.elapsed,
    ));
}

/// Runs one target under dependency recording
/// ([`HybridSession::run_recorded`](driver::HybridSession::run_recorded):
/// panic-isolated, and the recording window is closed either way, so the
/// session's warm state stays consistent for the next request) and records
/// the outcome in the tracker with the stable fingerprint of every item the
/// proof read — also what a caller holding a disk store persists.
///
/// *Transient* outcomes (a panic, or a timeout under a wall-clock deadline)
/// are returned but **not** recorded in the tracker: they describe this
/// run's environment, not the program, so the target stays dirty and is
/// re-proved on the next request instead of replaying a stale failure.
fn run_target(db: &ProgramDb, tracker: &mut DepTracker, target: &Target) -> CaseOutcome {
    let deadline_active = db.session.target_timeout().is_some();
    let (outcome, reads) = db.session.run_recorded(target);
    let transient = match &outcome.report.diagnostic {
        Some(VerifyDiagnostic::Panic { .. }) => true,
        Some(VerifyDiagnostic::Timeout { .. }) => deadline_active,
        _ => false,
    };
    if !transient {
        tracker.record(&target.name, reads, outcome.clone());
    }
    outcome
}

/// Seeds a fresh dependency tracker from the disk store: every target with
/// a record whose target *and* dependency fingerprints all match the loaded
/// program is marked clean with a synthetic verified outcome, and the
/// record's read-set becomes the tracker's as it is. The tracker keys on
/// the same stable fingerprints, and the match just checked each one
/// against the program, so later `update_spec`/`update_fn` requests dirty
/// the cone exactly as if this process had proved it. Returns the
/// hydrated target names.
fn hydrate(store: &dyn CacheStore, db: &ProgramDb, tracker: &mut DepTracker) -> Vec<String> {
    let namespace = db.session.cache_namespace();
    let prog = &db.session.verifier().engine.prog;
    let mut hydrated = Vec::new();
    for t in db.session.targets() {
        let Some(rec) = find_record(store, prog, namespace, t.kind.label(), &t.name) else {
            continue;
        };
        tracker.record(
            &t.name,
            record_reads(&rec),
            CaseOutcome::from_record(t, &rec),
        );
        hydrated.push(t.name.clone());
    }
    hydrated
}

fn case_value(outcome: &CaseOutcome, was_cached: bool) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(outcome.name().to_string())),
        (
            "kind".to_string(),
            Value::Str(outcome.kind.label().to_string()),
        ),
        ("verified".to_string(), Value::Bool(outcome.verified())),
        ("cached".to_string(), Value::Bool(was_cached)),
        (
            "seconds".to_string(),
            Value::Float(outcome.report.elapsed.as_secs_f64()),
        ),
    ];
    if let Some(d) = outcome.diagnostic() {
        fields.push((
            "diagnostic".to_string(),
            Value::Object(vec![
                ("category".to_string(), Value::Str(d.category().to_string())),
                ("message".to_string(), Value::Str(d.message().to_string())),
                ("fingerprint".to_string(), Value::Str(d.fingerprint())),
            ]),
        ));
    }
    Value::Object(fields)
}

fn stats_value(s: SolverStats) -> Value {
    Value::Object(vec![
        (
            "unsat_queries".to_string(),
            Value::Int(s.unsat_queries as i64),
        ),
        (
            "entailment_queries".to_string(),
            Value::Int(s.entailment_queries as i64),
        ),
        (
            "cases_explored".to_string(),
            Value::Int(s.cases_explored as i64),
        ),
        ("cache_hits".to_string(), Value::Int(s.cache_hits as i64)),
        (
            "incremental_hits".to_string(),
            Value::Int(s.incremental_hits as i64),
        ),
        ("smt_queries".to_string(), Value::Int(s.smt_queries as i64)),
        ("smt_unsat".to_string(), Value::Int(s.smt_unsat as i64)),
        (
            "smt_failures".to_string(),
            Value::Int(s.smt_failures as i64),
        ),
        (
            "smt_reenabled".to_string(),
            Value::Int(s.smt_reenabled as i64),
        ),
        (
            "kernel_nanos".to_string(),
            Value::Int(s.kernel_nanos as i64),
        ),
        (
            "disk_cache_hits".to_string(),
            Value::Int(s.disk_cache_hits as i64),
        ),
        (
            "disk_cache_misses".to_string(),
            Value::Int(s.disk_cache_misses as i64),
        ),
        (
            "disk_cache_writes".to_string(),
            Value::Int(s.disk_cache_writes as i64),
        ),
        (
            "branches_pruned_static".to_string(),
            Value::Int(s.branches_pruned_static as i64),
        ),
        (
            "absint_facts_seeded".to_string(),
            Value::Int(s.absint_facts_seeded as i64),
        ),
    ])
}

/// One lint diagnostic as a wire object: stable code, severity, span text
/// and message.
fn lint_value(d: &LintDiagnostic) -> Value {
    Value::Object(vec![
        ("code".to_string(), Value::Str(d.code.to_string())),
        (
            "severity".to_string(),
            Value::Str(d.severity.label().to_string()),
        ),
        ("span".to_string(), Value::Str(d.span.to_string())),
        ("message".to_string(), Value::Str(d.message.clone())),
    ])
}

fn lint_array(diags: &[LintDiagnostic]) -> Value {
    Value::Array(diags.iter().map(lint_value).collect())
}

fn string_array(names: &[String]) -> Value {
    Value::Array(names.iter().map(|n| Value::Str(n.clone())).collect())
}

/// Serves newline-delimited JSON over stdin/stdout until `shutdown` (or
/// EOF). One request per line, one response per line.
pub fn serve_stdio() -> std::io::Result<()> {
    serve_stdio_with(ServerCore::new())
}

/// [`serve_stdio`] over a caller-configured core (e.g. one holding a
/// persistent proof-cache store).
pub fn serve_stdio_with(core: ServerCore) -> std::io::Result<()> {
    serve_stdio_shared(&Arc::new(Mutex::new(core)))
}

/// [`serve_stdio`] over a *shared* core: the binary hands the same handle
/// to its SIGTERM/SIGINT watcher, which flushes the proof cache and exits
/// while this loop is blocked on `read_line`.
pub fn serve_stdio_shared(core: &Arc<Mutex<ServerCore>>) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (resp, done) = {
            let mut core = core.lock().unwrap();
            let resp = core.handle_line(&line);
            (resp, core.is_shutting_down())
        };
        {
            let mut out = stdout.lock();
            writeln!(out, "{resp}")?;
            out.flush()?;
        }
        if done {
            break;
        }
    }
    Ok(())
}

/// Serves the daemon protocol on a Unix domain socket. Connections share
/// one [`ServerCore`] (one loaded workload, one dependency tracker);
/// requests are serialised through a mutex, so interleaved clients see a
/// consistent warm state. A `shutdown` request stops the accept loop.
///
/// Lives in the library (not the binary) so the integration tests can
/// drive a real socket — in particular the client-disconnect tests. Each
/// connection gets its own thread; finished threads (a client that
/// disconnected, possibly mid-request) are reaped on every accept-loop
/// iteration rather than accumulating until shutdown.
pub fn serve_unix(path: &str, core: &Arc<Mutex<ServerCore>>) -> std::io::Result<()> {
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let done = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

    while !done.load(Ordering::SeqCst) {
        // Reap connection threads whose client went away — a disconnect
        // (even mid-request) must release the thread, not park it until
        // shutdown.
        handles.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(core);
                let done = Arc::clone(&done);
                handles.push(std::thread::spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    let mut writer = stream;
                    for line in reader.lines() {
                        let line = match line {
                            Ok(l) => l,
                            Err(_) => break,
                        };
                        if line.trim().is_empty() {
                            continue;
                        }
                        let resp = {
                            let mut core = core.lock().unwrap();
                            let resp = core.handle_line(&line);
                            if core.is_shutting_down() {
                                done.store(true, Ordering::SeqCst);
                            }
                            resp
                        };
                        if writeln!(writer, "{resp}")
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            break;
                        }
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }

    for h in handles {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn ok(resp: &str) -> Value {
        let v = parse(resp).expect("response is valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
        v
    }

    fn names(v: &Value, field: &str) -> Vec<String> {
        v.get(field)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn load_verify_and_warm_cache() {
        let mut core = ServerCore::new();
        let v = ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        assert_eq!(names(&v, "targets"), vec!["base", "inc", "inc2"]);

        let v = ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "reverified"), vec!["base", "inc", "inc2"]);
        assert!(names(&v, "cached").is_empty());

        // Warm: nothing dirty, everything cached.
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert!(names(&v, "reverified").is_empty());
        assert_eq!(names(&v, "cached"), vec!["base", "inc", "inc2"]);

        // Re-loading the same workload/mode pair switches back to the warm
        // session instead of rebuilding: the cache survives.
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"load","workload":"chain"}"#));
        assert_eq!(v.get("reused").and_then(Value::as_bool), Some(true));
        let v = ok(&core.handle_line(r#"{"id":5,"cmd":"verify"}"#));
        assert!(names(&v, "reverified").is_empty());
        assert_eq!(names(&v, "cached"), vec!["base", "inc", "inc2"]);
    }

    #[test]
    fn update_spec_dirties_exactly_the_cone() {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));

        // Tighten inc's precondition: inc itself and its spec-caller inc2
        // must re-run; base must not.
        let v = ok(&core.handle_line(
            r#"{"id":3,"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}"#,
        ));
        assert_eq!(v.get("changed").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "dirtied"), vec!["inc", "inc2"]);

        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "reverified"), vec!["inc", "inc2"]);
        assert_eq!(names(&v, "cached"), vec!["base"]);

        // Re-sending the same spec is a no-op.
        let v = ok(&core.handle_line(
            r#"{"id":5,"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}"#,
        ));
        assert_eq!(v.get("changed").and_then(Value::as_bool), Some(false));
        assert!(names(&v, "dirtied").is_empty());
    }

    #[test]
    fn update_spec_can_break_and_fix_a_proof() {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));

        // A wrong postcondition for inc: inc's own proof fails, and inc2's
        // proof (built on the broken contract) fails too.
        let v = ok(&core.handle_line(
            r#"{"id":3,"cmd":"update_spec","fn":"inc","requires":["x@ < 1000"],"ensures":["result@ == x@ + 2"]}"#,
        ));
        assert_eq!(names(&v, "dirtied"), vec!["inc", "inc2"]);
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(false));

        // Restore the correct contract; only the cone re-runs and passes.
        ok(&core.handle_line(
            r#"{"id":5,"cmd":"update_spec","fn":"inc","requires":["x@ < 1000"],"ensures":["result@ == x@ + 1"]}"#,
        ));
        let v = ok(&core.handle_line(r#"{"id":6,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "reverified"), vec!["inc", "inc2"]);
    }

    #[test]
    fn update_fn_dirties_only_the_function() {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));

        // inc2 is verified against inc's SPEC, not its body, so touching
        // inc's body re-runs only inc.
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"update_fn","fn":"inc"}"#));
        assert_eq!(names(&v, "dirtied"), vec!["inc"]);
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"verify"}"#));
        assert_eq!(names(&v, "reverified"), vec!["inc"]);
        assert_eq!(names(&v, "cached"), vec!["base", "inc2"]);
    }

    #[test]
    fn errors_and_stats_and_shutdown() {
        let mut core = ServerCore::new();
        let v = parse(&core.handle_line(r#"{"id":1,"cmd":"verify"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("no workload loaded"));

        let v = ok(&core.handle_line(r#"{"id":2,"cmd":"stats"}"#));
        assert_eq!(v.get("requests_served").and_then(Value::as_i64), Some(2));
        assert!(matches!(v.get("workload"), Some(Value::Null)));

        assert!(!core.is_shutting_down());
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"shutdown"}"#));
        assert_eq!(v.get("bye").and_then(Value::as_bool), Some(true));
        assert!(core.is_shutting_down());
    }

    #[test]
    fn deeply_nested_json_line_is_rejected_and_serving_continues() {
        let mut core = ServerCore::new();
        let resp = core.handle_line(&"[".repeat(100_000));
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{resp}");
        assert!(
            v.get("error")
                .and_then(Value::as_str)
                .unwrap()
                .starts_with("invalid JSON at byte 128"),
            "{resp}"
        );

        ok(&core.handle_line(
            r#"{"id":2,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
    }

    /// Sends `inc` an `update_spec` whose clauses nest too deeply, expects
    /// it to be rejected, and checks that `inc` keeps the spec it had.
    fn too_deep_update_spec_keeps_the_old_spec(requires: &str, ensures: &str) {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        let spec = r#""fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]"#;
        ok(&core.handle_line(&format!(r#"{{"id":2,"cmd":"update_spec",{spec}}}"#)));
        ok(&core.handle_line(r#"{"id":3,"cmd":"verify"}"#));

        let resp = core.handle_line(&format!(
            r#"{{"id":4,"cmd":"update_spec","fn":"inc","requires":["{requires}"],"ensures":["{ensures}"]}}"#
        ));
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("nests deeper"), "{error}");

        // `inc` keeps the spec it had: re-sending it changes nothing, and
        // the next verify re-proves nothing.
        let v = ok(&core.handle_line(&format!(r#"{{"id":5,"cmd":"update_spec",{spec}}}"#)));
        assert_eq!(v.get("changed").and_then(Value::as_bool), Some(false));
        let v = ok(&core.handle_line(r#"{"id":6,"cmd":"verify"}"#));
        assert!(names(&v, "reverified").is_empty());
        assert_eq!(names(&v, "cached"), vec!["base", "inc", "inc2"]);
    }

    #[test]
    fn deeply_nested_update_spec_term_is_rejected_and_keeps_the_old_spec() {
        let deep = "(".repeat(10_000) + "x@" + &")".repeat(10_000);
        too_deep_update_spec_keeps_the_old_spec(&format!("{deep} < 1000"), "result@ == x@ + 1");
    }

    #[test]
    fn flat_chain_update_spec_term_is_rejected_and_keeps_the_old_spec() {
        // No parentheses: a 100,000-term sum is a left-deep tree as tall as
        // it is long, so the cap on the tree's height rejects it.
        let chain = vec!["x@"; 100_000].join(" + ");
        too_deep_update_spec_keeps_the_old_spec("x@ < 2000", &format!("result@ == {chain}"));
    }

    #[test]
    fn update_spec_with_unsat_pre_is_rejected_and_dirties_nothing() {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));

        // `x@ < 5` and `5 < x@` cannot both hold: the vacuity pass refutes
        // the precondition and the edit is rejected with the finding on the
        // wire, before any retained state is touched.
        let resp = core.handle_line(
            r#"{"id":3,"cmd":"update_spec","fn":"inc","requires":["x@ < 5","5 < x@"],"ensures":["result@ == x@ + 1"]}"#,
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{resp}");
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("GL041"));
        let lints = v.get("lints").and_then(Value::as_array).unwrap();
        assert!(lints
            .iter()
            .any(|l| l.get("code").and_then(Value::as_str) == Some("GL041")));

        // The rejected edit did NOT dirty the dependency cone: the next
        // verify answers everything from the warm outcome cache.
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert!(names(&v, "reverified").is_empty(), "{resp}");
        assert_eq!(names(&v, "cached"), vec!["base", "inc", "inc2"]);
    }

    #[test]
    fn warn_only_update_spec_passes_with_lints_on_the_wire() {
        let mut core = ServerCore::new();
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));

        // `y@` names no parameter: `#y_repr` appears exactly once in the
        // precondition — an orphaned logical variable, a warning (GL028),
        // not an error. The edit goes through, findings attached. Editing
        // `inc2` (the top of the call chain — no caller consumes its spec)
        // keeps every proof green: its own proof merely *assumes* the
        // orphaned pure.
        let v = ok(&core.handle_line(
            r#"{"id":3,"cmd":"update_spec","fn":"inc2","requires":["x@ < 900","y@ < 5"],"ensures":["result@ == x@ + 2"]}"#,
        ));
        assert_eq!(v.get("changed").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "dirtied"), vec!["inc2"]);
        let lints = v.get("lints").and_then(Value::as_array).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| l.get("code").and_then(Value::as_str) == Some("GL028")),
            "{lints:?}"
        );

        // And the weakened-but-satisfiable contract still verifies.
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn lint_request_reports_a_clean_loaded_workload() {
        let mut core = ServerCore::new();
        let v = parse(&core.handle_line(r#"{"id":1,"cmd":"lint"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));

        ok(&core.handle_line(
            r#"{"id":2,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"lint"}"#));
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("errors").and_then(Value::as_i64), Some(0));
        assert_eq!(v.get("warnings").and_then(Value::as_i64), Some(0));
        assert!(v.get("lints").and_then(Value::as_array).unwrap().is_empty());

        // `load` responses carry the build-time findings too (empty here).
        let v = ok(&core.handle_line(r#"{"id":4,"cmd":"load","workload":"chain"}"#));
        assert!(v.get("lints").and_then(Value::as_array).unwrap().is_empty());
    }

    fn delta_i64(v: &Value, field: &str) -> i64 {
        v.get("solver_delta")
            .and_then(|d| d.get(field))
            .and_then(Value::as_i64)
            .unwrap()
    }

    /// One read-set as sorted `(kind label, name, fingerprint)` triples —
    /// the shape of a record's `deps`.
    type Reads = Vec<(String, String, u64)>;

    /// Every target's tracked read-set, by target name.
    fn read_sets(core: &ServerCore) -> Vec<(String, Reads)> {
        let loaded = &core.sessions[core.current.as_ref().unwrap()];
        loaded
            .db
            .session
            .targets()
            .iter()
            .map(|t| {
                let mut reads: Reads = loaded
                    .tracker
                    .deps_of(&t.name)
                    .unwrap()
                    .iter()
                    .map(|((kind, name), fp)| (kind.label().to_string(), name.clone(), *fp))
                    .collect();
                reads.sort();
                (t.name.clone(), reads)
            })
            .collect()
    }

    #[test]
    fn daemon_restart_hydrates_from_the_store() {
        let store: Arc<dyn CacheStore> = Arc::new(proof_cache::MemStore::new());

        // First daemon lifetime: everything is proved cold and written back.
        let mut core = ServerCore::with_store(Arc::clone(&store));
        let v = ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        assert!(names(&v, "hydrated").is_empty());
        let v = ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));
        assert_eq!(names(&v, "reverified"), vec!["base", "inc", "inc2"]);
        assert_eq!(delta_i64(&v, "disk_cache_misses"), 3);
        assert_eq!(delta_i64(&v, "disk_cache_writes"), 3);
        // The tracker keeps exactly the fingerprints the records persist.
        let cold = read_sets(&core);
        let namespace = core.sessions[core.current.as_ref().unwrap()]
            .db
            .session
            .cache_namespace();
        for (name, reads) in &cold {
            let records = store.lookup(proof_cache::target_key(namespace, "fn", name));
            let deps: Reads = records
                .iter()
                .flat_map(|r| &r.deps)
                .map(|d| (d.kind.clone(), d.name.clone(), d.fingerprint))
                .collect();
            assert_eq!(&deps, reads, "{name}");
        }
        ok(&core.handle_line(r#"{"id":3,"cmd":"shutdown"}"#));

        // Second daemon lifetime over the same store: the load hydrates the
        // tracker, and the first verify answers everything warm — the
        // restart-resilience contract of the persistent cache.
        let mut core = ServerCore::with_store(Arc::clone(&store));
        let v = ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        assert_eq!(names(&v, "hydrated"), vec!["base", "inc", "inc2"]);
        assert_eq!(read_sets(&core), cold);
        let v = ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert!(names(&v, "reverified").is_empty());
        assert_eq!(names(&v, "cached"), vec!["base", "inc", "inc2"]);
        assert_eq!(delta_i64(&v, "disk_cache_misses"), 0);

        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"stats"}"#));
        let solver = v.get("solver").unwrap();
        assert_eq!(
            solver.get("disk_cache_hits").and_then(Value::as_i64),
            Some(3)
        );
    }

    #[test]
    fn hydrated_sessions_keep_exact_cone_invalidation() {
        let store: Arc<dyn CacheStore> = Arc::new(proof_cache::MemStore::new());
        let mut core = ServerCore::with_store(Arc::clone(&store));
        ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        ok(&core.handle_line(r#"{"id":2,"cmd":"verify"}"#));
        ok(&core.handle_line(r#"{"id":3,"cmd":"shutdown"}"#));

        // Restart, hydrate, then edit inc's spec: the hydrated read-sets
        // must dirty exactly the reverse-dependency cone {inc, inc2}.
        let mut core = ServerCore::with_store(Arc::clone(&store));
        let v = ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        assert_eq!(names(&v, "hydrated"), vec!["base", "inc", "inc2"]);
        let v = ok(&core.handle_line(
            r#"{"id":2,"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}"#,
        ));
        assert_eq!(names(&v, "dirtied"), vec!["inc", "inc2"]);
        let v = ok(&core.handle_line(r#"{"id":3,"cmd":"verify"}"#));
        assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
        assert_eq!(names(&v, "reverified"), vec!["inc", "inc2"]);
        assert_eq!(names(&v, "cached"), vec!["base"]);
        // The re-proofs under the edited spec were written back as *new*
        // records (different read-set fingerprints), so both generations
        // coexist in the store.
        assert_eq!(delta_i64(&v, "disk_cache_writes"), 2);

        // Third lifetime: the program is compiled back in its original
        // form, and the first-generation records still match it — editing a
        // spec and editing it back never loses warm state.
        ok(&core.handle_line(r#"{"id":4,"cmd":"shutdown"}"#));
        let mut core = ServerCore::with_store(Arc::clone(&store));
        let v = ok(&core.handle_line(
            r#"{"id":1,"cmd":"load","workload":"chain","workers":1,"branch_parallelism":1}"#,
        ));
        assert_eq!(names(&v, "hydrated"), vec!["base", "inc", "inc2"]);
    }
}
