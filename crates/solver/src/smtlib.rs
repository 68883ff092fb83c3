//! External SMT-LIB2 solver backend ([`crate::BackendKind::SmtLib`]).
//!
//! The in-repo refutation kernel is deliberately scoped to the theories the
//! paper's case studies need; this module widens the decidable fragment by
//! driving an **external SMT-LIB2 process** (z3, cvc5, or anything set via
//! `GILLIAN_SMT`) behind the same [`SolverBackend`] trait. The backend is a
//! *hybrid*: every query first runs the in-repo kernel (cheap, in-process,
//! and complete for the fragment the case studies exercise); only queries the
//! kernel cannot refute are shipped to the external solver.
//!
//! ## Encoding
//!
//! The expression language is untyped, so terms are rendered into a single
//! universal SMT datatype `Val` (ints, booleans, locations, unit, sequences
//! as a cons-list datatype, constructor applications tagged by an interned
//! integer, tuples). `++`/`len` are exact recursive definitions
//! (`define-fun-rec`), constructors get injectivity and distinctness from the
//! datatype semantics, and uninterpreted applications go through a single
//! `uapp` function. Sub-terms outside the encoded fragment (`SeqAt`,
//! `SeqSub`, `SeqUpdate`, `SeqRepeat`, bags) are abstracted into per-term
//! opaque constants — a sound abstraction for refutation: the rendered
//! formula is satisfiable whenever the original is, so an external `unsat`
//! answer genuinely refutes the original facts.
//!
//! ## Process driving
//!
//! By default the bridge runs **one process per concurrently-solving
//! worker**: each solve checks a process out of an idle pool (preferring the
//! one whose mirrored stack shares the longest scope prefix with the query)
//! or spawns a fresh one seeded with the shared prelude, so branch workers
//! never serialise on a hub mutex. The naming tables (constructor tags,
//! opaque constants) stay shared — locked only while rendering — so names
//! are stable across every process. `GILLIAN_SMT_SINGLE=1` (or
//! `SmtOptions::per_worker = false`) restores the pre-pool fallback: one
//! process per [`crate::Solver`] hub behind a mutex. Either way a process
//! mirrors the querying context's assertion stack with `(push 1)`/`(pop 1)`:
//! before each `(check-sat)` its state is re-synchronised to the context's
//! branch scopes by popping to the common prefix and asserting the
//! difference, so a linear exploration inside one branch is fully
//! incremental.
//!
//! Every solve is **time-boxed** (default 3 s; `GILLIAN_SMT_TIMEOUT_MS` or
//! `EngineOptions::smt_timeout_ms`). On timeout or process death the child is
//! killed and respawned lazily, and — critically — the query reports itself
//! *incomplete* ([`SolverBackend::last_query_complete`]), which makes the
//! caching decorator abandon its in-flight compute-once entry instead of
//! publishing it: workers parked on the same query resume and recompute
//! rather than hanging on a solve that will never settle.
//!
//! The module is feature-gated (`smtlib`, on by default, pure `std`): with
//! the feature disabled no process is ever spawned and the backend degrades
//! to the kernel alone.

use crate::arena::{TermArena, TermId};
use crate::backend::{
    entails_by_decomposition, AtomicSolverStats, IncrementalStateBackend, SolverBackend,
};
use crate::expr::{BinOp, Expr, NOp, UnOp};
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default wall-clock time box per external solve.
pub const DEFAULT_TIMEOUT_MS: u64 = 3000;

/// How an external solver is invoked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtCommand {
    /// Program plus arguments. The program must speak SMT-LIB2 on
    /// stdin/stdout.
    pub argv: Vec<String>,
    /// Human-readable provenance (`$GILLIAN_SMT`, `z3 on PATH`, …).
    pub source: String,
}

/// Configuration for the SMT bridge of one [`crate::Solver`] hub.
#[derive(Clone, Debug)]
pub struct SmtOptions {
    /// Explicit solver command line; `None` probes `$GILLIAN_SMT`, then
    /// `PATH` for `z3` and `cvc5`.
    pub command: Option<Vec<String>>,
    /// Wall-clock time box per solve.
    pub timeout: Duration,
    /// One external process per concurrently-solving worker (the default:
    /// solves never serialise on a hub mutex; idle processes are pooled and
    /// checked out by longest shared scope prefix) versus the single shared
    /// process behind a mutex (the pre-pool behaviour; forced by
    /// `GILLIAN_SMT_SINGLE=1`).
    pub per_worker: bool,
}

impl Default for SmtOptions {
    fn default() -> Self {
        SmtOptions::from_env()
    }
}

impl SmtOptions {
    /// Probe-everything defaults: command from the environment/`PATH`,
    /// timeout from `GILLIAN_SMT_TIMEOUT_MS` (milliseconds) or
    /// [`DEFAULT_TIMEOUT_MS`], per-worker processes unless
    /// `GILLIAN_SMT_SINGLE` is set to `1`/`true`/`on`.
    pub fn from_env() -> Self {
        let timeout = std::env::var("GILLIAN_SMT_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_TIMEOUT_MS);
        let single = std::env::var("GILLIAN_SMT_SINGLE")
            .map(|v| matches!(v.trim(), "1" | "true" | "on"))
            .unwrap_or(false);
        SmtOptions {
            command: None,
            timeout: Duration::from_millis(timeout),
            per_worker: !single,
        }
    }
}

/// Finds `name` on `PATH`.
fn which(name: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH")?;
    for dir in std::env::split_paths(&path) {
        let cand = dir.join(name);
        if is_executable(&cand) {
            return Some(cand);
        }
    }
    None
}

#[cfg(unix)]
fn is_executable(p: &Path) -> bool {
    use std::os::unix::fs::PermissionsExt;
    p.is_file()
        && std::fs::metadata(p)
            .map(|m| m.permissions().mode() & 0o111 != 0)
            .unwrap_or(false)
}

#[cfg(not(unix))]
fn is_executable(p: &Path) -> bool {
    p.is_file()
}

/// Probes for an external solver: `GILLIAN_SMT` (a command line; empty,
/// `off` or `0` disables the bridge even when a solver is on `PATH`), then
/// `z3`, then `cvc5` on `PATH`. Returns `None` when the `smtlib` feature is
/// disabled.
pub fn probe() -> Option<SmtCommand> {
    if !cfg!(feature = "smtlib") {
        return None;
    }
    if let Ok(v) = std::env::var("GILLIAN_SMT") {
        let v = v.trim();
        if v.is_empty() || v == "off" || v == "0" {
            return None;
        }
        return Some(SmtCommand {
            argv: v.split_whitespace().map(str::to_owned).collect(),
            source: "$GILLIAN_SMT".to_owned(),
        });
    }
    for name in ["z3", "cvc5"] {
        if let Some(path) = which(name) {
            return Some(SmtCommand {
                argv: vec![path.to_string_lossy().into_owned()],
                source: format!("{name} on PATH"),
            });
        }
    }
    None
}

/// Is an external solver reachable with the current environment?
pub fn available() -> bool {
    probe().is_some()
}

/// The parsed outcome of one external solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmtAnswer {
    /// The rendered facts are unsatisfiable — a definitive refutation of
    /// the original facts (the encoding only abstracts, never constrains).
    Unsat,
    /// The rendered facts are satisfiable (which says nothing definitive
    /// about the original facts: abstraction can introduce models).
    Sat,
    /// The solver gave up within its own limits.
    Unknown,
    /// The wall-clock time box fired; the process was killed.
    Timeout,
    /// The process died, answered garbage, or could not be (re)spawned.
    Died,
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// The fixed prelude sent to a fresh process. The universal datatype plus
/// exact recursive definitions of sequence length and concatenation.
const PRELUDE: &str = "\
(set-option :print-success false)
(set-logic ALL)
(declare-datatypes ((Val 0) (ValList 0)) (
  ((VInt (ival Int)) (VBool (bval Bool)) (VLoc (lloc Int)) (VUnit)
   (VSeq (sseq ValList)) (VCtor (ctag Int) (cargs ValList)) (VTup (targs ValList)))
  ((vnil) (vcons (vhead Val) (vtail ValList)))))
(define-fun-rec vlen ((l ValList)) Int
  (ite ((_ is vnil) l) 0 (+ 1 (vlen (vtail l)))))
(define-fun-rec vconcat ((a ValList) (b ValList)) ValList
  (ite ((_ is vnil) a) b (vcons (vhead a) (vconcat (vtail a) b))))
(declare-fun uapp (Int ValList) Val)
(declare-fun vdiv (Int Int) Int)
(declare-fun vrem (Int Int) Int)
(assert (forall ((l ValList)) (>= (vlen l) 0)))
";

/// Quotes a name as an SMT-LIB symbol. `|`-quoting admits every character
/// the front ends produce except `|` and `\`; those are escaped with an
/// *injective* scheme (`?` is the escape lead: `??` = literal `?`, `?7c` =
/// `|`, `?5c` = `\`), so distinct source names can never collapse into the
/// same SMT constant — a collapse would let the external solver conflate
/// two variables and refute a satisfiable path.
fn smt_symbol(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('|');
    for c in name.chars() {
        match c {
            '?' => out.push_str("??"),
            '|' => out.push_str("?7c"),
            '\\' => out.push_str("?5c"),
            _ => out.push(c),
        }
    }
    out.push('|');
    out
}

/// Naming tables shared by every render of one process lifetime (kept on
/// the hub so names stay stable across respawns and re-syncs).
#[derive(Debug, Default)]
struct RenderTables {
    /// Constructor / uninterpreted-function tags.
    tags: HashMap<Symbol, i64>,
    /// Opaque constants abstracting unsupported sub-terms.
    opaque: HashMap<Expr, u64>,
}

impl RenderTables {
    fn tag(&mut self, s: Symbol) -> i64 {
        let next = self.tags.len() as i64;
        *self.tags.entry(s).or_insert(next)
    }

    fn opaque_name(&mut self, e: &Expr) -> String {
        let next = self.opaque.len() as u64;
        let id = *self.opaque.entry(e.clone()).or_insert(next);
        format!("|opq{id}|")
    }
}

/// One rendering pass: the output term plus the constants it needs declared.
struct Render<'t> {
    tables: &'t mut RenderTables,
    /// Constant names (already quoted) this term mentions.
    consts: Vec<String>,
}

impl<'t> Render<'t> {
    fn new(tables: &'t mut RenderTables) -> Self {
        Render {
            tables,
            consts: Vec::new(),
        }
    }

    fn constant(&mut self, name: String) -> String {
        self.consts.push(name.clone());
        name
    }

    fn opaque(&mut self, e: &Expr) -> String {
        let name = self.tables.opaque_name(e);
        self.constant(name)
    }

    /// Renders an expression at sort `Val`.
    fn val(&mut self, e: &Expr) -> String {
        match e {
            Expr::Var(v) => self.constant(format!("|sv{}|", v.0)),
            Expr::LVar(s) => self.constant(smt_symbol(&format!("lv!{s}"))),
            Expr::PVar(s) => self.constant(smt_symbol(&format!("pv!{s}"))),
            Expr::Int(_) => format!("(VInt {})", self.int(e)),
            Expr::Bool(b) => format!("(VBool {b})"),
            Expr::Loc(l) => format!("(VLoc {l})"),
            Expr::Unit => "VUnit".to_owned(),
            Expr::Ctor(tag, args) => {
                let t = self.tables.tag(*tag);
                format!("(VCtor {t} {})", self.list(args))
            }
            Expr::Tuple(args) => format!("(VTup {})", self.list(args)),
            Expr::SeqLit(_) | Expr::BinOp(BinOp::SeqConcat, _, _) => {
                format!("(VSeq {})", self.seq(e))
            }
            Expr::UnOp(UnOp::Not, _) | Expr::BinOp(_, _, _) if is_bool_shaped(e) => {
                format!("(VBool {})", self.boolean(e))
            }
            Expr::UnOp(UnOp::Neg, _) | Expr::UnOp(UnOp::SeqLen, _) => {
                format!("(VInt {})", self.int(e))
            }
            Expr::BinOp(op, _, _) if is_int_op(*op) => format!("(VInt {})", self.int(e)),
            Expr::Ite(c, t, f) => {
                format!("(ite {} {} {})", self.boolean(c), self.val(t), self.val(f))
            }
            Expr::App(name, args) => {
                let t = self.tables.tag(*name);
                format!("(uapp {t} {})", self.list(args))
            }
            // Outside the encoded fragment: a per-term opaque constant.
            _ => self.opaque(e),
        }
    }

    /// Renders a list of expressions as a `ValList` cons chain.
    fn list(&mut self, items: &[Expr]) -> String {
        let mut out = "vnil".to_owned();
        for item in items.iter().rev() {
            out = format!("(vcons {} {})", self.val(item), out);
        }
        out
    }

    /// Renders an expression at sort `ValList` (sequence payload).
    fn seq(&mut self, e: &Expr) -> String {
        match e {
            Expr::SeqLit(items) => self.list(items),
            Expr::BinOp(BinOp::SeqConcat, a, b) => {
                format!("(vconcat {} {})", self.seq(a), self.seq(b))
            }
            other => format!("(sseq {})", self.val(other)),
        }
    }

    /// Renders an expression at sort `Int`.
    fn int(&mut self, e: &Expr) -> String {
        match e {
            Expr::Int(i) => {
                if *i < 0 {
                    format!("(- {})", i.unsigned_abs())
                } else {
                    format!("{i}")
                }
            }
            Expr::UnOp(UnOp::Neg, a) => format!("(- {})", self.int(a)),
            Expr::UnOp(UnOp::SeqLen, a) => format!("(vlen {})", self.seq(a)),
            Expr::BinOp(BinOp::Add, a, b) => format!("(+ {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Sub, a, b) => format!("(- {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Mul, a, b) => format!("(* {} {})", self.int(a), self.int(b)),
            // `div`/`rem` semantics differ between SMT-LIB (Euclidean) and
            // the engine (truncating), so they stay uninterpreted.
            Expr::BinOp(BinOp::Div, a, b) => format!("(vdiv {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Rem, a, b) => format!("(vrem {} {})", self.int(a), self.int(b)),
            other => format!("(ival {})", self.val(other)),
        }
    }

    /// Renders an expression at sort `Bool`.
    fn boolean(&mut self, e: &Expr) -> String {
        match e {
            Expr::Bool(b) => format!("{b}"),
            Expr::UnOp(UnOp::Not, a) => format!("(not {})", self.boolean(a)),
            Expr::BinOp(BinOp::Eq, a, b) => format!("(= {} {})", self.val(a), self.val(b)),
            Expr::BinOp(BinOp::Ne, a, b) => {
                format!("(not (= {} {}))", self.val(a), self.val(b))
            }
            Expr::BinOp(BinOp::Lt, a, b) => format!("(< {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Le, a, b) => format!("(<= {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Gt, a, b) => format!("(> {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::Ge, a, b) => format!("(>= {} {})", self.int(a), self.int(b)),
            Expr::BinOp(BinOp::And, a, b) => {
                format!("(and {} {})", self.boolean(a), self.boolean(b))
            }
            Expr::BinOp(BinOp::Or, a, b) => {
                format!("(or {} {})", self.boolean(a), self.boolean(b))
            }
            Expr::BinOp(BinOp::Implies, a, b) => {
                format!("(=> {} {})", self.boolean(a), self.boolean(b))
            }
            Expr::Ite(c, t, f) => format!(
                "(ite {} {} {})",
                self.boolean(c),
                self.boolean(t),
                self.boolean(f)
            ),
            other => format!("(bval {})", self.val(other)),
        }
    }
}

fn is_bool_shaped(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Bool(_)
            | Expr::UnOp(UnOp::Not, _)
            | Expr::BinOp(
                BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::And
                    | BinOp::Or
                    | BinOp::Implies,
                _,
                _
            )
    )
}

fn is_int_op(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
    )
}

/// Is this expression inside the precisely-encoded fragment? Only used by
/// tests and diagnostics; rendering handles everything via abstraction.
pub fn is_precisely_encoded(e: &Expr) -> bool {
    let mut ok = true;
    e.visit(&mut |sub| {
        if matches!(
            sub,
            Expr::UnOp(UnOp::BagOf, _)
                | Expr::BinOp(BinOp::BagUnion | BinOp::SeqAt | BinOp::SeqRepeat, _, _)
                | Expr::NOp(NOp::SeqSub | NOp::SeqUpdate, _)
        ) {
            ok = false;
        }
    });
    ok
}

/// Renders one fact as a ready-to-send SMT-LIB command sequence:
/// declarations for constants not yet known to the process, then the
/// assertion itself. `declared` is updated with the new names.
fn render_assert(
    tables: &mut RenderTables,
    declared_all: &[HashSet<String>],
    declared_new: &mut HashSet<String>,
    fact: &Expr,
) -> String {
    let mut r = Render::new(tables);
    let body = r.boolean(fact);
    let mut out = String::new();
    for name in r.consts {
        if declared_all.iter().any(|s| s.contains(&name)) || declared_new.contains(&name) {
            continue;
        }
        out.push_str(&format!("(declare-fun {name} () Val)\n"));
        declared_new.insert(name);
    }
    out.push_str(&format!("(assert {body})\n"));
    out
}

// ---------------------------------------------------------------------------
// Process management
// ---------------------------------------------------------------------------

/// A live solver process: writer thread (so a hung child can never block a
/// worker on a full pipe), reader thread (so answers can be awaited with a
/// deadline), and the mirrored assertion stack.
struct SmtProcess {
    child: Child,
    to_solver: Sender<String>,
    from_solver: Receiver<String>,
    /// The assertion scopes currently pushed in the process, innermost
    /// last; `synced[i]` lists the (simplified) ids asserted in scope `i`.
    synced: Vec<Vec<TermId>>,
    /// The constants declared per scope (popping a scope undeclares them).
    declared: Vec<HashSet<String>>,
}

impl SmtProcess {
    fn spawn(cmd: &SmtCommand, timeout: Duration) -> Option<SmtProcess> {
        let mut argv = cmd.argv.clone();
        // Known solvers get stdin mode and a soft per-query time limit; a
        // custom $GILLIAN_SMT command is trusted to read stdin as-is.
        let base = Path::new(&argv[0])
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if cmd.source != "$GILLIAN_SMT" {
            if base.starts_with("z3") {
                argv.push("-in".to_owned());
                argv.push(format!("-t:{}", timeout.as_millis()));
            } else if base.starts_with("cvc5") || base.starts_with("cvc4") {
                argv.push("--incremental".to_owned());
                argv.push(format!("--tlimit-per={}", timeout.as_millis()));
            }
        }
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .ok()?;
        let mut stdin = child.stdin.take()?;
        let stdout = child.stdout.take()?;

        let (to_solver, writer_rx) = mpsc::channel::<String>();
        std::thread::Builder::new()
            .name("smtlib-writer".into())
            .spawn(move || {
                while let Ok(chunk) = writer_rx.recv() {
                    if stdin.write_all(chunk.as_bytes()).is_err() || stdin.flush().is_err() {
                        break;
                    }
                }
            })
            .ok()?;

        let (reader_tx, from_solver) = mpsc::channel::<String>();
        std::thread::Builder::new()
            .name("smtlib-reader".into())
            .spawn(move || {
                let reader = BufReader::new(stdout);
                for line in reader.lines() {
                    match line {
                        Ok(l) => {
                            if reader_tx.send(l).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
            .ok()?;

        let proc = SmtProcess {
            child,
            to_solver,
            from_solver,
            synced: Vec::new(),
            declared: Vec::new(),
        };
        proc.send(PRELUDE)?;
        Some(proc)
    }

    fn send(&self, text: &str) -> Option<()> {
        // Injected write failures surface exactly like a closed pipe: the
        // caller kills the process and the solve degrades to the kernel.
        if gillian_faults::hit("smt.write").is_some() {
            return None;
        }
        self.to_solver.send(text.to_owned()).ok()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Re-synchronises the process's assertion stack to `target` scopes:
    /// pops to the longest common prefix (the innermost surviving scope may
    /// be extended in place when it is a prefix of its target), then pushes
    /// and asserts the rest. Returns `None` on a write failure.
    fn sync(
        &mut self,
        tables: &mut RenderTables,
        target: &[Vec<TermId>],
        arena: &TermArena,
    ) -> Option<()> {
        let mut keep = 0;
        while keep < self.synced.len() && keep < target.len() && self.synced[keep] == target[keep] {
            keep += 1;
        }
        // The innermost synced scope may be extendable in place.
        let extend = keep + 1 == self.synced.len()
            && keep < target.len()
            && target[keep].starts_with(&self.synced[keep]);
        let pop_to = if extend { keep + 1 } else { keep };
        let mut cmds = String::new();
        while self.synced.len() > pop_to {
            cmds.push_str("(pop 1)\n");
            self.synced.pop();
            self.declared.pop();
        }
        let mut next = pop_to;
        if extend {
            let have = self.synced[keep].len();
            let mut new_decls = HashSet::new();
            for &id in &target[keep][have..] {
                let fact = arena.resolve(id);
                cmds.push_str(&render_assert(
                    tables,
                    &self.declared,
                    &mut new_decls,
                    &fact,
                ));
                self.synced[keep].push(id);
            }
            self.declared[keep].extend(new_decls);
            next = keep + 1;
        }
        for scope in &target[next..] {
            cmds.push_str("(push 1)\n");
            self.synced.push(Vec::with_capacity(scope.len()));
            self.declared.push(HashSet::new());
            let mut new_decls = HashSet::new();
            for &id in scope {
                let fact = arena.resolve(id);
                cmds.push_str(&render_assert(
                    tables,
                    &self.declared,
                    &mut new_decls,
                    &fact,
                ));
                self.synced.last_mut().unwrap().push(id);
            }
            self.declared.last_mut().unwrap().extend(new_decls);
        }
        if !cmds.is_empty() {
            self.send(&cmds)?;
        }
        Some(())
    }
}

impl Drop for SmtProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Consecutive spawn failures before the bridge rests instead of respawning
/// in a tight loop.
const SPAWN_FAILURE_THRESHOLD: u32 = 3;
/// First rest window after the failure threshold trips; doubles per
/// consecutive trip up to [`SPAWN_BACKOFF_CAP`].
const SPAWN_BACKOFF_INITIAL: Duration = Duration::from_millis(250);
/// Ceiling of the exponential backoff (~30 s).
const SPAWN_BACKOFF_CAP: Duration = Duration::from_secs(30);

/// Spawn bookkeeping shared by every process of one bridge. Repeated spawn
/// failures used to disable the bridge for the rest of the process; now
/// they put it to *rest*: spawning is suppressed until `resting_until`,
/// then one caller re-probes. Failed re-probes double the window (capped
/// around 30 s, with a small deterministic jitter so a fleet of workers
/// does not re-probe in lockstep); a successful re-probe restores normal
/// service and bumps `reenabled` — surfaced as the `smt_reenabled`
/// telemetry counter.
#[derive(Default)]
struct SpawnHealth {
    spawn_failures: u32,
    /// While `Some(t)` and `now < t`, the bridge is resting: no spawn is
    /// attempted and solves degrade to the kernel.
    resting_until: Option<Instant>,
    /// The rest window to use on the *next* threshold trip (`None` = the
    /// initial window).
    next_backoff: Option<Duration>,
    /// Times a successful spawn ended a rest regime.
    reenabled: u64,
    /// The bridge has rested since its last successful spawn (so the next
    /// success counts as a re-enable).
    was_resting: bool,
}

impl SpawnHealth {
    fn resting(&self) -> bool {
        self.resting_until.is_some_and(|t| Instant::now() < t)
    }

    fn note_success(&mut self) -> bool {
        self.spawn_failures = 0;
        self.resting_until = None;
        self.next_backoff = None;
        let recovered = self.was_resting;
        if recovered {
            self.reenabled += 1;
            self.was_resting = false;
        }
        recovered
    }

    /// Records a failed spawn; returns the rest window just entered, if the
    /// failure tripped the threshold.
    fn note_failure(&mut self) -> Option<Duration> {
        self.spawn_failures += 1;
        if self.spawn_failures < SPAWN_FAILURE_THRESHOLD {
            return None;
        }
        self.spawn_failures = 0;
        let backoff = self.next_backoff.unwrap_or(SPAWN_BACKOFF_INITIAL);
        self.next_backoff = Some((backoff * 2).min(SPAWN_BACKOFF_CAP));
        // Deterministic jitter (up to ~25% of the window), derived from the
        // process id so a fleet of runners sharing one broken solver does
        // not re-probe in lockstep — while any single process stays exactly
        // reproducible.
        let jitter_ms = (backoff.as_millis() as u64 * (std::process::id() as u64 % 32)) / 128;
        let window = backoff + Duration::from_millis(jitter_ms);
        self.resting_until = Some(Instant::now() + window);
        self.was_resting = true;
        Some(window)
    }
}

/// The shared SMT bridge of one [`crate::Solver`] hub. Cheap to clone via
/// `Arc`.
///
/// In **per-worker** mode (the default) each solve checks a process out of
/// an idle pool — or spawns a fresh one seeded with the shared prelude —
/// so concurrent branch workers never serialise on a hub mutex; the naming
/// tables (constructor tags, opaque constants) stay shared and are locked
/// only for the microseconds of rendering, keeping names stable across
/// every process. Idle processes are checked out by longest shared scope
/// prefix, so a worker usually gets a process already synced to most of its
/// branch. In **single** mode (`GILLIAN_SMT_SINGLE=1`, or
/// `SmtOptions::per_worker = false`) the pre-pool behaviour is kept: one
/// process behind a mutex held for the whole solve.
pub struct SmtShared {
    cmd: Option<SmtCommand>,
    timeout: Duration,
    per_worker: bool,
    /// Naming tables shared by every process (stable across respawns).
    tables: Mutex<RenderTables>,
    health: Mutex<SpawnHealth>,
    /// Idle processes (per-worker mode).
    idle: Mutex<Vec<SmtProcess>>,
    /// The one shared process (single mode); the mutex serialises solves.
    single: Mutex<Option<SmtProcess>>,
    /// Total processes spawned over the bridge's lifetime (telemetry/tests).
    spawned: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SmtShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SmtShared({})",
            self.cmd
                .as_ref()
                .map(|c| c.source.as_str())
                .unwrap_or("unavailable")
        )
    }
}

impl SmtShared {
    /// Builds the bridge from options: an explicit command wins, otherwise
    /// the environment is probed. When nothing is found the bridge is
    /// permanently unavailable (the backend degrades to the kernel) and a
    /// notice is printed once per process.
    pub fn new(opts: &SmtOptions) -> SmtShared {
        // The feature gate governs EVERY spawn path, explicit commands
        // included: with `smtlib` off this crate never launches a process.
        let cmd = if !cfg!(feature = "smtlib") {
            None
        } else {
            match &opts.command {
                Some(argv) if !argv.is_empty() => Some(SmtCommand {
                    argv: argv.clone(),
                    source: "explicit".to_owned(),
                }),
                Some(_) => None,
                None => probe(),
            }
        };
        if cmd.is_none() {
            static NOTICE: OnceLock<()> = OnceLock::new();
            NOTICE.get_or_init(|| {
                if cfg!(feature = "smtlib") {
                    eprintln!(
                        "gillian-solver: smtlib backend requested but no external solver found \
                         (set GILLIAN_SMT or install z3/cvc5); using the in-repo kernel only"
                    );
                } else {
                    eprintln!(
                        "gillian-solver: smtlib backend requested but the `smtlib` cargo \
                         feature is disabled; using the in-repo kernel only"
                    );
                }
            });
        }
        SmtShared {
            cmd,
            timeout: opts.timeout,
            per_worker: opts.per_worker,
            tables: Mutex::new(RenderTables::default()),
            health: Mutex::new(SpawnHealth::default()),
            idle: Mutex::new(Vec::new()),
            single: Mutex::new(None),
            spawned: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A bridge that never spawns anything (kernel-only fallback).
    pub fn unavailable() -> SmtShared {
        SmtShared {
            cmd: None,
            timeout: Duration::from_millis(DEFAULT_TIMEOUT_MS),
            per_worker: true,
            tables: Mutex::new(RenderTables::default()),
            health: Mutex::new(SpawnHealth::default()),
            idle: Mutex::new(Vec::new()),
            single: Mutex::new(None),
            spawned: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Is an external process configured and not resting after repeated
    /// spawn failures? (A resting bridge becomes available again once its
    /// backoff window expires and a re-probe succeeds.)
    pub fn is_available(&self) -> bool {
        self.cmd.is_some() && !self.health.lock().unwrap().resting()
    }

    /// Times the bridge recovered from a spawn-failure rest window (the
    /// `smt_reenabled` telemetry counter).
    pub fn reenabled_count(&self) -> u64 {
        self.health.lock().unwrap().reenabled
    }

    /// The provenance of the configured solver, for reports and notices.
    pub fn source(&self) -> Option<String> {
        self.cmd.as_ref().map(|c| c.source.clone())
    }

    /// Total external processes spawned so far (telemetry/tests).
    pub fn processes_spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Is this bridge running one process per worker (vs the single shared
    /// process fallback)?
    pub fn per_worker(&self) -> bool {
        self.per_worker
    }

    /// Runs one `(check-sat)` for the given scoped assertion stack,
    /// re-syncing a process as needed. Never blocks longer than the time
    /// box (plus scheduling noise): on deadline the process is killed and
    /// the answer is [`SmtAnswer::Timeout`].
    ///
    /// Per-worker mode checks a process out of the idle pool (or spawns
    /// one), so concurrent callers each drive their own process; single
    /// mode serialises callers on the shared process's mutex.
    fn check(&self, arena: &TermArena, scopes: &[Vec<TermId>]) -> SmtAnswer {
        if self.cmd.is_none() {
            return SmtAnswer::Died;
        }
        if self.per_worker {
            let Some(mut proc) = self.checkout(scopes) else {
                return SmtAnswer::Died;
            };
            let answer = self.drive(&mut proc, arena, scopes);
            if !matches!(answer, SmtAnswer::Timeout | SmtAnswer::Died) {
                self.idle.lock().unwrap().push(proc);
            }
            // A timed-out/dead process was already killed; dropping it here
            // reaps it, and the next query spawns a replacement.
            answer
        } else {
            let mut slot = self.single.lock().unwrap();
            if slot.is_none() {
                *slot = self.spawn_one();
            }
            let Some(proc) = slot.as_mut() else {
                return SmtAnswer::Died;
            };
            let answer = self.drive(proc, arena, scopes);
            if matches!(answer, SmtAnswer::Timeout | SmtAnswer::Died) {
                *slot = None;
            }
            answer
        }
    }

    /// Takes an idle process — preferring the one whose mirrored stack
    /// shares the longest scope prefix with the target, to minimise the
    /// re-sync — or spawns a fresh one.
    fn checkout(&self, target: &[Vec<TermId>]) -> Option<SmtProcess> {
        {
            let mut idle = self.idle.lock().unwrap();
            if !idle.is_empty() {
                let mut best = 0usize;
                let mut best_score = 0usize;
                for (i, p) in idle.iter().enumerate() {
                    let mut s = 0;
                    while s < p.synced.len() && s < target.len() && p.synced[s] == target[s] {
                        s += 1;
                    }
                    if s > best_score {
                        best_score = s;
                        best = i;
                    }
                }
                return Some(idle.swap_remove(best));
            }
        }
        self.spawn_one()
    }

    /// Spawns one process (prelude included), with the shared failure
    /// bookkeeping: a few consecutive failures put the bridge to rest with
    /// exponential backoff; a successful spawn after a rest restores
    /// service (see [`SpawnHealth`]).
    fn spawn_one(&self) -> Option<SmtProcess> {
        let cmd = self.cmd.as_ref()?;
        let mut health = self.health.lock().unwrap();
        if health.resting() {
            return None;
        }
        let spawned = if gillian_faults::hit("smt.spawn").is_some() {
            None
        } else {
            SmtProcess::spawn(cmd, self.timeout)
        };
        match spawned {
            Some(p) => {
                if health.note_success() {
                    eprintln!(
                        "gillian-solver: smtlib bridge re-enabled, {:?} spawns again",
                        cmd.argv
                    );
                }
                self.spawned.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                if let Some(window) = health.note_failure() {
                    eprintln!(
                        "gillian-solver: smtlib bridge resting for {window:?} after repeated \
                         failed spawns of {:?} (will re-probe)",
                        cmd.argv
                    );
                }
                None
            }
        }
    }

    /// Syncs, asks, and awaits one answer with a hard deadline (the
    /// solver's own soft limit plus a little grace). The shared naming
    /// tables are locked only while rendering the sync commands.
    fn drive(&self, proc: &mut SmtProcess, arena: &TermArena, scopes: &[Vec<TermId>]) -> SmtAnswer {
        {
            let mut tables = self.tables.lock().unwrap();
            if proc.sync(&mut tables, scopes, arena).is_none() {
                proc.kill();
                return SmtAnswer::Died;
            }
        }
        if proc.send("(check-sat)\n").is_none() {
            proc.kill();
            return SmtAnswer::Died;
        }
        let deadline = Instant::now() + self.timeout + Duration::from_millis(250);
        loop {
            let now = Instant::now();
            if now >= deadline {
                proc.kill();
                return SmtAnswer::Timeout;
            }
            match proc.from_solver.recv_timeout(deadline - now) {
                // An injected read fault mangles the reply: unparsable
                // output means the process state can no longer be trusted,
                // identical to the `(error …)` path below.
                Ok(_) if gillian_faults::hit("smt.read").is_some() => {
                    proc.kill();
                    return SmtAnswer::Died;
                }
                Ok(line) => match line.trim() {
                    "" => continue,
                    "unsat" => return SmtAnswer::Unsat,
                    "sat" => return SmtAnswer::Sat,
                    "unknown" => return SmtAnswer::Unknown,
                    // `(error …)` or anything unexpected: the process
                    // state can no longer be trusted.
                    _ => {
                        proc.kill();
                        return SmtAnswer::Died;
                    }
                },
                Err(RecvTimeoutError::Timeout) => {
                    proc.kill();
                    return SmtAnswer::Timeout;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    proc.kill();
                    return SmtAnswer::Died;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

/// The hybrid SMT-LIB backend: the in-repo kernel first (exact for the
/// fragment the case studies need, and always available), the external
/// process for whatever the kernel cannot refute. See the module docs for
/// the soundness argument and the timeout/abandonment contract.
pub struct SmtBackend {
    kernel: IncrementalStateBackend,
    shared: Arc<SmtShared>,
    stats: Arc<AtomicSolverStats>,
    /// Simplified ids in assertion order (the process mirrors these).
    raw: Vec<TermId>,
    scopes: Vec<usize>,
    last_complete: bool,
}

impl std::fmt::Debug for SmtBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SmtBackend({:?})", self.shared)
    }
}

impl SmtBackend {
    pub(crate) fn new(
        stats: Arc<AtomicSolverStats>,
        case_budget: usize,
        shared: Arc<SmtShared>,
    ) -> SmtBackend {
        SmtBackend {
            kernel: IncrementalStateBackend::new(Arc::clone(&stats), case_budget),
            shared,
            stats,
            raw: Vec::new(),
            scopes: Vec::new(),
            last_complete: true,
        }
    }

    /// The assertion stack partitioned into branch scopes (outermost first;
    /// the implicit base scope is index 0).
    fn scope_view(&self) -> Vec<Vec<TermId>> {
        let mut out = Vec::with_capacity(self.scopes.len() + 1);
        let mut prev = 0;
        for &mark in &self.scopes {
            out.push(self.raw[prev..mark].to_vec());
            prev = mark;
        }
        out.push(self.raw[prev..].to_vec());
        out
    }
}

impl SolverBackend for SmtBackend {
    fn name(&self) -> &'static str {
        crate::backend::BackendKind::SmtLib.label()
    }

    fn push(&mut self) {
        self.scopes.push(self.raw.len());
        self.kernel.push();
    }

    fn pop(&mut self) {
        if let Some(mark) = self.scopes.pop() {
            self.raw.truncate(mark);
        }
        self.kernel.pop();
    }

    fn assert(&mut self, arena: &TermArena, fact: TermId) {
        self.raw.push(arena.simplify(fact));
        self.kernel.assert(arena, fact);
    }

    fn check_unsat(&mut self, arena: &TermArena) -> bool {
        if self.kernel.check_unsat(arena) {
            self.last_complete = true;
            return true;
        }
        let kernel_complete = self.kernel.last_query_complete();
        if !self.shared.is_available() {
            self.last_complete = kernel_complete;
            return false;
        }
        self.stats.smt_queries.fetch_add(1, Ordering::Relaxed);
        match self.shared.check(arena, &self.scope_view()) {
            SmtAnswer::Unsat => {
                self.stats.smt_unsat.fetch_add(1, Ordering::Relaxed);
                self.last_complete = true;
                true
            }
            SmtAnswer::Sat => {
                // A definitive model of the abstraction: as final as the
                // kernel's own exploration, so the kernel's completeness
                // decides cacheability.
                self.last_complete = kernel_complete;
                false
            }
            SmtAnswer::Unknown => {
                // The solver gave up within its limits; a retry (possibly
                // by a parked waiter) may do better, so never cache this.
                self.last_complete = false;
                false
            }
            SmtAnswer::Timeout | SmtAnswer::Died => {
                // The time box fired or the process died: report the query
                // incomplete so the caching decorator ABANDONS its
                // in-flight entry — parked workers must recompute, not
                // hang on a solve that will never settle.
                self.stats.smt_failures.fetch_add(1, Ordering::Relaxed);
                self.last_complete = false;
                false
            }
        }
    }

    fn entails(&mut self, arena: &TermArena, goal: TermId) -> bool {
        entails_by_decomposition(self, arena, goal)
    }

    /// The kernel half's closure: no process round trip.
    fn congruent(&mut self, arena: &TermArena, a: TermId, b: TermId) -> bool {
        self.kernel.congruent(arena, a, b)
    }

    fn last_query_complete(&self) -> bool {
        self.last_complete
    }

    fn assertions(&self) -> &[TermId] {
        self.kernel.assertions()
    }

    fn boxed_clone(&self) -> Box<dyn SolverBackend> {
        Box::new(SmtBackend {
            kernel: self.kernel.clone(),
            shared: Arc::clone(&self.shared),
            stats: Arc::clone(&self.stats),
            raw: self.raw.clone(),
            scopes: self.scopes.clone(),
            last_complete: self.last_complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    fn render_one(e: &Expr) -> String {
        let mut tables = RenderTables::default();
        let mut r = Render::new(&mut tables);
        r.boolean(e)
    }

    fn balanced(s: &str) -> bool {
        let mut depth = 0i64;
        for c in s.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0
    }

    #[test]
    fn prelude_is_balanced() {
        assert!(balanced(PRELUDE));
    }

    #[test]
    fn rendering_is_balanced_and_stable() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let xs = g.fresh_expr();
        let cases = vec![
            Expr::eq(x.clone(), Expr::Int(-7)),
            Expr::lt(
                Expr::add(x.clone(), Expr::Int(1)),
                Expr::seq_len(xs.clone()),
            ),
            Expr::eq(
                Expr::seq_prepend(x.clone(), xs.clone()),
                Expr::seq_concat(xs.clone(), Expr::seq(vec![x.clone()])),
            ),
            Expr::eq(Expr::some(x.clone()), Expr::none()),
            Expr::implies(
                Expr::eq(Expr::lvar("a"), Expr::tuple(vec![x.clone(), Expr::Unit])),
                Expr::ne(Expr::Loc(3), Expr::lvar("b")),
            ),
            Expr::eq(Expr::app("size_of", vec![x.clone()]), Expr::Int(8)),
            // Outside the fragment: abstracted, still renders.
            Expr::eq(Expr::bag_of(xs.clone()), Expr::bag_of(x.clone())),
            Expr::lt(Expr::seq_at(xs.clone(), Expr::Int(0)), Expr::Int(10)),
        ];
        for e in &cases {
            let out = render_one(e);
            assert!(balanced(&out), "unbalanced render of {e}: {out}");
            assert!(!out.is_empty());
            // Deterministic: rendering twice through fresh tables agrees.
            assert_eq!(out, render_one(e), "unstable render of {e}");
        }
    }

    #[test]
    fn same_opaque_subterm_shares_a_constant() {
        let mut g = VarGen::new();
        let xs = g.fresh_expr();
        let bag = Expr::bag_of(xs.clone());
        let mut tables = RenderTables::default();
        let mut r = Render::new(&mut tables);
        let a = r.val(&bag);
        let b = r.val(&bag);
        assert_eq!(a, b, "the same unsupported term must share its constant");
        assert!(a.starts_with("|opq"));
    }

    #[test]
    fn declarations_are_emitted_once_per_scope_stack() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let fact = Expr::lt(x.clone(), Expr::Int(3));
        let mut tables = RenderTables::default();
        let mut new_decls = HashSet::new();
        let first = render_assert(&mut tables, &[], &mut new_decls, &fact);
        assert!(first.contains("declare-fun"));
        let live: Vec<HashSet<String>> = vec![new_decls];
        let mut more = HashSet::new();
        let second = render_assert(&mut tables, &live, &mut more, &fact);
        assert!(
            !second.contains("declare-fun"),
            "already-declared constants must not be re-declared: {second}"
        );
    }

    #[test]
    fn probe_respects_gillian_smt_off() {
        // `probe` reads the environment; this test only checks the
        // explicit-command path of SmtShared, which must not probe at all.
        let shared = SmtShared::new(&SmtOptions {
            command: Some(vec![]),
            timeout: Duration::from_millis(100),
            per_worker: true,
        });
        assert!(!shared.is_available());
    }

    #[test]
    fn fallback_without_solver_matches_kernel() {
        let stats = Arc::new(AtomicSolverStats::default());
        let shared = Arc::new(SmtShared::unavailable());
        let arena = TermArena::new();
        let mut b = SmtBackend::new(Arc::clone(&stats), 512, shared);
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let f1 = arena.intern(&Expr::eq(x.clone(), Expr::Int(1)));
        let f2 = arena.intern(&Expr::eq(x, Expr::Int(2)));
        b.assert(&arena, f1);
        assert!(!b.check_unsat(&arena));
        assert!(b.last_query_complete());
        b.push();
        b.assert(&arena, f2);
        assert!(b.check_unsat(&arena));
        b.pop();
        assert!(!b.check_unsat(&arena));
        // No process: the smt counters stay untouched.
        assert_eq!(stats.snapshot().smt_queries, 0);
    }

    #[test]
    fn scope_view_partitions_the_stack() {
        let stats = Arc::new(AtomicSolverStats::default());
        let arena = TermArena::new();
        let mut b = SmtBackend::new(stats, 512, Arc::new(SmtShared::unavailable()));
        let mut g = VarGen::new();
        let ids: Vec<TermId> = (0..4)
            .map(|i| arena.intern(&Expr::eq(g.fresh_expr(), Expr::Int(i))))
            .collect();
        b.assert(&arena, ids[0]);
        b.push();
        b.assert(&arena, ids[1]);
        b.assert(&arena, ids[2]);
        b.push();
        b.assert(&arena, ids[3]);
        let view = b.scope_view();
        assert_eq!(view.len(), 3);
        assert_eq!(view[0].len(), 1);
        assert_eq!(view[1].len(), 2);
        assert_eq!(view[2].len(), 1);
        b.pop();
        assert_eq!(b.scope_view().len(), 2);
    }

    /// Drives the full process plumbing against a stub "solver" (a shell
    /// script) that answers `unsat` to every check — proving the render,
    /// sync, question and answer-parse path works end to end without any
    /// real solver installed.
    #[test]
    #[cfg(unix)]
    fn stub_process_round_trip() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("gillian-smt-stub-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("always-unsat.sh");
        std::fs::write(
            &script,
            "#!/bin/sh\nwhile read line; do\n  case \"$line\" in\n    *check-sat*) echo unsat ;;\n  esac\ndone\n",
        )
        .unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

        let shared = Arc::new(SmtShared::new(&SmtOptions {
            command: Some(vec![script.to_string_lossy().into_owned()]),
            timeout: Duration::from_secs(5),
            per_worker: true,
        }));
        assert!(shared.is_available());
        let stats = Arc::new(AtomicSolverStats::default());
        let arena = TermArena::new();
        let mut b = SmtBackend::new(Arc::clone(&stats), 512, shared);
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        // Satisfiable facts the kernel cannot refute: the stub's canned
        // `unsat` must come back through the external path.
        let f = arena.intern(&Expr::le(x.clone(), x.clone()));
        b.assert(&arena, f);
        assert!(b.check_unsat(&arena), "the stub answers unsat");
        assert!(b.last_query_complete());
        let snap = stats.snapshot();
        assert_eq!(snap.smt_queries, 1);
        assert_eq!(snap.smt_unsat, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stub that never answers: the time box must fire, the verdict must
    /// fall back to the kernel's, and the query must be reported incomplete
    /// (so in-flight cache entries are abandoned, not published).
    #[test]
    #[cfg(unix)]
    fn hung_stub_times_out_and_reports_incomplete() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("gillian-smt-hung-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("hang.sh");
        std::fs::write(&script, "#!/bin/sh\nwhile read line; do :; done\n").unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

        let shared = Arc::new(SmtShared::new(&SmtOptions {
            command: Some(vec![script.to_string_lossy().into_owned()]),
            timeout: Duration::from_millis(200),
            per_worker: true,
        }));
        let stats = Arc::new(AtomicSolverStats::default());
        let arena = TermArena::new();
        let mut b = SmtBackend::new(Arc::clone(&stats), 512, shared);
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let f = arena.intern(&Expr::le(x.clone(), x));
        b.assert(&arena, f);
        let start = Instant::now();
        assert!(!b.check_unsat(&arena), "verdict falls back to the kernel");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the time box must fire promptly"
        );
        assert!(
            !b.last_query_complete(),
            "a timed-out solve must be incomplete so cache entries are abandoned"
        );
        assert_eq!(stats.snapshot().smt_failures, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Repeated spawn failures no longer disable the bridge for the process
    /// lifetime: it rests with backoff, re-probes after the window, and
    /// recovers (bumping the `smt_reenabled` telemetry) once the solver
    /// binary works again.
    #[test]
    #[cfg(unix)]
    fn spawn_failures_back_off_and_recover() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("gillian-smt-backoff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The configured command does not exist yet: every spawn fails.
        let script = dir.join("late-solver.sh");
        let shared = SmtShared::new(&SmtOptions {
            command: Some(vec![script.to_string_lossy().into_owned()]),
            timeout: Duration::from_millis(200),
            per_worker: true,
        });
        assert!(shared.is_available(), "configured bridges start available");
        for _ in 0..SPAWN_FAILURE_THRESHOLD {
            assert!(shared.spawn_one().is_none());
        }
        assert!(
            !shared.is_available(),
            "after {SPAWN_FAILURE_THRESHOLD} failed spawns the bridge rests"
        );
        assert!(
            shared.spawn_one().is_none(),
            "resting bridges refuse to spawn"
        );
        assert_eq!(shared.reenabled_count(), 0);

        // The solver binary appears; once the rest window (initial backoff
        // plus ≤25% jitter) expires, a re-probe succeeds and the bridge is
        // back in service.
        std::fs::write(
            &script,
            "#!/bin/sh\nwhile read line; do\n  case \"$line\" in\n    *check-sat*) echo unsat ;;\n  esac\ndone\n",
        )
        .unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::thread::sleep(SPAWN_BACKOFF_INITIAL + SPAWN_BACKOFF_INITIAL / 2);
        let proc = shared.spawn_one();
        assert!(proc.is_some(), "the re-probe succeeds");
        assert!(shared.is_available());
        assert_eq!(shared.reenabled_count(), 1, "the recovery is counted");
        drop(proc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
