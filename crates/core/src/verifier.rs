//! The top-level verification driver.
//!
//! Builds a Gillian engine from a mini-MIR program plus a Gilsonite context
//! (predicates, specifications, lemmas), registers the semi-automatic
//! tactics, and runs per-function verification producing the timing reports
//! from which Table 1 is regenerated.

use crate::compile::{CompileError, Compiler};
use crate::gilsonite::{GilsoniteCtx, SpecMode};
use crate::state::GRState;
use crate::tactics;
use crate::types::Types;
use gillian_engine::{Engine, EngineOptions, EngineStats, VerError, VerErrorKind};
use gillian_solver::{BackendKind, Expr, SolverStats};
use std::time::Duration;

/// Options for building a [`Verifier`].
#[derive(Clone, Debug)]
pub struct VerifierOptions {
    /// Verified property (TS or FC).
    pub mode: SpecMode,
    /// Engine tuning; [`EngineOptions::baseline`] disables the paper's
    /// automations and is used as the comparison baseline in the benches.
    pub engine: EngineOptions,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            mode: SpecMode::FunctionalCorrectness,
            engine: EngineOptions::default(),
        }
    }
}

impl VerifierOptions {
    pub fn type_safety() -> Self {
        VerifierOptions {
            mode: SpecMode::TypeSafety,
            engine: EngineOptions {
                panics_are_safe: true,
                ..EngineOptions::default()
            },
        }
    }

    pub fn functional_correctness() -> Self {
        VerifierOptions::default()
    }

    pub fn baseline(mut self) -> Self {
        self.engine = EngineOptions::baseline();
        self
    }
}

/// A structured verification diagnostic: what went wrong, in a form callers
/// can match on without parsing messages. Replaces the stringly-typed
/// `error: Option<String>` that reports used to carry.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyDiagnostic {
    /// The body does not satisfy its specification on some path.
    SpecMismatch { message: String },
    /// A resource was missing during consumption; `hints` are the expressions
    /// whose resource could not be found.
    ConsumeFailure { message: String, hints: Vec<Expr> },
    /// The mini-MIR program failed to compile to GIL.
    CompileError { message: String },
    /// A search budget (steps, inlining depth, recovery) was exhausted.
    Timeout { message: String },
    /// The verification target has no registered specification or proof.
    MissingSpec { message: String },
    /// Any other engine-level failure (reachable panic, unknown predicate…).
    Engine { message: String },
    /// A static-analysis (lint) error blocked verification before any proof
    /// search started.
    Lint { message: String },
    /// The verification *process* panicked mid-proof (an engine bug or an
    /// injected fault, not a property of the program). The target is
    /// reported as unverified-with-cause so the rest of the batch — or the
    /// resident daemon — keeps going; the verdict is explicitly incomplete,
    /// never flipped.
    Panic { message: String },
}

impl VerifyDiagnostic {
    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            VerifyDiagnostic::SpecMismatch { message }
            | VerifyDiagnostic::ConsumeFailure { message, .. }
            | VerifyDiagnostic::CompileError { message }
            | VerifyDiagnostic::Timeout { message }
            | VerifyDiagnostic::MissingSpec { message }
            | VerifyDiagnostic::Engine { message }
            | VerifyDiagnostic::Lint { message }
            | VerifyDiagnostic::Panic { message } => message,
        }
    }

    /// The expression hints attached to the diagnostic (the resources a
    /// failed consumption was looking for); empty for other categories.
    pub fn hints(&self) -> &[Expr] {
        match self {
            VerifyDiagnostic::ConsumeFailure { hints, .. } => hints,
            _ => &[],
        }
    }

    /// A stable machine-readable category label.
    pub fn category(&self) -> &'static str {
        match self {
            VerifyDiagnostic::SpecMismatch { .. } => "spec-mismatch",
            VerifyDiagnostic::ConsumeFailure { .. } => "consume-failure",
            VerifyDiagnostic::CompileError { .. } => "compile-error",
            VerifyDiagnostic::Timeout { .. } => "timeout",
            VerifyDiagnostic::MissingSpec { .. } => "missing-spec",
            VerifyDiagnostic::Engine { .. } => "engine",
            VerifyDiagnostic::Lint { .. } => "lint",
            VerifyDiagnostic::Panic { .. } => "panic",
        }
    }

    /// A stable fingerprint of the diagnostic: its category plus the message
    /// with freshened logical-variable suffixes (`name%42`) normalised away,
    /// so that two runs of the same obligation — e.g. with different worker
    /// counts — compare equal.
    pub fn fingerprint(&self) -> String {
        let mut msg = String::with_capacity(self.message().len());
        let mut chars = self.message().chars().peekable();
        while let Some(c) = chars.next() {
            if c == '%' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                    chars.next();
                }
                msg.push_str("%_");
            } else {
                msg.push(c);
            }
        }
        format!("{}: {msg}", self.category())
    }

    /// Builds a [`VerifyDiagnostic::Panic`] from a `catch_unwind` payload
    /// (the driver and the daemon both isolate per-target panics and report
    /// them through this constructor).
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> VerifyDiagnostic {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        VerifyDiagnostic::Panic {
            message: format!("verification panicked mid-proof: {message}"),
        }
    }
}

impl std::fmt::Display for VerifyDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.category(), self.message())
    }
}

impl From<VerError> for VerifyDiagnostic {
    fn from(e: VerError) -> Self {
        match e.kind {
            VerErrorKind::SpecMismatch => VerifyDiagnostic::SpecMismatch { message: e.msg },
            VerErrorKind::ConsumeFailure => VerifyDiagnostic::ConsumeFailure {
                message: e.msg,
                hints: e.hint,
            },
            VerErrorKind::Timeout => VerifyDiagnostic::Timeout { message: e.msg },
            VerErrorKind::MissingSpec => VerifyDiagnostic::MissingSpec { message: e.msg },
            VerErrorKind::Engine => VerifyDiagnostic::Engine { message: e.msg },
        }
    }
}

impl From<CompileError> for VerifyDiagnostic {
    fn from(e: CompileError) -> Self {
        VerifyDiagnostic::CompileError {
            message: e.to_string(),
        }
    }
}

/// The result of verifying one function or lemma.
#[derive(Clone, Debug)]
pub struct CaseReport {
    pub name: String,
    pub verified: bool,
    pub elapsed: Duration,
    /// Structured failure diagnostic (`None` when verified).
    pub diagnostic: Option<VerifyDiagnostic>,
}

impl CaseReport {
    /// The diagnostic message, if any (convenience for display code).
    pub fn error_message(&self) -> Option<String> {
        self.diagnostic.as_ref().map(|d| d.to_string())
    }

    /// Panics with the diagnostic if verification failed (used in tests).
    pub fn expect_verified(&self) -> &Self {
        assert!(
            self.verified,
            "verification of {} failed: {}",
            self.name,
            self.error_message()
                .unwrap_or_else(|| "unknown error".into())
        );
        self
    }
}

/// The Gillian-Rust verifier for one program.
pub struct Verifier {
    pub engine: Engine<GRState>,
    pub types: Types,
    pub mode: SpecMode,
}

impl Verifier {
    /// Builds a verifier: compiles every function of the program registered
    /// in the type registry and installs the Gilsonite predicates, specs and
    /// lemmas.
    pub fn new(
        types: Types,
        gilsonite: GilsoniteCtx,
        opts: VerifierOptions,
    ) -> Result<Verifier, CompileError> {
        let mut prog = gilsonite.prog;
        {
            let mut compiler = Compiler::new(&types);
            let functions: Vec<_> = types.program.functions().cloned().collect();
            for f in &functions {
                if f.body.is_some() {
                    prog.add_proc(compiler.compile_fn(f)?);
                }
            }
        }
        let mut engine = Engine::with_options(prog, opts.engine);
        engine.register_tactic(
            crate::compile::GHOST_MUTREF_AUTO_RESOLVE,
            tactics::mutref_auto_resolve,
        );
        engine.register_tactic(
            crate::compile::GHOST_PROPHECY_AUTO_UPDATE,
            tactics::prophecy_auto_update,
        );
        Ok(Verifier {
            engine,
            types,
            mode: opts.mode,
        })
    }

    fn initial_state(&self) -> GRState {
        GRState::with_types(self.types.clone())
    }

    /// Verifies one function against its registered specification.
    pub fn verify_fn(&self, name: &str) -> CaseReport {
        let report = self.engine.verify_proc_from(name, self.initial_state());
        CaseReport {
            name: name.to_owned(),
            verified: report.verified,
            elapsed: report.elapsed,
            diagnostic: report.error.map(VerifyDiagnostic::from),
        }
    }

    /// Verifies a lemma from its proof script.
    pub fn verify_lemma(&self, name: &str) -> CaseReport {
        let report = self.engine.verify_lemma_from(name, self.initial_state());
        CaseReport {
            name: name.to_owned(),
            verified: report.verified,
            elapsed: report.elapsed,
            diagnostic: report.error.map(VerifyDiagnostic::from),
        }
    }

    /// Verifies several functions, returning one report per function.
    pub fn verify_all(&self, names: &[&str]) -> Vec<CaseReport> {
        names.iter().map(|n| self.verify_fn(n)).collect()
    }

    /// Total verification time of a batch (the "Time" column of Table 1).
    pub fn total_time(reports: &[CaseReport]) -> Duration {
        reports.iter().map(|r| r.elapsed).sum()
    }

    /// Engine statistics (the session reports carry per-run deltas).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Solver statistics (per-backend query and work counts).
    pub fn solver_stats(&self) -> SolverStats {
        self.engine.solver.stats()
    }

    /// The solver backend answering this verifier's pure queries.
    pub fn backend_kind(&self) -> BackendKind {
        self.engine.solver.backend_kind()
    }

    /// Re-runs the verifier on another solver backend: fresh arena and
    /// statistics, same compiled program and specifications. Used by the
    /// solver ablation harness.
    pub fn set_backend(&mut self, kind: BackendKind) {
        self.engine.set_backend(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilsonite::lv;
    use crate::types::TypeRegistry;
    use gillian_solver::Expr;
    use rust_ir::{builder::BodyBuilder, BinOp, LayoutOracle, Operand, Place, Program, Ty};

    /// A tiny end-to-end check: a function that adds 1 to a `usize` behind a
    /// `&mut usize`, specified with prophecies, verifies with a single
    /// `mutref_auto_resolve` annotation.
    #[test]
    fn increment_through_mut_ref_verifies() {
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
            crate::compile::GHOST_MUTREF_AUTO_RESOLVE,
            vec![],
            vec![Operand::local("x")],
            Place::local("_ret"),
            cont,
        );
        b.switch_to(cont);
        b.ret_val(Operand::unit());
        let f = b.finish();
        program.add_fn(f.clone());

        let types = TypeRegistry::new(program, LayoutOracle::default());
        let mut gils = GilsoniteCtx::new(types.clone(), SpecMode::FunctionalCorrectness);
        let spec = gils.fn_spec(
            &f,
            vec![Expr::lt(lv("x_cur"), Expr::Int(1000))],
            vec![Expr::eq(lv("x_fin"), Expr::add(lv("x_cur"), Expr::Int(1)))],
        );
        gils.add_spec(spec);
        let verifier = Verifier::new(types, gils, VerifierOptions::default()).unwrap();
        verifier.verify_fn("inc").expect_verified();
    }

    /// The same function fails to verify if the postcondition is wrong —
    /// guarding against a vacuously-passing pipeline.
    #[test]
    fn wrong_postcondition_is_rejected() {
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
            crate::compile::GHOST_MUTREF_AUTO_RESOLVE,
            vec![],
            vec![Operand::local("x")],
            Place::local("_ret"),
            cont,
        );
        b.switch_to(cont);
        b.ret_val(Operand::unit());
        let f = b.finish();
        program.add_fn(f.clone());

        let types = TypeRegistry::new(program, LayoutOracle::default());
        let mut gils = GilsoniteCtx::new(types.clone(), SpecMode::FunctionalCorrectness);
        let spec = gils.fn_spec(
            &f,
            vec![Expr::lt(lv("x_cur"), Expr::Int(1000))],
            vec![Expr::eq(lv("x_fin"), Expr::add(lv("x_cur"), Expr::Int(2)))],
        );
        gils.add_spec(spec);
        let verifier = Verifier::new(types, gils, VerifierOptions::default()).unwrap();
        let report = verifier.verify_fn("inc");
        assert!(!report.verified);
    }
}

#[cfg(test)]
mod sync_assertions {
    use super::*;
    fn _assert_sync<T: Sync + Send>() {}
    #[test]
    fn verifier_is_sync() {
        _assert_sync::<Verifier>();
    }
}
