//! # gillian-engine
//!
//! A reimplementation of the Gillian compositional symbolic-execution
//! platform (§2.3 of "A Hybrid Approach to Semi-automated Rust Verification"),
//! parametric on a *state model*: the symbolic memory of the target language
//! together with its actions and core predicates.
//!
//! The engine provides assertion production/consumption (matching), automatic
//! predicate folding, heuristic unfolding, guarded predicates (full borrows)
//! with automatic opening and closing, specification reuse at call sites,
//! lemma application and verification drivers — everything Gillian-Rust
//! (the `gillian-rust` crate) needs to verify unsafe Rust.
//!
//! ```
//! use gillian_engine::asrt::{Asrt, Spec};
//! use gillian_engine::engine::Engine;
//! use gillian_engine::gil::{Cmd, Proc, Prog};
//! use gillian_engine::state::EmptyState;
//! use gillian_solver::Expr;
//!
//! let mut prog = Prog::new();
//! prog.add_proc(Proc::new(
//!     "double",
//!     &["x"],
//!     vec![Cmd::Return(Expr::add(Expr::pvar("x"), Expr::pvar("x")))],
//! ));
//! prog.add_spec(Spec::new(
//!     "double",
//!     Asrt::pure(Expr::le(Expr::Int(0), Expr::pvar("x"))),
//!     Asrt::pure(Expr::le(Expr::Int(0), Expr::pvar("ret"))),
//! ));
//! let engine: Engine<EmptyState> = Engine::new(prog);
//! assert!(engine.verify_proc("double").verified);
//! ```

pub mod asrt;
pub mod cfg;
pub mod config;
pub mod engine;
pub mod gil;
pub mod schedule;
pub mod state;

pub use asrt::{Asrt, Lemma, Pred, Spec};
pub use cfg::Cfg;
pub use config::{Bindings, ClosingToken, Config, FoldedPred, GuardedPred};
pub use engine::{
    debug_enabled, BranchAdvice, Engine, EngineOptions, EngineStats, ProcReport, StaticOracle,
    TacticFn, VerError, VerErrorKind, LFT_TOKEN, RET_VAR,
};
pub use gil::{Cmd, DepKind, LogicCmd, Proc, Prog};
pub use schedule::{ForkPath, WorkItem, WorkQueue};
pub use state::{
    with_pure_ctx, ActionOk, ActionResult, ConsumeOk, ConsumeResult, EmptyState, ProduceOk,
    PureCtx, StateModel,
};
