//! # gillian-solver
//!
//! The pure first-order reasoning layer used by the Gillian engine and by
//! creusot-lite. It plays the role that an off-the-shelf SMT solver (Z3) plays
//! for the original Gillian platform and that Why3 plays for Creusot, scoped
//! to the theories the case studies of the paper need:
//!
//! * equality and uninterpreted functions (congruence closure),
//! * algebraic datatype constructors (injectivity + distinctness),
//! * linear integer arithmetic,
//! * sequences (length, concatenation, indexing, sub-sequences, update),
//! * multisets ("bags"), used to discharge `permutation_of` obligations.
//!
//! The public API is built around two pieces:
//!
//! * a hash-consing [`TermArena`]: expressions are interned once into
//!   copyable [`TermId`]s with memoised simplification and free-variable
//!   sets ([`arena`]);
//! * a pluggable [`SolverBackend`] ([`backend`]) with incremental
//!   `assert`/`push`/`pop` scopes, selected by [`BackendKind`] and driven
//!   through branch-scoped [`SolverCtx`] handles handed out by the shared
//!   [`Solver`] hub.
//!
//! [`StableHasher`] ([`hash`]) is the one hash function for anything that
//! must mean the same in every process: [`Expr::stable_hash_into`], the
//! proof cache's item fingerprints and the abstract interpreter's invariant
//! fingerprints all feed it.
//!
//! The solver is *sound for refutation*: `check_unsat` only answers `true`
//! when the facts are genuinely unsatisfiable, and `entails` only answers
//! `true` when the goal genuinely follows. Incompleteness can make
//! verification fail, never succeed wrongly.
//!
//! ```
//! use gillian_solver::{Expr, Solver, VarGen};
//!
//! let mut vars = VarGen::new();
//! let x = vars.fresh_expr();
//! let ctx = Solver::new().ctx();
//! ctx.assert_expr(&Expr::eq(x.clone(), Expr::Int(5)));
//! assert!(ctx.entails(&Expr::lt(Expr::Int(0), x)));
//! ```

pub mod arena;
pub mod backend;
pub mod bags;
pub mod congruence;
pub mod expr;
pub mod hash;
pub mod interp;
pub mod kernel;
pub mod linear;
pub mod simplify;
pub mod smtlib;
pub mod solver;
pub mod symbol;

pub use arena::{TermArena, TermId};
pub use backend::{
    entails_by_decomposition, BackendKind, IncrementalStateBackend, OneShotBackend, SolverBackend,
    SolverStats,
};
pub use expr::{BinOp, Expr, NOp, SVar, UnOp, VarGen};
pub use hash::StableHasher;
pub use interp::{eval, Env, Value};
pub use kernel::IncrementalState;
pub use simplify::simplify;
pub use smtlib::{SmtBackend, SmtCommand, SmtOptions};
pub use solver::{SatResult, Solver, SolverCtx};
pub use symbol::Symbol;
