//! # gillian-absint — abstract interpretation over GIL
//!
//! A flow-sensitive, intraprocedural value analysis over compiled GIL
//! procedure bodies. Each program variable is tracked in a reduced product
//! of abstract domains — integer intervals (with widening at loop heads and
//! bounded narrowing), constancy, boolean truth, and constructor shape
//! (which subsumes `Option` nullness) — iterated to fixpoint over the
//! shared [`gillian_engine::cfg::Cfg`].
//!
//! [`fixpoint`] computes, for one procedure, the abstract state holding on
//! entry to every command. Two consumers build on it:
//!
//! * **the linter** — [`semantic_findings`] derives the GL05x diagnostics
//!   (guaranteed overflow, division by zero, false asserts, constant
//!   guards, frozen loop guards) that `gillian-lint` maps to severities,
//!   straight from the fixpoint's states;
//! * **the surfaces** — [`analyze_prog`] collects every procedure's states
//!   into an [`InvariantTable`] with stable cross-process fingerprints;
//!   `gillian analyze` dumps the rendered invariants, and the daemon
//!   reports the table's fingerprint on `load` and `update_fn`.
//!
//! The symbolic-execution engine does not read the table: the solver's
//! path condition alone decides each symbolic branch.
//!
//! Soundness: the analysis assumes nothing at procedure entry and treats
//! actions and calls as returning `Top` (unless the driver's
//! `action_bounds` hook supplies machine-integer bounds that the memory
//! model itself enforces), so every state the engine can reach is inside
//! the invariant, and a guard the analysis decides is decided on every
//! concrete execution.

// Lint runs the fixpoint on every session build and daemon edit, so copying
// a state that is never used again is a cost every caller pays; this lint
// catches such a clone.
#![warn(clippy::redundant_clone)]

pub mod analyze;
pub mod domain;
pub mod findings;

pub use analyze::{
    abs_eval, analyze_proc, analyze_prog, fixpoint, refine, ActionBounds, AnalysisOptions,
    InvariantTable, ProcInvariants,
};
pub use domain::{AbsState, AbsVal, Interval};
pub use findings::{semantic_findings, Finding};
