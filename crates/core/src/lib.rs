//! # gillian-rust
//!
//! The paper's primary contribution: a semi-automated separation-logic
//! verifier for unsafe Rust built as an instantiation of the Gillian engine.
//!
//! The crate provides:
//!
//! * the symbolic Rust heap with structural and laid-out nodes and
//!   layout-independent addresses ([`heap`], [`types`], §3);
//! * the full Gillian-Rust state model σ = (h, ξ, γ, φ, χ): lifetime tokens,
//!   observations and parametric prophecies ([`state`], §4–5);
//! * the mini-MIR → GIL compiler ([`compile`]);
//! * the Gilsonite specification layer: the `Ownable` registry, the
//!   `#[show_safety]` / `#[specification]` spec schemas and the borrow /
//!   extraction / freezing machinery ([`gilsonite`], §4.2–4.3, App. A/B);
//! * the semi-automatic tactics `mutref_auto_resolve` and
//!   `prophecy_auto_update` ([`tactics`], §5.3);
//! * a top-level verification driver ([`verifier`]) producing the
//!   per-function reports used to regenerate Table 1.

// A copied configuration is the engine's largest avoidable cost; this lint
// catches a clone whose value is never used again.
#![warn(clippy::redundant_clone)]

pub mod compile;
pub mod gilsonite;
pub mod heap;
pub mod state;
pub mod tactics;
pub mod types;
pub mod verifier;

pub use gilsonite::{GilsoniteCtx, Ownable, SpecMode};
pub use state::GRState;
pub use types::{Address, ProjElem, TyId, TypeRegistry, Types};
pub use verifier::{CaseReport, Verifier, VerifierOptions, VerifyDiagnostic};
