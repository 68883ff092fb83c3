//! # creusot-lite
//!
//! The safe-Rust side of the hybrid pipeline (§6).
//!
//! Creusot itself is an external toolchain (rustc plugin + Why3 + SMT
//! solvers) that this reproduction cannot ship; what the paper actually
//! contributes at the boundary is (a) the Pearlite specification language of
//! safe clients and library APIs and (b) the *systematic encoding* of those
//! specifications into Gilsonite, so that internally-unsafe modules can be
//! specified once and verified by Gillian-Rust while safe clients reuse the
//! same specifications. This crate provides:
//!
//! * [`pearlite`] — a first-order Pearlite term language with the `@`
//!   (representation) and `^` (prophecy/final value) operators and the
//!   sequence/permutation vocabulary used by the paper's examples;
//! * [`elaborate`](mod@elaborate) — the §6 elaboration schema from Pearlite terms to the
//!   representation-variable convention of `gillian_rust::gilsonite`
//!   (`#x_cur`, `#x_fin`, `#x_repr`, `#ret_repr`);
//! * [`extern_specs`] — the registry of hybrid specifications (the
//!   `creusot_contracts`-style trusted API specs), shared between the two
//!   verifiers;
//! * [`parse`] — a parser for textual Pearlite clauses, used by the
//!   `gillian serve` daemon to accept `requires`/`ensures` strings over the
//!   wire.
//!
//! Safe client code is verified against those specifications only (never
//! against the unsafe bodies) by running the Gillian engine in spec-reuse
//! mode; see the `hybrid_merge` integration test and the
//! `merge_sort_hybrid` example. As recorded in EXPERIMENTS.md, loop
//! invariants are not supported, so the paper's loop-based clients are
//! represented by loop-free equivalents exercising the same specification
//! reuse.

pub mod elaborate;
pub mod extern_specs;
pub mod parse;
pub mod pearlite;

pub use elaborate::elaborate;
pub use extern_specs::ExternSpecs;
pub use parse::{parse_term, ParseError};
pub use pearlite::Term;
