//! # gillian-server
//!
//! `gillian serve` — a persistent verification daemon with
//! dependency-tracked incremental re-verification.
//!
//! A batch run pays the whole pipeline — program compilation, spec
//! elaboration, engine construction, every proof — on every invocation. The
//! daemon keeps the expensive immutable state alive between requests (the
//! hash-consing term arena, the compiled GIL program, the elaborated
//! specification context) and, crucially, *remembers which items each proof
//! read*: the engine's `Prog` lookups are recorded per verification target
//! and fingerprinted with the proof cache's stable, name-based
//! fingerprints, so an `update_spec` request dirties only the
//! reverse-dependency cone of the edited item and the next `verify` answers
//! all other targets from the retained outcome cache.
//!
//! The wire protocol is newline-delimited JSON over stdin/stdout (or a Unix
//! socket behind `--socket`); see [`protocol`] for request shapes and
//! [`server`] for the response fields.

pub mod db;
pub mod depgraph;
pub mod json;
pub mod protocol;
pub mod server;

pub use db::{chain_program, mode_label, parse_mode, workload, ProgramDb, Workload, WORKLOADS};
pub use depgraph::{DepKey, DepTracker};
pub use json::{parse, JsonError, Value};
pub use protocol::{parse_request, Envelope, Request};
pub use server::{
    serve_stdio, serve_stdio_shared, serve_stdio_with, serve_unix, DispatchError, ServerCore,
};
