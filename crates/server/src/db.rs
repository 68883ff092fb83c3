//! The daemon's program database: a loaded workload, its live
//! [`HybridSession`], and a side [`GilsoniteCtx`] used to re-elaborate
//! specifications on `update_spec` requests.
//!
//! The registry exposes the paper's Table 1 case studies plus a small
//! `chain` demo program (`base`/`inc`/`inc2`, where `inc2` is verified
//! against `inc`'s *specification*, not its body) whose call structure makes
//! the dependency cone of a spec edit easy to observe over the wire.

use creusot_lite::quote_clause;
use driver::HybridSession;
use gillian_rust::gilsonite::{lv, GilsoniteCtx, SpecMode};
use gillian_rust::types::Types;
use gillian_solver::Expr;
use rust_ir::{BinOp, BodyBuilder, Operand, Program, Ty};

/// One loadable verification workload.
pub struct Workload {
    /// Wire name (`{"cmd":"load","workload":...}`).
    pub name: &'static str,
    /// Session display name.
    pub session_name: &'static str,
    /// Builds the mini-MIR program.
    pub program: fn() -> Program,
    /// Registers ownership predicates and specifications.
    pub specs: fn(&Types, SpecMode) -> GilsoniteCtx,
    /// Verification targets, in registration order.
    pub functions: &'static [&'static str],
    /// Mode used when a `load` request does not name one.
    pub default_mode: SpecMode,
}

/// Every workload the daemon can serve.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "even_int",
        session_name: "EvenInt",
        program: case_studies::even_int::program,
        specs: case_studies::even_int::gilsonite,
        functions: case_studies::even_int::FUNCTIONS,
        default_mode: SpecMode::FunctionalCorrectness,
    },
    Workload {
        name: "linked_pair",
        session_name: "LP",
        program: case_studies::linked_pair::program,
        specs: case_studies::linked_pair::gilsonite,
        functions: case_studies::linked_pair::FUNCTIONS,
        default_mode: SpecMode::FunctionalCorrectness,
    },
    Workload {
        name: "linked_list",
        session_name: "LinkedList",
        program: case_studies::linked_list::program,
        specs: case_studies::linked_list::gilsonite,
        functions: case_studies::linked_list::FUNCTIONS,
        default_mode: SpecMode::FunctionalCorrectness,
    },
    Workload {
        name: "mini_vec",
        session_name: "MiniVec",
        program: case_studies::mini_vec::program,
        specs: case_studies::mini_vec::gilsonite,
        functions: case_studies::mini_vec::FUNCTIONS,
        default_mode: SpecMode::FunctionalCorrectness,
    },
    Workload {
        name: "chain",
        session_name: "Chain",
        program: chain_program,
        specs: chain_gilsonite,
        functions: &["base", "inc", "inc2"],
        default_mode: SpecMode::FunctionalCorrectness,
    },
];

/// Looks up a workload by wire name (with a couple of aliases).
pub fn workload(name: &str) -> Option<&'static Workload> {
    let canonical = match name {
        "lp" => "linked_pair",
        "ll" | "list" => "linked_list",
        "vec" => "mini_vec",
        other => other,
    };
    WORKLOADS.iter().find(|w| w.name == canonical)
}

/// Parses a wire mode string.
pub fn parse_mode(s: &str) -> Option<SpecMode> {
    match s {
        "ts" | "type-safety" | "type_safety" => Some(SpecMode::TypeSafety),
        "fc" | "functional-correctness" | "functional_correctness" => {
            Some(SpecMode::FunctionalCorrectness)
        }
        _ => None,
    }
}

/// Renders a mode for responses.
pub fn mode_label(mode: SpecMode) -> &'static str {
    match mode {
        SpecMode::TypeSafety => "ts",
        SpecMode::FunctionalCorrectness => "fc",
    }
}

/// A loaded workload: the immutable program side (interned terms, layouts,
/// elaborated specs) lives inside the session's verifier and is shared by
/// every subsequent request; `side_ctx` re-elaborates updated specs against
/// the same type registry.
pub struct ProgramDb {
    pub workload: &'static Workload,
    pub mode: SpecMode,
    pub session: HybridSession,
    pub side_ctx: GilsoniteCtx,
}

impl ProgramDb {
    /// Builds the session (and the side elaboration context) for a workload.
    /// The fourth parameter is ignored: it was the removed branch width, and
    /// stays only so that callers written against it still build.
    pub fn load(
        name: &str,
        mode: Option<SpecMode>,
        workers: Option<usize>,
        _branch_parallelism: Option<usize>,
    ) -> Result<ProgramDb, String> {
        let w = workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {} (known: {})",
                quote_clause(name),
                known.join(", ")
            )
        })?;
        let mode = mode.unwrap_or(w.default_mode);
        let mut builder = HybridSession::builder()
            .name(w.session_name)
            .program((w.program)())
            .mode(mode)
            .specs(w.specs)
            .verify_fns(w.functions.iter().copied());
        if let Some(n) = workers {
            builder = builder.workers(n);
        }
        let session = builder.build().map_err(|e| e.to_string())?;
        let side_ctx = (w.specs)(&session.verifier().types, mode);
        Ok(ProgramDb {
            workload: w,
            mode,
            session,
            side_ctx,
        })
    }
}

/// `base(x) = x`, `inc(x) = x + 1`, `inc2(x) = inc(inc(x))`.
///
/// `inc2` calls `inc` twice, and the engine resolves those calls through
/// `inc`'s registered specification — so editing `inc`'s spec must dirty
/// both `inc` (its own proof) and `inc2` (a spec-caller), while `base`
/// stays clean.
pub fn chain_program() -> Program {
    let mut p = Program::new("chain");

    let mut b = BodyBuilder::new("base", vec![("x", Ty::usize())], Ty::usize());
    b.ret_val(Operand::local("x"));
    p.add_fn(b.finish());

    let mut b = BodyBuilder::new("inc", vec![("x", Ty::usize())], Ty::usize());
    let y = b.local("y", Ty::usize());
    b.assign_binop(
        y.clone(),
        BinOp::Add,
        Operand::local("x"),
        Operand::usize(1),
    );
    b.ret_val(Operand::copy(y));
    p.add_fn(b.finish());

    let mut b = BodyBuilder::new("inc2", vec![("x", Ty::usize())], Ty::usize());
    let t1 = b.local("t1", Ty::usize());
    let t2 = b.local("t2", Ty::usize());
    let k1 = b.new_block();
    let k2 = b.new_block();
    b.call("inc", vec![], vec![Operand::local("x")], t1.clone(), k1);
    b.switch_to(k1);
    b.call("inc", vec![], vec![Operand::copy(t1)], t2.clone(), k2);
    b.switch_to(k2);
    b.ret_val(Operand::copy(t2));
    p.add_fn(b.finish());

    p
}

/// Functional-correctness specifications for the chain demo. The bounds on
/// `x` keep the `usize` additions provably in range; `inc2`'s proof only
/// goes through via `inc`'s contract.
pub fn chain_gilsonite(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let program = &types.program;

    let base = program.function("base").unwrap().clone();
    let spec = g.fn_spec(&base, vec![], vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
    g.add_spec(spec);

    let inc = program.function("inc").unwrap().clone();
    let spec = g.fn_spec(
        &inc,
        vec![Expr::lt(lv("x_repr"), Expr::Int(1000))],
        vec![Expr::eq(
            lv("ret_repr"),
            Expr::add(lv("x_repr"), Expr::Int(1)),
        )],
    );
    g.add_spec(spec);

    let inc2 = program.function("inc2").unwrap().clone();
    let spec = g.fn_spec(
        &inc2,
        vec![Expr::lt(lv("x_repr"), Expr::Int(900))],
        vec![Expr::eq(
            lv("ret_repr"),
            Expr::add(lv("x_repr"), Expr::Int(2)),
        )],
    );
    g.add_spec(spec);

    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_verifies_in_fc_mode() {
        let db = ProgramDb::load("chain", None, Some(1), None).unwrap();
        let report = db.session.verify_all();
        assert!(report.all_verified(), "{}", report.render_text());
        assert_eq!(report.cases.len(), 3);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = match ProgramDb::load("nope", None, None, None) {
            Err(e) => e,
            Ok(_) => panic!("load of an unknown workload must fail"),
        };
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(workload("lp").unwrap().name, "linked_pair");
        assert_eq!(workload("vec").unwrap().name, "mini_vec");
    }

    #[test]
    fn mode_parsing_round_trips() {
        assert_eq!(parse_mode("ts"), Some(SpecMode::TypeSafety));
        assert_eq!(parse_mode("fc"), Some(SpecMode::FunctionalCorrectness));
        assert_eq!(
            parse_mode(mode_label(SpecMode::TypeSafety)),
            Some(SpecMode::TypeSafety)
        );
        assert!(parse_mode("nope").is_none());
    }
}
