//! The persistent proof cache end to end: cross-process stable hashing
//! over the Table 1 suite, exact reverse-dependency-cone invalidation on a
//! spec edit, and corruption tolerance with cold-identical verdicts. The
//! fresh-session warm start lives in `tests/warm_start.rs`.

use case_studies::table1::table1_cases;
use case_studies::SpecMode;
use driver::HybridSession;
use gillian_engine::gil::DepKind;
use gillian_rust::gilsonite::lv;
use gillian_server::chain_program;
use gillian_solver::{Expr, Symbol};
use proof_cache::{
    stable_fingerprint_key, stable_target_fingerprint, target_key, CacheStore, DirStore, MemStore,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("proof-cache-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One line per stable hash the cache depends on, over every Table 1
/// session: the cache namespace, each target's store key and fingerprint,
/// and each target name's fingerprint under every dependency kind. Two
/// processes must produce these byte-for-byte identically — that is the
/// whole premise of a *persistent* content-addressed cache.
fn stable_hash_dump(reverse_build_order: bool) -> Vec<String> {
    let mut cases = table1_cases(1);
    if reverse_build_order {
        // Building the sessions in the opposite order permutes every
        // Symbol id and TermId; name-based stable hashes must not notice.
        cases.reverse();
    }
    let mut lines = Vec::new();
    for case in cases {
        let label = format!("{}/{}", case.name, case.property);
        let session = case.session();
        let namespace = session.cache_namespace();
        let prog = &session.verifier().engine.prog;
        lines.push(format!("stablehash {label} ns {namespace:016x}"));
        for t in session.targets() {
            lines.push(format!(
                "stablehash {label} target {} key {:016x} fp {:016x}",
                t.name,
                target_key(namespace, t.kind.label(), &t.name),
                stable_target_fingerprint(prog, &t.name),
            ));
            for kind in DepKind::ALL {
                lines.push(format!(
                    "stablehash {label} dep {}/{} fp {:016x}",
                    kind.label(),
                    t.name,
                    stable_fingerprint_key(prog, kind, Symbol::new(&t.name)),
                ));
            }
        }
    }
    lines.sort();
    lines
}

/// Child half of the cross-process test: inert unless re-executed by
/// `stable_hashes_are_identical_across_processes` with the env flag set.
#[test]
fn stable_hash_dump_child() {
    if std::env::var_os("GILLIAN_HASH_CHILD").is_none() {
        return;
    }
    // Leading newline: under --nocapture the harness's "test ... " prefix
    // would otherwise glue onto the first hash line.
    println!();
    for line in stable_hash_dump(true) {
        println!("{line}");
    }
}

#[test]
fn stable_hashes_are_identical_across_processes() {
    let mine = stable_hash_dump(false);
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "stable_hash_dump_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("GILLIAN_HASH_CHILD", "1")
        .output()
        .expect("re-exec test binary");
    assert!(out.status.success(), "child failed: {out:?}");
    let child = String::from_utf8(out.stdout).expect("child output is UTF-8");
    assert!(
        child
            .lines()
            .filter(|l| l.starts_with("stablehash "))
            .count()
            >= mine.len(),
        "child produced too few hash lines:\n{child}"
    );
    for line in &mine {
        assert!(
            child.contains(line.as_str()),
            "hash differs across processes (or across build orders): {line}"
        );
    }
}

/// `base(x) = x`, `inc(x) = x + 1`, `inc2(x) = inc(inc(x))`, with `inc`'s
/// precondition bound parameterised so a "spec edit" can be simulated
/// across session rebuilds (the cross-process analogue of the daemon's
/// `update_spec`).
fn chain_session(inc_bound: i128, store: Arc<dyn CacheStore>) -> HybridSession {
    HybridSession::builder()
        .name("chain")
        .program(chain_program())
        .mode(SpecMode::FunctionalCorrectness)
        .configure(move |g| {
            let base = g.types.program.function("base").unwrap().clone();
            let spec = g.fn_spec(&base, vec![], vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
            g.add_spec(spec);
            let inc = g.types.program.function("inc").unwrap().clone();
            let spec = g.fn_spec(
                &inc,
                vec![Expr::lt(lv("x_repr"), Expr::Int(inc_bound))],
                vec![Expr::eq(
                    lv("ret_repr"),
                    Expr::add(lv("x_repr"), Expr::Int(1)),
                )],
            );
            g.add_spec(spec);
            let inc2 = g.types.program.function("inc2").unwrap().clone();
            let spec = g.fn_spec(
                &inc2,
                vec![Expr::lt(lv("x_repr"), Expr::Int(900))],
                vec![Expr::eq(
                    lv("ret_repr"),
                    Expr::add(lv("x_repr"), Expr::Int(2)),
                )],
            );
            g.add_spec(spec);
        })
        .verify_fns(["base", "inc", "inc2"])
        .workers(1)
        .cache(store)
        .build()
        .expect("chain session builds")
}

/// Editing one spec between processes re-proves exactly the reverse-
/// dependency cone of the edit: `inc` (its own proof) and `inc2` (a
/// spec-caller), never `base`. And because records are keyed per read-set,
/// editing the spec *back* re-hits the first generation of records.
#[test]
fn spec_edit_invalidates_exactly_the_cone() {
    let store: Arc<dyn CacheStore> = Arc::new(MemStore::new());

    let report = chain_session(1000, Arc::clone(&store)).verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert_eq!(report.solver.disk_cache_misses, 3);
    assert_eq!(report.solver.disk_cache_writes, 3);

    // Fresh session with inc's bound tightened: base hits, the cone misses.
    let report = chain_session(999, Arc::clone(&store)).verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
    assert_eq!(report.solver.disk_cache_hits, 1, "base is outside the cone");
    assert_eq!(report.solver.disk_cache_misses, 2, "inc and inc2 re-prove");

    // Both spec generations now coexist: either bound starts fully warm.
    let report = chain_session(1000, Arc::clone(&store)).verify_all();
    assert_eq!(report.solver.disk_cache_hits, 3);
    let report = chain_session(999, Arc::clone(&store)).verify_all();
    assert_eq!(report.solver.disk_cache_hits, 3);
}

/// Damaged records never corrupt verdicts: truncated, garbage and
/// version-bumped files all degrade to misses, the run re-proves and
/// rewrites them, and the verdicts are identical to a cold run's.
#[test]
fn corrupted_records_degrade_to_cold_identical_misses() {
    let dir = tempdir("corrupt");
    let store: Arc<dyn CacheStore> = Arc::new(DirStore::new(&dir));

    let cold = chain_session(1000, Arc::clone(&store)).verify_all();
    assert!(cold.all_verified());
    assert_eq!(cold.solver.disk_cache_writes, 3);

    let mut records: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rec"))
        .collect();
    records.sort();
    assert_eq!(records.len(), 3);

    // One of each failure mode from the issue's threat list.
    let full = std::fs::read_to_string(&records[0]).unwrap();
    std::fs::write(&records[0], &full[..full.len() / 2]).unwrap();
    std::fs::write(&records[1], "not a cache record at all\n").unwrap();
    let full = std::fs::read_to_string(&records[2]).unwrap();
    std::fs::write(
        &records[2],
        full.replace("gillian-proof-cache v", "gillian-proof-cache v99"),
    )
    .unwrap();

    let warm = chain_session(1000, Arc::clone(&store)).verify_all();
    assert_eq!(warm.solver.disk_cache_hits, 0, "damaged records never hit");
    assert_eq!(warm.solver.disk_cache_misses, 3);
    assert_eq!(warm.solver.disk_cache_writes, 3, "repaired by write-back");

    // Verdict-for-verdict identical to the cold run.
    let canon = |r: &driver::VerificationReport| -> Vec<(String, bool, Option<String>)> {
        r.cases
            .iter()
            .map(|c| {
                (
                    c.name().to_string(),
                    c.verified(),
                    c.diagnostic().map(|d| d.fingerprint()),
                )
            })
            .collect()
    };
    assert_eq!(canon(&cold), canon(&warm));

    // And the store is healthy again.
    let healed = chain_session(1000, Arc::clone(&store)).verify_all();
    assert_eq!(healed.solver.disk_cache_hits, 3);

    let _ = std::fs::remove_dir_all(&dir);
}
