//! The persistent proof cache's warm start: a fresh session over an
//! unchanged Table 1 workload re-proves nothing.
//!
//! This test lives in its own binary because it times the warm pass against
//! the cold pass: sibling tests proving at the same time, or spawning a
//! child process, would slow either pass and move the ratio.

use case_studies::table1::table1_cases;
use proof_cache::{CacheStore, DirStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warm-start-it-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline acceptance criterion: a fresh session (fresh arenas, fresh
/// Symbol table — everything a fresh *process* would have) over an
/// unchanged workload answers every Table 1 target from the store and runs
/// zero proof work. The cold pass misses and writes back every target, and
/// the warm pass's verification time (the sum of `report.wall_time`) is at
/// least 2× shorter than the cold pass's.
#[test]
fn fresh_sessions_reprove_zero_table1_targets() {
    let dir = tempdir("table1");
    let store: Arc<dyn CacheStore> = Arc::new(DirStore::new(&dir));

    let (mut targets, mut cold_misses, mut cold_writes) = (0, 0, 0);
    let mut cold_time = Duration::ZERO;
    for case in table1_cases(1) {
        let report = case.session().with_cache(Arc::clone(&store)).verify_all();
        assert!(report.all_verified(), "cold: {}", report.render_text());
        assert_eq!(report.solver.disk_cache_hits, 0);
        targets += report.cases.len() as u64;
        cold_misses += report.solver.disk_cache_misses;
        cold_writes += report.solver.disk_cache_writes;
        cold_time += report.wall_time;
    }
    assert!(targets > 0);
    assert_eq!(cold_misses, targets, "every target misses cold");
    assert_eq!(cold_writes, targets, "every verified proof is persisted");

    let mut warm_hits = 0;
    let mut warm_time = Duration::ZERO;
    for case in table1_cases(1) {
        let report = case.session().with_cache(Arc::clone(&store)).verify_all();
        assert!(report.all_verified(), "warm: {}", report.render_text());
        assert_eq!(report.solver.disk_cache_misses, 0, "re-proves zero targets");
        assert_eq!(report.solver.unsat_queries, 0, "no kernel queries ran");
        assert_eq!(report.solver.smt_queries, 0, "no SMT queries ran");
        assert_eq!(report.solver.cases_explored, 0, "no branches explored");
        warm_hits += report.solver.disk_cache_hits;
        warm_time += report.wall_time;
    }
    assert_eq!(warm_hits, targets, "every cold proof is answered warm");

    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "warm verification must be at least 2x faster than cold: cold {cold_time:?}, warm {warm_time:?} ({speedup:.1}x)"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
