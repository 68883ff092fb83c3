//! End-to-end tests of the `gillian` binary: the `cache` maintenance
//! subcommand and the `serve --cache-dir` persistence loop, driven exactly
//! as a user would — through process spawns, pipes and the filesystem.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn gillian() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gillian"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gillian-cache-cli-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one daemon lifetime over stdin/stdout: sends each request line,
/// collects one response line per request, then returns them.
fn daemon_round(cache_dir: &Path, requests: &[&str]) -> Vec<String> {
    let mut child = gillian()
        .args(["serve", "--cache-dir", cache_dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gillian serve");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for req in requests {
            writeln!(stdin, "{req}").unwrap();
        }
    }
    let out = child
        .wait_with_output()
        .expect("daemon exits after shutdown");
    assert!(out.status.success(), "daemon exited with {:?}", out.status);
    let lines: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    lines
}

fn run_cache(args: &[&str]) -> String {
    let out = gillian()
        .arg("cache")
        .args(args)
        .output()
        .expect("run gillian cache");
    assert!(
        out.status.success(),
        "gillian cache {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn field(stats: &str, label: &str) -> String {
    stats
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{stats}"))
        .split_once(':')
        .unwrap()
        .1
        .trim()
        .to_string()
}

#[test]
fn serve_persists_across_restarts_and_cache_subcommand_maintains_the_store() {
    let dir = tempdir("roundtrip");
    let load = r#"{"id":1,"cmd":"load","workload":"chain","workers":1}"#;
    let verify = r#"{"id":2,"cmd":"verify"}"#;
    let shutdown = r#"{"id":3,"cmd":"shutdown"}"#;

    // Cold lifetime: every target is proved and written to disk.
    let cold = daemon_round(&dir, &[load, verify, shutdown]);
    assert!(cold[0].contains(r#""hydrated":[]"#), "{}", cold[0]);
    assert!(
        cold[1].contains(r#""reverified":["base","inc","inc2"]"#),
        "{}",
        cold[1]
    );

    // Warm lifetime, same cache dir: load hydrates, verify re-proves
    // nothing. This is the restart contract the smoke script also checks.
    let warm = daemon_round(&dir, &[load, verify, shutdown]);
    assert!(
        warm[0].contains(r#""hydrated":["base","inc","inc2"]"#),
        "{}",
        warm[0]
    );
    assert!(warm[1].contains(r#""reverified":[]"#), "{}", warm[1]);
    assert!(
        warm[1].contains(r#""cached":["base","inc","inc2"]"#),
        "{}",
        warm[1]
    );

    // `cache stats` sees the records and the warm run's perfect hit rate.
    let dirs = ["--dir", dir.to_str().unwrap()];
    let stats = run_cache(&[&["stats"], &dirs[..]].concat());
    assert_eq!(field(&stats, "records"), "3");
    assert!(field(&stats, "bytes").parse::<u64>().unwrap() > 0);
    assert!(
        field(&stats, "last run").starts_with("3 hit / 0 miss / 0 written (100.0% hit rate)"),
        "{stats}"
    );

    // `cache gc` keeps the store under a byte budget, evicting
    // least-recently-used records first.
    let gc = run_cache(&[&["gc", "--max-bytes", "1"], &dirs[..]].concat());
    assert!(gc.contains("evicted 3 record(s)"), "{gc}");
    let stats = run_cache(&[&["stats"], &dirs[..]].concat());
    assert_eq!(field(&stats, "records"), "0");

    // Refill, then `cache clear` empties it completely.
    daemon_round(&dir, &[load, verify, shutdown]);
    let cleared = run_cache(&[&["clear"], &dirs[..]].concat());
    assert!(cleared.contains("cleared 3 record(s)"), "{cleared}");
    let stats = run_cache(&[&["stats"], &dirs[..]].concat());
    assert_eq!(field(&stats, "records"), "0");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommand_rejects_bad_usage() {
    // Every argument an error echoes back is quoted to a bounded length: a
    // 100,000-byte argument still gets a message of a few KB (the usage
    // text alone is about 2.2 KB).
    let long = "q".repeat(100_000);
    let long_flag = format!("-{long}");
    for bad in [
        vec!["cache"],
        vec!["cache", "defrag"],
        vec!["cache", "gc"],
        vec!["cache", "stats", "--max-bytes", "zero"],
        vec![&long],
        vec!["serve", &long],
        vec!["lint", &long_flag],
        vec!["lint", "--mode", &long],
        vec!["lint", &long],
        vec!["analyze", &long_flag],
        vec!["analyze", "--mode", &long],
        vec!["analyze", &long],
        vec!["cache", "stats", &long],
        vec!["cache", &long],
    ] {
        let shown: Vec<&str> = bad
            .iter()
            .map(|a| if a.len() > 64 { "<100,000 bytes>" } else { a })
            .collect();
        let out = gillian().args(&bad).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{shown:?} should fail with usage"
        );
        assert!(
            out.stderr.len() < 4096,
            "{shown:?} wrote {} bytes to stderr",
            out.stderr.len()
        );
    }
}
