//! The `gillian` binary.
//!
//! ```text
//! gillian serve                     # newline-delimited JSON over stdin/stdout
//! gillian serve --socket PATH       # same protocol over a Unix domain socket
//! gillian serve --cache-dir PATH    # persist proofs across daemon restarts
//! gillian cache stats|clear|gc ...  # inspect / maintain the on-disk cache
//! ```

use creusot_lite::quote_clause;
use gillian_server::{
    mode_label, parse_mode, serve_stdio_shared, serve_unix, workload, ProgramDb, ServerCore,
    WORKLOADS,
};
use proof_cache::{resolve_cache_dir, CacheStore, DirStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const USAGE: &str = "\
gillian — the hybrid verification daemon

USAGE:
    gillian serve [--socket PATH] [--cache-dir PATH]
    gillian lint [WORKLOAD ...] [--mode ts|fc] [--deny-warnings] [--json]
                 [--allow CODE ...] [--list-codes]
    gillian analyze [WORKLOAD ...] [--mode ts|fc] [--json]
    gillian cache stats [--dir PATH]
    gillian cache clear [--dir PATH]
    gillian cache gc --max-bytes N [--dir PATH]

COMMANDS:
    serve    Run the verification daemon. Requests are newline-delimited
             JSON objects ({\"cmd\":\"load\"|\"verify\"|\"update_spec\"|
             \"update_fn\"|\"lint\"|\"stats\"|\"shutdown\", ...}); one
             response line per request. Default transport is stdin/stdout;
             --socket PATH listens on a Unix domain socket instead.
             --cache-dir PATH (or the GILLIAN_CACHE_DIR environment
             variable) attaches a persistent proof cache: verified proofs
             survive restarts, and a fresh daemon re-proves only what
             changed.
    lint     Run the static analyzer (control flow, def-use, symbol
             resolution, predicate well-foundedness, precondition vacuity)
             over the named workloads — all of them by default — without
             any proof search. Exit 0 when nothing blocks, 1 when lint
             errors (or, with --deny-warnings, any finding) are present.
             --json emits one JSON object per workload. --allow CODE
             (repeatable) suppresses specific codes; --list-codes prints
             the full GLxxx code table with severities and exits.
    analyze  Run the abstract interpreter (interval/constancy/shape value
             analysis) over the named workloads — all of them by default —
             and dump the per-command invariants of every compiled
             procedure, with stable fingerprints. --json emits one JSON
             object per workload.
    cache    Maintain the persistent proof cache. The directory is --dir
             PATH, else GILLIAN_CACHE_DIR, else target/gillian-cache.
             stats prints entry/byte counts and the last run's hit rate;
             clear removes every record; gc --max-bytes N evicts
             least-recently-used records until the store fits.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            let mut socket: Option<String> = None;
            let mut cache_dir: Option<PathBuf> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--socket" => match rest.next() {
                        Some(path) => socket = Some(path.clone()),
                        None => die("--socket requires a path"),
                    },
                    "--cache-dir" => match rest.next() {
                        Some(path) => cache_dir = Some(PathBuf::from(path)),
                        None => die("--cache-dir requires a path"),
                    },
                    other => die(&format!("unknown argument {}", quote_clause(other))),
                }
            }
            // The explicit flag wins; the environment variable (honoured by
            // resolve_cache_dir) lets wrappers and CI opt in without
            // touching the command line.
            let cache_dir = cache_dir.or_else(|| {
                std::env::var_os("GILLIAN_CACHE_DIR")
                    .filter(|v| !v.is_empty())
                    .map(|_| resolve_cache_dir())
            });
            let core = match cache_dir {
                None => ServerCore::new(),
                Some(dir) => ServerCore::with_cache_dir(dir),
            };
            let core = Arc::new(Mutex::new(core));
            install_signal_flush(Arc::clone(&core));
            let result = match socket {
                None => serve_stdio_shared(&core),
                Some(path) => serve_unix(&path, &core),
            };
            if let Err(e) = result {
                eprintln!("gillian serve: {e}");
                std::process::exit(1);
            }
        }
        Some("lint") => lint_command(&args[1..]),
        Some("analyze") => analyze_command(&args[1..]),
        Some("cache") => cache_command(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
        }
        Some(other) => die(&format!("unknown command {}", quote_clause(other))),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("gillian: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Set by the async-signal handler; drained by the watcher thread.
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    // Async-signal context: flip a flag and nothing else.
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

/// Graceful shutdown on SIGTERM/SIGINT: a watcher thread waits for the
/// signal flag, then flushes the proof cache exactly like a `shutdown`
/// request — waiting out any in-flight request via the core mutex — and
/// exits. Both serve loops block in reads the signal cannot interrupt
/// portably (stdin `read_line`, the accept poll), so the watcher owns the
/// exit. `std` already links libc on every supported target; the raw
/// `signal(2)` declaration avoids growing the dependency tree.
fn install_signal_flush(core: Arc<Mutex<ServerCore>>) {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_shutdown_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    std::thread::spawn(move || loop {
        if SHUTDOWN_SIGNAL.load(Ordering::SeqCst) {
            {
                let mut core = core.lock().unwrap();
                core.flush_all();
            }
            eprintln!("gillian serve: signal received, proof cache flushed, exiting");
            std::process::exit(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

/// `gillian lint` — the static-analysis gate over the in-repo workloads.
/// Builds each selected workload (compilation + spec elaboration, no proof
/// search) and reports the analyzer's findings; the exit code makes it a CI
/// step.
fn lint_command(args: &[String]) {
    let mut names: Vec<String> = Vec::new();
    let mut mode: Option<String> = None;
    let mut deny_warnings = false;
    let mut json = false;
    let mut allow: Vec<String> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--mode" => match rest.next() {
                Some(m) => mode = Some(m.clone()),
                None => die("--mode requires ts or fc"),
            },
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--allow" => match rest.next() {
                Some(code) => allow.push(code.clone()),
                None => die("--allow requires a lint code (e.g. GL012)"),
            },
            "--list-codes" => {
                for (code, severity, description) in gillian_lint::CODES {
                    println!("{code}  {:<7} {description}", severity.label());
                }
                return;
            }
            flag if flag.starts_with('-') => {
                die(&format!("unknown argument {}", quote_clause(flag)))
            }
            name => names.push(name.to_string()),
        }
    }
    let mode = mode.map(|s| match parse_mode(&s) {
        Some(m) => m,
        None => die(&format!(
            "unknown mode {} (use \"ts\" or \"fc\")",
            quote_clause(&s)
        )),
    });
    let selected: Vec<&str> = if names.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        names
            .iter()
            .map(|n| match workload(n) {
                Some(w) => w.name,
                None => die(&format!("unknown workload {}", quote_clause(n))),
            })
            .collect()
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for name in selected {
        let db = match ProgramDb::load(name, mode, Some(1), None) {
            Ok(db) => db,
            Err(e) => die(&e),
        };
        let mut report = db
            .session
            .lint_report()
            .cloned()
            .expect("sessions lint at build time");
        // --allow mirrors LintOptions::allow: suppressed codes vanish from
        // the report before counting.
        if !allow.is_empty() {
            report
                .diagnostics
                .retain(|d| !allow.iter().any(|a| a == d.code));
        }
        let mode = mode_label(db.mode);
        let e = report.errors().count();
        let w = report.warnings().count();
        errors += e;
        warnings += w;
        if json {
            let diags: Vec<String> = report
                .diagnostics
                .iter()
                .map(|d| {
                    format!(
                        "{{\"code\":\"{}\",\"severity\":\"{}\",\"span\":{},\"message\":{}}}",
                        d.code,
                        d.severity.label(),
                        driver::json_escape(&d.span.to_string()),
                        driver::json_escape(&d.message),
                    )
                })
                .collect();
            println!(
                "{{\"workload\":\"{name}\",\"mode\":\"{mode}\",\"errors\":{e},\"warnings\":{w},\"lints\":[{}]}}",
                diags.join(",")
            );
        } else {
            let verdict = if e + w == 0 {
                "clean".to_string()
            } else {
                format!("{e} error(s), {w} warning(s)")
            };
            println!("{name} ({mode}): {verdict}");
            for d in &report.diagnostics {
                println!("  {d}");
            }
        }
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

/// `gillian analyze` — dump the abstract-interpretation invariants of each
/// selected workload's compiled procedures. Like `lint`, this builds the
/// session (compilation + spec elaboration, no proof search); the session
/// computes the invariants when they are first read, here.
fn analyze_command(args: &[String]) {
    let mut names: Vec<String> = Vec::new();
    let mut mode: Option<String> = None;
    let mut json = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--mode" => match rest.next() {
                Some(m) => mode = Some(m.clone()),
                None => die("--mode requires ts or fc"),
            },
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                die(&format!("unknown argument {}", quote_clause(flag)))
            }
            name => names.push(name.to_string()),
        }
    }
    let mode = mode.map(|s| match parse_mode(&s) {
        Some(m) => m,
        None => die(&format!(
            "unknown mode {} (use \"ts\" or \"fc\")",
            quote_clause(&s)
        )),
    });
    let selected: Vec<&str> = if names.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        names
            .iter()
            .map(|n| match workload(n) {
                Some(w) => w.name,
                None => die(&format!("unknown workload {}", quote_clause(n))),
            })
            .collect()
    };

    for name in selected {
        let db = match ProgramDb::load(name, mode, Some(1), None) {
            Ok(db) => db,
            Err(e) => die(&e),
        };
        let table = db.session.invariants();
        let mode = mode_label(db.mode);
        if json {
            let mut procs: Vec<String> = Vec::new();
            let mut sorted: Vec<_> = table.procs.values().collect();
            sorted.sort_by_key(|p| p.name.as_str());
            for p in sorted {
                let entries: Vec<String> = p
                    .entry
                    .iter()
                    .map(|s| match s {
                        None => "null".to_string(),
                        Some(s) if s.is_empty() => driver::json_escape("top"),
                        Some(s) => driver::json_escape(&s.render()),
                    })
                    .collect();
                procs.push(format!(
                    "{{\"name\":{},\"fingerprint\":\"{:016x}\",\"invariants\":[{}]}}",
                    driver::json_escape(p.name.as_str()),
                    p.fingerprint,
                    entries.join(",")
                ));
            }
            println!(
                "{{\"workload\":\"{name}\",\"mode\":\"{mode}\",\"fingerprint\":\"{:016x}\",\"procs\":[{}]}}",
                table.fingerprint,
                procs.join(",")
            );
        } else {
            println!(
                "{name} ({mode}): {} proc(s), fingerprint {:016x}",
                table.procs.len(),
                table.fingerprint
            );
            let mut sorted: Vec<_> = table.procs.values().collect();
            sorted.sort_by_key(|p| p.name.as_str());
            for p in sorted {
                println!("  proc {} [{:016x}]:", p.name, p.fingerprint);
                for (i, s) in p.entry.iter().enumerate() {
                    let line = match s {
                        None => "unreachable".to_string(),
                        Some(s) if s.is_empty() => "top".to_string(),
                        Some(s) => s.render(),
                    };
                    println!("    {i}: {line}");
                }
            }
        }
    }
}

/// `gillian cache stats|clear|gc` — maintenance of the on-disk proof cache.
fn cache_command(args: &[String]) {
    let action = match args.first() {
        Some(a) => a.as_str(),
        None => die("cache requires an action: stats, clear or gc"),
    };
    let mut dir: Option<PathBuf> = None;
    let mut max_bytes: Option<u64> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--dir" => match rest.next() {
                Some(path) => dir = Some(PathBuf::from(path)),
                None => die("--dir requires a path"),
            },
            "--max-bytes" => match rest.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => max_bytes = Some(n),
                _ => die("--max-bytes requires an integer byte count"),
            },
            other => die(&format!("unknown argument {}", quote_clause(other))),
        }
    }
    let store = DirStore::new(dir.unwrap_or_else(resolve_cache_dir));
    match action {
        "stats" => {
            let stats = store.stats();
            println!("cache directory: {}", store.root().display());
            println!("records:         {}", stats.entries);
            println!("bytes:           {}", stats.bytes);
            match store.last_run() {
                None => println!("last run:        (none recorded)"),
                Some(run) => {
                    let lookups = run.hits + run.misses;
                    let rate = if lookups == 0 {
                        0.0
                    } else {
                        100.0 * run.hits as f64 / lookups as f64
                    };
                    println!(
                        "last run:        {} hit / {} miss / {} written ({rate:.1}% hit rate)",
                        run.hits, run.misses, run.writes
                    );
                }
            }
        }
        "clear" => {
            let before = store.stats();
            store.clear();
            println!(
                "cleared {} record(s) ({} bytes) from {}",
                before.entries,
                before.bytes,
                store.root().display()
            );
        }
        "gc" => {
            let max = match max_bytes {
                Some(n) => n,
                None => die("gc requires --max-bytes N"),
            };
            let (removed, freed) = store.gc(max);
            let after = store.stats();
            println!(
                "evicted {removed} record(s) ({freed} bytes); {} record(s) ({} bytes) remain in {}",
                after.entries,
                after.bytes,
                store.root().display()
            );
        }
        other => die(&format!("unknown cache action {}", quote_clause(other))),
    }
}
