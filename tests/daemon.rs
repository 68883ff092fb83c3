//! The verification daemon end to end: Table 1 through one warm
//! [`ServerCore`], request-level solver-stat deltas, interleaved clients,
//! and the driver's JSON report round-tripped through the server's strict
//! parser.

use driver::HybridSession;
use gillian_rust::gilsonite::lv;
use gillian_server::json::{parse, Value};
use gillian_server::{parse_mode, ProgramDb, ServerCore};
use gillian_solver::Expr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The Table 1 rows as daemon `workload`/`mode` pairs (EvenInt's row is the
/// FC session; LP and LinkedList appear in both modes; MiniVec is FC).
const TABLE1_PAIRS: &[(&str, &str)] = &[
    ("even_int", "fc"),
    ("linked_pair", "ts"),
    ("linked_pair", "fc"),
    ("linked_list", "ts"),
    ("linked_list", "fc"),
    ("mini_vec", "fc"),
];

fn ok(resp: &str) -> Value {
    let v = parse(resp).expect("daemon responses are valid JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
    v
}

fn names(v: &Value, field: &str) -> Vec<String> {
    v.get(field)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("response has array field `{field}`"))
        .iter()
        .map(|x| x.as_str().unwrap().to_string())
        .collect()
}

/// The timing-free essence of one verify response: per-case name, verdict
/// and diagnostic fingerprint. Two runs of the same work must agree on this
/// exactly, whatever the wall clock says.
fn canon_cases(v: &Value) -> Vec<(String, bool, Option<String>)> {
    v.get("cases")
        .and_then(Value::as_array)
        .expect("verify response carries cases")
        .iter()
        .map(|c| {
            (
                c.get("name").and_then(Value::as_str).unwrap().to_string(),
                c.get("verified").and_then(Value::as_bool).unwrap(),
                c.get("diagnostic")
                    .and_then(|d| d.get("fingerprint"))
                    .and_then(Value::as_str)
                    .map(str::to_string),
            )
        })
        .collect()
}

/// A verify response's `solver_delta` counters, without `kernel_nanos`,
/// which measures wall time inside the kernel and differs between runs of
/// the same work.
fn solver_work(v: &Value) -> Vec<(String, i64)> {
    match v.get("solver_delta") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter(|(k, _)| k != "kernel_nanos")
            .map(|(k, val)| (k.clone(), val.as_i64().unwrap()))
            .collect(),
        _ => panic!("verify response carries solver_delta"),
    }
}

fn load_line(workload: &str, mode: &str) -> String {
    format!(r#"{{"cmd":"load","workload":"{workload}","mode":"{mode}"}}"#)
}

/// Satellite: warm-state correctness. All six Table 1 workload/mode pairs go
/// through ONE daemon twice. Pass 1 verdicts and diagnostic fingerprints are
/// identical to a fresh batch of each pair; pass 2 re-verifies zero targets,
/// answers everything from the cache with the same verdicts, and is at least
/// 2× faster than the fresh batches (`ProgramDb::load` + `verify_all` cold,
/// the `load` + `verify` requests warm). A spec edit then dirties exactly its
/// dependents while every Table 1 pair stays warm.
#[test]
fn table1_through_one_daemon_is_warm_and_matches_fresh_batches() {
    let mut core = ServerCore::new();
    let mut pass1: Vec<Vec<(String, bool, Option<String>)>> = Vec::new();
    let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);

    for (w, m) in TABLE1_PAIRS {
        let v = ok(&core.handle_line(&load_line(w, m)));
        assert_eq!(
            v.get("reused").and_then(Value::as_bool),
            Some(false),
            "{w}:{m} is a cold load"
        );
        let targets = names(&v, "targets");

        let v = ok(&core.handle_line(r#"{"cmd":"verify"}"#));
        assert_eq!(names(&v, "reverified"), targets, "{w}:{m} pass 1 is cold");
        assert!(names(&v, "cached").is_empty());
        let daemon_cases = canon_cases(&v);

        // Fresh batch over the same workload definition: identical verdicts
        // and identical diagnostic fingerprints, case by case.
        let start = Instant::now();
        let fresh = ProgramDb::load(w, parse_mode(m), None, None)
            .unwrap_or_else(|e| panic!("{w}:{m}: {e}"))
            .session
            .verify_all();
        cold += start.elapsed();
        assert_eq!(daemon_cases.len(), fresh.cases.len(), "{w}:{m}");
        for (d, f) in daemon_cases.iter().zip(fresh.cases.iter()) {
            assert_eq!(d.0, f.name(), "{w}:{m}");
            assert_eq!(d.1, f.verified(), "{w}:{m}: verdict of {}", f.name());
            assert_eq!(
                d.2,
                f.diagnostic().map(|x| x.fingerprint()),
                "{w}:{m}: diagnostic of {}",
                f.name()
            );
        }
        pass1.push(daemon_cases);
    }

    // Pass 2: every pair is answered entirely from the warm cache.
    for (i, (w, m)) in TABLE1_PAIRS.iter().enumerate() {
        let start = Instant::now();
        let loaded = core.handle_line(&load_line(w, m));
        let verified = core.handle_line(r#"{"cmd":"verify"}"#);
        warm += start.elapsed();

        let v = ok(&loaded);
        assert_eq!(
            v.get("reused").and_then(Value::as_bool),
            Some(true),
            "{w}:{m} pass 2 reuses the warm session"
        );
        let targets = names(&v, "targets");

        let v = ok(&verified);
        assert!(
            names(&v, "reverified").is_empty(),
            "{w}:{m} pass 2 re-verifies zero targets"
        );
        assert_eq!(names(&v, "cached"), targets, "{w}:{m}");
        assert_eq!(canon_cases(&v), pass1[i], "{w}:{m} cached verdicts match");
    }
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "the warm pass must be at least 2x faster than fresh batches: cold {cold:?}, warm {warm:?} ({speedup:.1}x)"
    );

    // A spec edit in a seventh resident workload dirties exactly its
    // dependency cone — and disturbs none of the warm Table 1 sessions.
    ok(&core.handle_line(&load_line("chain", "fc")));
    ok(&core.handle_line(r#"{"cmd":"verify"}"#));
    let v = ok(&core.handle_line(
        r#"{"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}"#,
    ));
    assert_eq!(names(&v, "dirtied"), vec!["inc", "inc2"]);
    let v = ok(&core.handle_line(r#"{"cmd":"verify"}"#));
    assert_eq!(names(&v, "reverified"), vec!["inc", "inc2"]);
    assert_eq!(names(&v, "cached"), vec!["base"]);

    for (w, m) in TABLE1_PAIRS {
        ok(&core.handle_line(&load_line(w, m)));
        let v = ok(&core.handle_line(r#"{"cmd":"verify"}"#));
        assert!(
            names(&v, "reverified").is_empty(),
            "{w}:{m} stays warm across the chain edit"
        );
    }
}

/// `load` ignores the `branch_parallelism` key that older clients send: a
/// load carrying it is accepted and verifies exactly like one without it,
/// with the same verdicts, diagnostics and solver work.
#[test]
fn load_ignores_a_branch_parallelism_key() {
    let verify = |load: &str| {
        let mut core = ServerCore::new();
        ok(&core.handle_line(load));
        let v = ok(&core.handle_line(r#"{"cmd":"verify"}"#));
        (canon_cases(&v), solver_work(&v))
    };
    let plain = verify(r#"{"cmd":"load","workload":"linked_list","mode":"fc","workers":1}"#);
    let keyed = verify(
        r#"{"cmd":"load","workload":"linked_list","mode":"fc","workers":1,"branch_parallelism":4}"#,
    );
    assert!(
        plain.0.iter().all(|(_, verified, _)| *verified),
        "{plain:?}"
    );
    assert_eq!(keyed, plain);
}

/// Satellite: per-request solver deltas. After a warm-up pass, two
/// identical forced verifies do identical solver work — every delta counter
/// matches except `kernel_nanos`, which measures wall time inside the
/// kernel and is excluded by design.
#[test]
fn identical_requests_report_identical_solver_deltas() {
    let mut core = ServerCore::new();
    ok(&core.handle_line(r#"{"cmd":"load","workload":"chain","workers":1}"#));
    ok(&core.handle_line(r#"{"cmd":"verify"}"#));

    let delta = |resp: &str| solver_work(&ok(resp));

    let first = delta(&core.handle_line(r#"{"cmd":"verify","force":true}"#));
    let second = delta(&core.handle_line(r#"{"cmd":"verify","force":true}"#));
    assert_eq!(first, second, "identical requests, identical solver work");
    assert_eq!(
        first.len(),
        11,
        "all non-timing counters are compared (incl. the disk-cache trio and smt_reenabled)"
    );

    // A cache-served verify does no solver work at all.
    let warm = delta(&core.handle_line(r#"{"cmd":"verify"}"#));
    assert!(
        warm.iter().all(|(_, n)| *n == 0),
        "cached answers cost zero solver queries: {warm:?}"
    );
}

/// Satellite: concurrent clients. Two clients interleave load/verify request
/// pairs against one shared daemon; each client's results are identical
/// across iterations, across an interleaved re-run, and equal to a
/// single-threaded reference — the shared state never bleeds between them.
#[test]
fn interleaved_clients_get_deterministic_results() {
    type Canon = Vec<(String, bool, Option<String>)>;

    // One client: atomically (load + forced verify), `iters` times.
    fn client(core: &Arc<Mutex<ServerCore>>, workload: &str, iters: usize) -> Vec<Canon> {
        (0..iters)
            .map(|_| {
                let mut c = core.lock().unwrap();
                ok(&c.handle_line(&load_line(workload, "fc")));
                let v = ok(&c.handle_line(r#"{"cmd":"verify","force":true}"#));
                canon_cases(&v)
            })
            .collect()
    }

    fn interleaved_run() -> (Vec<Canon>, Vec<Canon>) {
        let core = Arc::new(Mutex::new(ServerCore::new()));
        let a = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || client(&core, "chain", 3))
        };
        let b = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || client(&core, "even_int", 3))
        };
        (a.join().unwrap(), b.join().unwrap())
    }

    let (a1, b1) = interleaved_run();
    for run in [&a1, &b1] {
        for later in &run[1..] {
            assert_eq!(&run[0], later, "a client's iterations agree");
        }
    }

    let (a2, b2) = interleaved_run();
    assert_eq!(a1, a2, "chain client agrees across interleaved runs");
    assert_eq!(b1, b2, "even_int client agrees across interleaved runs");

    let reference = |workload: &str| {
        let core = Arc::new(Mutex::new(ServerCore::new()));
        client(&core, workload, 1).remove(0)
    };
    assert_eq!(a1[0], reference("chain"));
    assert_eq!(b1[0], reference("even_int"));
}

/// Satellite: client disconnects. A real Unix-socket daemon survives a
/// client that vanishes mid-request (partial line, no newline, dropped
/// stream) and one that vanishes right after a request: subsequent clients
/// still get correct answers, and `shutdown` still stops the accept loop
/// (which also proves the dead clients' threads were reaped, not wedged).
#[test]
fn unix_socket_daemon_survives_client_disconnects() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("gillian-daemon-it-{}.sock", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);

    let core = Arc::new(Mutex::new(ServerCore::new()));
    let server = {
        let path = path_str.clone();
        let core = Arc::clone(&core);
        std::thread::spawn(move || gillian_server::serve_unix(&path, &core))
    };

    // The listener binds asynchronously; retry until it accepts.
    let connect = || -> UnixStream {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(&path_str) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon socket never came up at {path_str}");
    };
    let request = |stream: &mut UnixStream, line: &str| -> Value {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        ok(&resp)
    };

    // Client 1 dies mid-request: a partial JSON line with no newline, then
    // the stream drops.
    {
        let mut c1 = connect();
        c1.write_all(br#"{"cmd":"load","workl"#).unwrap();
        c1.flush().unwrap();
    }

    // Client 2 dies right after receiving an answer.
    {
        let mut c2 = connect();
        let v = request(&mut c2, &load_line("chain", "fc"));
        assert!(v.get("targets").is_some() || v.get("ok").is_some());
    }

    // Client 3 gets full, correct service on the warm core.
    let mut c3 = connect();
    let v = request(&mut c3, r#"{"cmd":"verify"}"#);
    assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(true));
    let v = request(&mut c3, r#"{"cmd":"shutdown"}"#);
    assert_eq!(v.get("bye").and_then(Value::as_bool), Some(true));

    server
        .join()
        .expect("accept loop exits after shutdown")
        .expect("serve_unix returns Ok");
    assert!(!path.exists(), "socket file is removed on shutdown");
}

/// Satellite: the driver's hand-rolled `to_json` — session names, diagnostic
/// messages and hint expressions included — parses with the server's strict
/// JSON parser and survives with every string intact, even when the inputs
/// are full of quotes, backslashes and control characters.
#[test]
fn report_json_round_trips_through_the_server_parser() {
    let nasty = "Mixed \"quotes\" \\backslashes\\ and\nnewlines\ttabs \u{1} and unicode λ≤";
    let session = HybridSession::builder()
        .name(nasty)
        .program(case_studies::even_int::program())
        .mode(case_studies::SpecMode::FunctionalCorrectness)
        .specs(case_studies::even_int::gilsonite)
        .configure(|g| {
            // A deliberately wrong contract: the failing case attaches a
            // structured diagnostic whose message and hints exercise the
            // escaper on real (expression-shaped) content.
            let add_two = g.types.program.function("add_two").unwrap().clone();
            let wrong = g.fn_spec(
                &add_two,
                vec![Expr::le(lv("self_cur"), Expr::Int(1000))],
                vec![Expr::eq(
                    lv("self_fin"),
                    Expr::add(lv("self_cur"), Expr::Int(3)),
                )],
            );
            g.add_spec(wrong);
        })
        .verify_fns(case_studies::even_int::FUNCTIONS.iter().copied())
        .build()
        .unwrap();
    let report = session.verify_all();
    assert!(!report.all_verified(), "the wrong contract fails");

    let v = parse(&report.to_json()).expect("to_json output is valid JSON");
    assert_eq!(v.get("session").and_then(Value::as_str), Some(nasty));
    assert_eq!(v.get("all_verified").and_then(Value::as_bool), Some(false));

    let cases = v.get("cases").and_then(Value::as_array).unwrap();
    assert_eq!(cases.len(), report.cases.len());
    for (json_case, case) in cases.iter().zip(report.cases.iter()) {
        assert_eq!(
            json_case.get("name").and_then(Value::as_str),
            Some(case.name())
        );
        assert_eq!(
            json_case.get("verified").and_then(Value::as_bool),
            Some(case.verified())
        );
        match case.diagnostic() {
            None => assert!(json_case.get("diagnostic").is_none()),
            Some(d) => {
                let jd = json_case.get("diagnostic").expect("diagnostic rendered");
                assert_eq!(jd.get("message").and_then(Value::as_str), Some(d.message()));
                let fp = d.fingerprint();
                assert_eq!(
                    jd.get("fingerprint").and_then(Value::as_str),
                    Some(fp.as_str())
                );
                let hints: Vec<String> = match jd.get("hints") {
                    None => Vec::new(),
                    Some(h) => h
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|x| x.as_str().unwrap().to_string())
                        .collect(),
                };
                let expect: Vec<String> = d.hints().iter().map(|h| h.to_string()).collect();
                assert_eq!(hints, expect, "hint expressions survive the escaper");
            }
        }
    }
}
