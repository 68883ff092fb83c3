//! The daemon's wire protocol: newline-delimited JSON requests.
//!
//! One request per line, one response per line. Every request is an object
//! with a `cmd` field and an optional numeric `id` echoed back in the
//! response:
//!
//! ```json
//! {"id":1,"cmd":"load","workload":"chain","mode":"fc"}
//! {"id":2,"cmd":"verify"}
//! {"id":3,"cmd":"verify","targets":["inc2"],"force":true,"timeout_ms":5000}
//! {"id":4,"cmd":"update_spec","fn":"inc","requires":["x@ < 500"],"ensures":["result@ == x@ + 1"]}
//! {"id":5,"cmd":"update_fn","fn":"inc"}
//! {"id":6,"cmd":"stats"}
//! {"id":7,"cmd":"shutdown"}
//! ```
//!
//! Keys a request does not name are ignored. Older clients also send
//! `load` a branch width; it is ignored like any other unknown key, because
//! every proof obligation is explored by one serial depth-first driver and
//! `workers` is the only parallelism a session has.

use crate::json::{parse, Value};
use creusot_lite::quote_clause;

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Load {
        workload: String,
        mode: Option<String>,
        workers: Option<usize>,
    },
    Verify {
        targets: Option<Vec<String>>,
        force: bool,
        /// Optional per-target wall-clock budget for this request only, in
        /// milliseconds. Applied around the run and restored afterwards, so
        /// one slow client cannot change the daemon's configuration for the
        /// next one.
        timeout_ms: Option<u64>,
    },
    UpdateSpec {
        func: String,
        requires: Vec<String>,
        ensures: Vec<String>,
    },
    UpdateFn {
        func: String,
    },
    /// Runs the static analyzer over the loaded program and returns every
    /// finding (no proof search).
    Lint,
    Stats,
    Shutdown,
}

/// A request line together with its echo id. The request itself may have
/// failed to decode; the server still answers on the same id.
#[derive(Debug)]
pub struct Envelope {
    pub id: Option<i64>,
    pub request: Result<Request, String>,
}

/// Decodes one request line.
pub fn parse_request(line: &str) -> Envelope {
    let value = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Envelope {
                id: None,
                request: Err(format!("invalid JSON at byte {}: {}", e.offset, e.message)),
            }
        }
    };
    let id = value.get("id").and_then(Value::as_i64);
    Envelope {
        id,
        request: decode(&value),
    }
}

fn decode(value: &Value) -> Result<Request, String> {
    if !matches!(value, Value::Object(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let cmd = value
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field `cmd`".to_string())?;
    match cmd {
        "load" => Ok(Request::Load {
            workload: required_str(value, "workload")?,
            mode: optional_str(value, "mode")?,
            workers: optional_usize(value, "workers")?,
        }),
        "verify" => {
            let targets = match value.get("targets") {
                None | Some(Value::Null) => None,
                Some(Value::Array(items)) => {
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        match item.as_str() {
                            Some(s) => names.push(s.to_string()),
                            None => return Err("`targets` must be an array of strings".to_string()),
                        }
                    }
                    Some(names)
                }
                Some(_) => return Err("`targets` must be an array of strings".to_string()),
            };
            let force = match value.get("force") {
                None | Some(Value::Null) => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err("`force` must be a boolean".to_string()),
            };
            let timeout_ms = match value.get("timeout_ms") {
                None | Some(Value::Null) => None,
                Some(v) => match v.as_i64() {
                    Some(n) if n > 0 => Some(n as u64),
                    _ => return Err("`timeout_ms` must be a positive integer".to_string()),
                },
            };
            Ok(Request::Verify {
                targets,
                force,
                timeout_ms,
            })
        }
        "update_spec" => Ok(Request::UpdateSpec {
            func: required_str(value, "fn")?,
            requires: clause_list(value, "requires")?,
            ensures: clause_list(value, "ensures")?,
        }),
        "update_fn" => Ok(Request::UpdateFn {
            func: required_str(value, "fn")?,
        }),
        "lint" => Ok(Request::Lint),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd {} (known: load, verify, update_spec, update_fn, lint, stats, shutdown)",
            quote_clause(other)
        )),
    }
}

fn required_str(value: &Value, field: &str) -> Result<String, String> {
    value
        .get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{field}`"))
}

fn optional_str(value: &Value, field: &str) -> Result<Option<String>, String> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{field}` must be a string")),
    }
}

fn optional_usize(value: &Value, field: &str) -> Result<Option<usize>, String> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as usize)),
            _ => Err(format!("`{field}` must be a non-negative integer")),
        },
    }
}

fn clause_list(value: &Value, field: &str) -> Result<Vec<String>, String> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => out.push(s.to_string()),
                    None => return Err(format!("`{field}` must be an array of strings")),
                }
            }
            Ok(out)
        }
        Some(_) => Err(format!("`{field}` must be an array of strings")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_decodes_with_options() {
        let env =
            parse_request(r#"{"id":1,"cmd":"load","workload":"chain","mode":"fc","workers":2}"#);
        assert_eq!(env.id, Some(1));
        assert_eq!(
            env.request.unwrap(),
            Request::Load {
                workload: "chain".to_string(),
                mode: Some("fc".to_string()),
                workers: Some(2),
            }
        );
    }

    #[test]
    fn load_ignores_keys_it_does_not_name() {
        let env = parse_request(r#"{"cmd":"load","workload":"chain","colour":"blue","n":[1]}"#);
        assert_eq!(
            env.request.unwrap(),
            Request::Load {
                workload: "chain".to_string(),
                mode: None,
                workers: None,
            }
        );
    }

    #[test]
    fn verify_defaults_and_targets() {
        let env = parse_request(r#"{"cmd":"verify"}"#);
        assert_eq!(
            env.request.unwrap(),
            Request::Verify {
                targets: None,
                force: false,
                timeout_ms: None,
            }
        );
        let env = parse_request(
            r#"{"id":2,"cmd":"verify","targets":["inc"],"force":true,"timeout_ms":1500}"#,
        );
        assert_eq!(
            env.request.unwrap(),
            Request::Verify {
                targets: Some(vec!["inc".to_string()]),
                force: true,
                timeout_ms: Some(1500),
            }
        );
        let env = parse_request(r#"{"cmd":"verify","timeout_ms":0}"#);
        assert!(env.request.unwrap_err().contains("timeout_ms"));
    }

    #[test]
    fn update_spec_decodes_clauses() {
        let env = parse_request(
            r#"{"id":4,"cmd":"update_spec","fn":"inc","requires":["x@ < 500"],"ensures":["result@ == x@ + 1"]}"#,
        );
        assert_eq!(
            env.request.unwrap(),
            Request::UpdateSpec {
                func: "inc".to_string(),
                requires: vec!["x@ < 500".to_string()],
                ensures: vec!["result@ == x@ + 1".to_string()],
            }
        );
    }

    #[test]
    fn lint_decodes() {
        let env = parse_request(r#"{"id":7,"cmd":"lint"}"#);
        assert_eq!(env.id, Some(7));
        assert_eq!(env.request.unwrap(), Request::Lint);
    }

    #[test]
    fn errors_keep_the_id_when_decodable() {
        let env = parse_request(r#"{"id":9,"cmd":"nope"}"#);
        assert_eq!(env.id, Some(9));
        assert!(env.request.unwrap_err().contains("unknown cmd"));

        let env = parse_request("not json");
        assert_eq!(env.id, None);
        assert!(env.request.is_err());

        let env = parse_request(r#"{"id":3,"cmd":"update_spec"}"#);
        assert_eq!(env.id, Some(3));
        assert!(env.request.unwrap_err().contains("`fn`"));
    }
}
