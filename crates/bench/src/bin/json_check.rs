//! Checks that JSON files are well formed, with the workspace's own
//! reader instead of a host interpreter: every argument must parse with
//! [`testkit::json::Json::parse`], and a document whose `schema` is
//! `telemetry/1` must also read back with
//! [`telemetry::Snapshot::from_json`].
//!
//! ```text
//! json_check FILE...
//! ```
//!
//! Exits 0 when every file passes. Otherwise it prints `FILE: error` on
//! stderr for each file that fails and exits 1.

use std::process::ExitCode;

use telemetry::Snapshot;
use testkit::json::Json;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text)?;
    if doc.get("schema").and_then(Json::as_str) == Some("telemetry/1") {
        Snapshot::from_json(&text)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: json_check FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &files {
        if let Err(e) = check(path) {
            eprintln!("{path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
