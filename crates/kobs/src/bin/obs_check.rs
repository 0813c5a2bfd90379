//! CI schema gate for observability exports.
//!
//! Reads a JSON document from stdin, verifies it parses, collects every
//! metric name it contains (keys of any `counters`/`gauges` object and the
//! `name` field of any `histograms` array entry, at any depth), and requires
//! each name given on the command line to be present:
//!
//! ```text
//! simtest --seed 7 --profile --json | obs-check kstreams.commit_cycle_ms kbroker.lso_lag_peak
//! ```
//!
//! With `--chrome`, stdin is instead validated as a Chrome/Perfetto trace
//! (the `simtest --trace-out` artifact): it must parse, every complete
//! event needs a name, non-negative `dur`, and a positive `tid`, and every
//! `parent` edge must point at an exported span whose interval contains
//! the child:
//!
//! ```text
//! simtest --seed 7 --trace-out trace.json && obs-check --chrome < trace.json
//! ```
//!
//! Exit code 0 iff the document parses and every required name was found
//! (or, under `--chrome`, the trace validates).

use kobs::json::{parse, Value};
use std::collections::BTreeSet;
use std::io::Read;
use std::process::ExitCode;

/// Walk the document, harvesting metric names from every snapshot-shaped
/// subtree (`--json` reports may nest snapshots arbitrarily deep).
fn collect_names(value: &Value, names: &mut BTreeSet<String>) {
    if let Value::Obj(pairs) = value {
        for (key, child) in pairs {
            match (key.as_str(), child) {
                ("counters" | "gauges", Value::Obj(metrics)) => {
                    names.extend(metrics.iter().map(|(name, _)| name.clone()));
                }
                ("histograms", Value::Arr(hists)) => {
                    for h in hists {
                        if let Some(name) = h.get("name").and_then(Value::as_str) {
                            names.insert(name.to_string());
                        }
                    }
                }
                _ => {}
            }
            collect_names(child, names);
        }
    } else if let Value::Arr(items) = value {
        for item in items {
            collect_names(item, names);
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let chrome = args.iter().any(|a| a == "--chrome");
    args.retain(|a| a != "--chrome");
    let required = args;
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("obs-check: cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    if chrome {
        return match kobs::trace_export::validate_chrome_json(&input) {
            Ok(events) => {
                println!("obs-check: OK — chrome trace valid, {events} complete events");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs-check: invalid chrome trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let doc = match parse(&input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obs-check: invalid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut names = BTreeSet::new();
    collect_names(&doc, &mut names);
    let missing: Vec<&String> = required.iter().filter(|r| !names.contains(*r)).collect();
    if missing.is_empty() {
        println!(
            "obs-check: OK — {} metric names exported, {} required present",
            names.len(),
            required.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("obs-check: {} required metric(s) missing:", missing.len());
        for name in missing {
            eprintln!("  - {name}");
        }
        eprintln!("exported names:");
        for name in &names {
            eprintln!("  {name}");
        }
        ExitCode::FAILURE
    }
}
