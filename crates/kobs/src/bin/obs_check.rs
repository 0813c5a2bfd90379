//! CI schema gate for observability exports.
//!
//! Reads a JSON document from stdin, verifies it parses, collects every
//! name it contains (keys of any `counters`/`gauges` object — metrics — and
//! of a `critical_path`'s `phases` object — span names — at any depth), and
//! requires each name given on the command line to be present:
//!
//! ```text
//! simtest --seed 7 --profile --json | obs-check markers kbroker.lso_lag_peak
//! ```
//!
//! With `--chrome`, stdin is instead validated as a Chrome/Perfetto trace
//! (the `simtest --trace-out` artifact): it must parse, every complete
//! event needs a name, non-negative `dur`, and a positive `tid`, and every
//! `parent` edge must point at an exported span whose interval contains
//! the child. The names collected are then the complete events' names:
//!
//! ```text
//! simtest --seed 7 --trace-out trace.json && obs-check --chrome init < trace.json
//! ```
//!
//! Exit code 0 iff the document parses (under `--chrome`, validates) and
//! every required name was found.

use kobs::json::{parse, Value};
use std::collections::BTreeSet;
use std::io::Read;
use std::process::ExitCode;

/// Walk the document, harvesting metric names from every snapshot-shaped
/// subtree and phase names from every critical path (`--json` reports may
/// nest them arbitrarily deep).
fn collect_names(value: &Value, names: &mut BTreeSet<String>) {
    if let Value::Obj(pairs) = value {
        for (key, child) in pairs {
            let metrics = match (key.as_str(), child) {
                ("counters" | "gauges", Value::Obj(metrics)) => Some(&metrics[..]),
                ("critical_path", _) => child.get("phases").and_then(Value::as_obj),
                _ => None,
            };
            names.extend(metrics.into_iter().flatten().map(|(name, _)| name.clone()));
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
        match kobs::trace_export::validate_chrome_json(&input) {
            Ok(events) => println!("obs-check: OK — chrome trace valid, {events} complete events"),
            Err(e) => {
                eprintln!("obs-check: invalid chrome trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let doc = match parse(&input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obs-check: invalid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut names = BTreeSet::new();
    if chrome {
        let events = doc.get("traceEvents").and_then(Value::as_arr).into_iter().flatten();
        let spans = events.filter(|ev| ev.get("ph").and_then(Value::as_str) == Some("X"));
        names.extend(spans.filter_map(|ev| Some(ev.get("name")?.as_str()?.to_string())));
    } else {
        collect_names(&doc, &mut names);
    }
    let missing: Vec<&String> = required.iter().filter(|r| !names.contains(*r)).collect();
    if missing.is_empty() {
        println!(
            "obs-check: OK — {} names exported, {} required present",
            names.len(),
            required.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("obs-check: {} required name(s) missing:", missing.len());
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
