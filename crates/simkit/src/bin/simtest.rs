//! Seed-replay CLI for the deterministic simulation harness.
//!
//! ```text
//! cargo run -p simkit --bin simtest -- --seed 42
//! cargo run -p simkit --bin simtest -- --seed 42 --steps 800 --profile windowed
//! cargo run -p simkit --bin simtest -- --seed 42 --profile           # obs snapshot
//! cargo run -p simkit --bin simtest -- --seed 42 --profile --json
//! cargo run -p simkit --bin simtest -- --sweep 0..50
//! cargo run -p simkit --bin simtest -- --seed 42 --storage disk     # durable backend
//! cargo run -p simkit --bin simtest -- --seed 42 --churn            # rebalance churn
//! cargo run -p simkit --bin simtest -- --seed 0 --script "TxnRpcAckLost@2;KillBroker@5"
//! cargo run -p simkit --bin simtest -- --seed 42 --trace-out trace.json  # Perfetto
//! cargo run -p simkit --bin simtest -- --seed 42 --inject-failure       # flight dump
//! ```
//!
//! `--profile` with a topology argument forces that topology (historic
//! meaning, kept for replay commands); `--profile` with no argument attaches
//! the kobs metrics snapshot and trace tail to the report. Combine both as
//! `--profile count --profile`.
//!
//! Exit code 0 iff every requested run passed all oracles.

use simkit::simtest::{run, Profile, Script, SimConfig};
use std::process::ExitCode;

struct Args {
    seeds: Vec<u64>,
    steps: Option<u64>,
    profile: Option<Profile>,
    cache: Option<usize>,
    script: Option<Script>,
    obs: bool,
    json: bool,
    trace_out: Option<String>,
    inject_failure: bool,
    disk_storage: bool,
    churn: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simtest (--seed N | --sweep A..B) [--steps M] [--cache N] [--storage memory|disk] [--churn] [--profile [count|windowed|suppressed]] [--script TOKENS] [--trace-out PATH] [--inject-failure] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: Vec::new(),
        steps: None,
        profile: None,
        cache: None,
        script: None,
        obs: false,
        json: false,
        trace_out: None,
        inject_failure: false,
        disk_storage: false,
        churn: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = &argv[i];
        i += 1;
        match flag.as_str() {
            "--json" => args.json = true,
            "--inject-failure" => args.inject_failure = true,
            "--churn" => args.churn = true,
            "--trace-out" => {
                let Some(value) = argv.get(i) else { usage() };
                i += 1;
                args.trace_out = Some(value.clone());
            }
            "--profile" => match argv.get(i) {
                // `--profile <topology>` keeps its historic meaning (force
                // the topology); a bare `--profile` (end of args, or next
                // token is another flag) turns on observability profiling.
                Some(v) if !v.starts_with("--") => match Profile::parse(v) {
                    Some(p) => {
                        args.profile = Some(p);
                        i += 1;
                    }
                    None => usage(),
                },
                _ => args.obs = true,
            },
            "--script" => {
                let Some(value) = argv.get(i) else { usage() };
                i += 1;
                match Script::parse(value) {
                    Ok(script) => args.script = Some(script),
                    Err(e) => {
                        eprintln!("simtest: {e}");
                        usage();
                    }
                }
            }
            "--cache" => {
                let Some(value) = argv.get(i) else { usage() };
                i += 1;
                match value.parse() {
                    Ok(n) => args.cache = Some(n),
                    Err(_) => usage(),
                }
            }
            "--storage" => {
                let Some(value) = argv.get(i) else { usage() };
                i += 1;
                match value.as_str() {
                    "memory" => args.disk_storage = false,
                    "disk" => args.disk_storage = true,
                    _ => usage(),
                }
            }
            "--seed" | "--sweep" | "--steps" => {
                let Some(value) = argv.get(i) else { usage() };
                i += 1;
                match flag.as_str() {
                    "--seed" => match value.parse() {
                        Ok(seed) => args.seeds.push(seed),
                        Err(_) => usage(),
                    },
                    "--sweep" => {
                        let Some((lo, hi)) = value.split_once("..") else { usage() };
                        match (lo.parse::<u64>(), hi.parse::<u64>()) {
                            (Ok(lo), Ok(hi)) if lo < hi => args.seeds.extend(lo..hi),
                            _ => usage(),
                        }
                    }
                    _ => match value.parse() {
                        Ok(steps) => args.steps = Some(steps),
                        Err(_) => usage(),
                    },
                }
            }
            _ => usage(),
        }
    }
    if args.seeds.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failed = 0u64;
    let total = args.seeds.len();
    for seed in &args.seeds {
        let mut cfg = SimConfig::new(*seed);
        if let Some(steps) = args.steps {
            cfg = cfg.with_steps(steps);
        }
        if let Some(profile) = args.profile {
            cfg = cfg.with_profile(profile);
        }
        if let Some(cache) = args.cache {
            cfg = cfg.with_cache(cache);
        }
        if let Some(script) = &args.script {
            cfg = cfg.with_script(script.clone());
        }
        if args.obs {
            cfg = cfg.with_obs_profile();
        }
        if args.inject_failure {
            cfg = cfg.with_injected_failure();
        }
        if args.disk_storage {
            cfg = cfg.with_disk_storage();
        }
        if args.churn {
            cfg = cfg.with_churn();
        }
        let report = run(&cfg);
        if args.json {
            println!("{}", report.to_json());
        } else {
            println!("{report}");
        }
        if let Some(path) = &args.trace_out {
            // The ktrace span store persists after the run (it is reset at
            // the *start* of the next one), so this exports exactly the
            // finished spans of the run above. Load the file in Perfetto
            // (https://ui.perfetto.dev) or chrome://tracing. With
            // `--sweep`, the last seed's trace wins.
            let json = kobs::trace_export::chrome_json_all();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("simtest: cannot write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !report.passed() {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("simtest: {failed}/{total} seeds FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!("simtest: {total}/{total} seeds passed");
        ExitCode::SUCCESS
    }
}
