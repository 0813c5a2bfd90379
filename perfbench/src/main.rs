//! perfbench — wall-clock end-to-end and per-layer benchmark for the
//! klog -> kbroker -> kstreams path. See README.md.
//!
//! ```text
//! perfbench run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
//! perfbench compare A.json B.json
//! perfbench spec
//! ```

mod compare;
mod drive;
mod gen;
mod probes;
mod reference;
mod report;
mod stats;
mod trace;
mod workload;

use drive::BoxError;
use std::process::ExitCode;
use workload::{Scale, Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage:
  perfbench run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
  perfbench compare A.json B.json
  perfbench spec";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    scale: Scale,
    /// `--trace`; without it a full run is untraced and a `--quick` run
    /// does both, so the smoke gate covers the traced path too.
    traced: Option<bool>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        scale: Scale { seconds: RUN_SECONDS, quick: false },
        traced: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.scale.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                let w = workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.scale.seconds = number()?;
                if !(1..=600).contains(&parsed.scale.seconds) {
                    return Err(format!("--seconds must be 1..=600, got {value}"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

impl RunArgs {
    /// Which kinds of run to make, and the result file's prefix.
    fn modes(&self) -> (&'static [bool], &'static str) {
        match (self.traced, self.scale.quick) {
            (Some(false), _) | (None, false) => (&[false], "e2e"),
            (Some(true), _) => (&[true], "layers"),
            (None, true) => (&[false, true], "smoke"),
        }
    }

    fn result_stem(&self, workload: &str) -> String {
        let quick = if self.scale.quick { "-quick" } else { "" };
        format!("{}-{workload}-seed{}{quick}", self.modes().1, self.seed)
    }
}

fn run(args: &RunArgs) -> Result<bool, BoxError> {
    match args.workloads[..] {
        [w] => run_one(w, args),
        _ => run_each_in_its_own_process(args),
    }
}

fn run_one(w: &'static Workload, args: &RunArgs) -> Result<bool, BoxError> {
    let mut results = Vec::new();
    for &traced in args.modes().0 {
        let result = if traced {
            let (result, tracer) = report::run_per_layer(w, args.scale, args.seed)?;
            let path = report::write_trace(&tracer, w.name)?;
            println!("spans written to {}", path.display());
            result
        } else {
            report::run_end_to_end(w, args.scale, args.seed)?
        };
        report::print_table(&result);
        results.push(result);
    }
    let path = report::write_results(&results, args.seed, args.scale, &args.result_stem(w.name))?;
    println!("results written to {}", path.display());
    // The result lines come last: the contract's object.
    for result in &results {
        println!("{}", report::result_line(result));
    }
    Ok(results.iter().all(report::WorkloadResult::correct))
}

/// A run over several workloads gives each its own process, as the
/// benchmark's driver does: memory the allocator kept from one workload
/// would otherwise count towards the next one's `peak_rss_mb` and spare it
/// the first touch of fresh pages. The children's result files are then
/// merged into one, for `compare`.
fn run_each_in_its_own_process(args: &RunArgs) -> Result<bool, BoxError> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut merged = Vec::new();
    let mut stamp = kobs::json::Value::Null;
    for w in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", w.name]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.scale.seconds.to_string()]);
        if let Some(traced) = args.traced {
            child.args(["--trace", if traced { "1" } else { "0" }]);
        }
        if args.scale.quick {
            child.arg("--quick");
        }
        all_correct &= child.status()?.success();
        let path = report::results_dir()?.join(format!("{}.json", args.result_stem(w.name)));
        let doc = kobs::json::parse(&std::fs::read_to_string(&path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        merged.extend(doc.get("workloads").and_then(|v| v.as_arr()).unwrap_or(&[]).iter().cloned());
        stamp = doc.get("stamp").cloned().unwrap_or(stamp);
    }
    let doc =
        kobs::json::obj(vec![("stamp", stamp), ("workloads", kobs::json::Value::Arr(merged))]);
    let path = report::results_dir()?.join(format!("{}.json", args.result_stem("all")));
    std::fs::write(&path, format!("{doc}\n"))?;
    eprintln!("merged results written to {}", path.display());
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, BoxError> {
    let load = |path: &str| -> Result<kobs::json::Value, BoxError> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(kobs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => match parse_run(rest) {
            Ok(run_args) => run(&run_args),
            Err(message) => {
                eprintln!("{message}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        Some(("compare", [a, b])) => compare_files(a, b),
        Some(("spec", [])) => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
