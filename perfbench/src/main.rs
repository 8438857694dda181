//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload (or all four in turn) and prints one line per
//! metric, then the result as one JSON object on the last line. Exits 1
//! if any output failed its check, 2 on a usage or environment error.

use perfbench::host;
use perfbench::report::{metric_lines, result_json};
use perfbench::run::{end_to_end, per_layer, set_up, write_input, Outcome, Plan, Source};
use perfbench::workload::{Scale, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <road-sparse|planted-highcore|rmat-online|rmat-dynamic|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: write the input file for one workload and exit.
    generate: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        generate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--generate" => args.generate = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(args)
}

/// Removes the generated input file when the run ends, however it ends.
struct InputFile(PathBuf);

impl Drop for InputFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generates the input in a child process, so the generator's memory
/// never counts toward this process's peak.
fn generate_input(workload: Workload, seed: u64) -> Result<InputFile, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = InputFile(dir.join(format!("{}-{seed}-{}.el", workload.name(), std::process::id())));
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), "--generate"])
        .arg(&file.0)
        .status()
        .map_err(|e| format!("starting the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    Ok(file)
}

fn run_workload(workload: Workload, args: &Args, plan: Plan) -> Result<Outcome, String> {
    let input = generate_input(workload, args.seed)?;
    let source = Source { workload, path: &input.0 };
    let loading = |e: std::io::Error| format!("loading {}: {e}", input.0.display());
    let (inputs, dynamic, first) = set_up(source, args.seed).map_err(loading)?;
    let run = if args.trace { per_layer } else { end_to_end };
    run(source, &inputs, dynamic, &first, plan).map_err(loading)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.generate {
        return match write_input(args.workloads[0], Scale::Full, args.seed, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                ExitCode::from(2)
            }
        };
    }
    let forbidden = host::forbidden_env_set();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure the configured program",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let plan = Plan { seconds: args.seconds, width: host::nproc() };
    let stamp = host::stamp(plan.width);
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = match run_workload(workload, &args, plan) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        println!(
            "# {} seed={} trace={} {stamp} attempted={} failed={} fail_frac={fail_frac}",
            workload.name(),
            args.seed,
            u8::from(args.trace),
            outcome.attempted,
            outcome.failed
        );
        let prefix =
            if args.workloads.len() > 1 { format!("{}/", workload.name()) } else { String::new() };
        for note in &outcome.notes {
            println!("# {prefix}{note}");
        }
        for line in metric_lines(&prefix, &outcome) {
            println!("{line}");
        }
        outcomes.push((prefix, outcome));
    }
    println!("{}", result_json(&outcomes));
    if outcomes.iter().any(|(_, o)| o.failed > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
