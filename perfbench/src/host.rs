//! The host a run executes on: environment hygiene, the result stamp,
//! and peak memory.

use std::process::Command;

/// Variables that make the library measure a different program than the
/// one the benchmark configures (`KCORE_BACKEND` re-encodes the graph
/// even under `exact_config`), so a run refuses to start under them.
pub const FORBIDDEN_ENV: [&str; 4] =
    ["KCORE_BACKEND", "KCORE_TECHNIQUES", "KCORE_TRI_KERNEL", "KCORE_TRACE"];

/// Names of the forbidden variables that are set.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV.into_iter().filter(|v| std::env::var_os(v).is_some()).collect()
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The line every result is stamped with: cores, pool width, source
/// revision (`unknown` outside a git checkout) and compiler.
pub fn stamp(width: usize) -> String {
    format!(
        "nproc={} width={} git={} rustc={:?}",
        nproc(),
        width,
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
        first_line_of("rustc", &["--version"]),
    )
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB; 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
