//! The repository benchmark of `selprop-datalog`: two workloads that
//! drive the engine only through its public API, check every answer
//! against an oracle of their own, and report end-to-end metrics
//! (untraced run) or per-layer metrics (traced run). See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_churn|bound_queries> \
//!     --seed <n> --seconds <s> --trace <0|1> [--corrupt-oracle]
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result object; the line before it is the machine record.

mod bound;
mod churn;
mod common;
mod inputs;
mod layers;
mod oracle;

use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;

use common::Outcome;

/// Threads the benchmark ever runs at once (a writer and one reader).
pub const MAX_THREADS: usize = 2;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<(String, Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--corrupt-oracle" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, cfg, corrupt))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let (workload, cfg, corrupt) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if MAX_THREADS > nproc {
        eprintln!("perfbench: needs {MAX_THREADS} threads, this machine allows {nproc}");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(common::OUT_DIR) {
        eprintln!(
            "perfbench: run from the repository root ({}: {e})",
            common::OUT_DIR
        );
        return ExitCode::from(2);
    }
    oracle::CORRUPT_NEXT.store(corrupt, Ordering::Relaxed);

    let cpus = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("Cpus_allowed_list:")
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let machine = format!(
        "{{\"machine\":{{\"nproc\":{nproc},\"cpus_allowed_list\":{},\"rustc\":{},\"git_rev\":{},\"seed\":{},\"workload\":{},\"trace\":{},\"seconds\":{},\"threads\":{MAX_THREADS}}}}}",
        json_str(&cpus),
        json_str(&command_line("rustc", &["-V"])),
        // Only inside a git checkout: git would otherwise search the
        // directories above this one.
        json_str(&if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        }),
        cfg.seed,
        json_str(&workload),
        cfg.trace,
        cfg.seconds,
    );

    let out: Outcome = match workload.as_str() {
        "serve_churn" => churn::run(&cfg),
        "bound_queries" => bound::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    for n in &out.notes {
        eprintln!("perfbench[{workload}]: {n}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{machine}");
    println!(
        "{{\"error_rate\":{error_rate},\"attempted\":{},\"failed\":{}}}",
        out.attempted, out.failed
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
