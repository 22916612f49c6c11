//! End-to-end and per-layer benchmark of the SCTM simulator.
//!
//! ```text
//! sctm-perfbench --workload flagship|heldout_apps|sweep --seed N --seconds S --trace 0|1
//!                [--sctmd PATH] [--work-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe off;
//! `--trace 1` runs the same operations through the layer probes of
//! [`layers`] and prints the per-layer metrics instead. Human-readable
//! detail goes to the first lines of stdout; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check prints `"correct": false` and exits with code 1.
//! `perfbench/run.py` builds this binary and `sctmd` and runs it; see
//! `perfbench/README.md` for what each workload and metric means.

mod apps;
mod calib;
mod layers;
mod probes;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

/// One metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness-check failures; empty means correct.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite value is a benchmark bug
/// and is reported as a check failure by [`run`], printed here as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Parsed command line of a benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sctmd` binary (the `sweep` workload and every traced run).
    pub sctmd: Option<PathBuf>,
    /// Scratch directory for request logs; removed when the run ends.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sctmd = None;
    let mut work_dir = PathBuf::from(".perfbench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--sctmd" => sctmd = Some(PathBuf::from(val()?)),
            "--work-dir" => work_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sctmd,
        work_dir,
    })
}

const WORKLOADS: [&str; 3] = ["flagship", "heldout_apps", "sweep"];

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "flagship" => apps::run(&apps::flagship(), args)?,
        "heldout_apps" => apps::run(&apps::heldout(), args)?,
        "sweep" => sweep::run(args)?,
        _ => unreachable!("parse_args validated the workload"),
    };
    let non_finite: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    out.check(
        non_finite.is_empty(),
        format!("non-finite metrics {non_finite:?}"),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(apps::CLASSIC_CHILD) => return apps::classic_child(&argv[1..]),
        Some(calib::CALIB_CHILD) => return calib::calib_child(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sctm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(out) => {
            println!("{}", out.json());
            if out.check_failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sctm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
