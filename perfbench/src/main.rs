//! The repository benchmark: drives `ikrq serve` / `ikrq route` with one of
//! three seeded workloads, checks the answers, and prints every metric by
//! name and unit. The last line of stdout is the machine-readable result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//! ```
//!
//! Usage (normally through `python3 perfbench/run.py`, which builds the
//! binaries first):
//!
//! ```text
//! perfbench --workload koe-mega|toe-mega|wire-mall --seed N --seconds S --trace 0|1
//!           --ikrq PATH [--commit SHA]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload, then replays it with spans on and prints the per-layer metrics.
//! Venue files and traces go to [`WORK_DIR`] under the current directory;
//! the mega workloads' data sets stay there from one run to the next.

mod check;
mod inputs;
mod layers;
mod load;
mod proc;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Metric, Outcome, Run};

/// Where a run writes its venue files and trace.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    run: Run,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut values = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` expects a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing `--{name}`"))
    };
    let number = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse::<f64>()
            .map_err(|_| format!("`--{name}` expects a number"))
    };
    let seconds = number("seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("`--seconds` must be positive".into());
    }
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|_| "`--seed` expects a non-negative integer".to_string())?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` expects 0 or 1, got `{other}`")),
    };
    let workload = get("workload")?;
    Ok(Args {
        run: Run {
            ikrq: PathBuf::from(get("ikrq")?),
            dir: PathBuf::from(WORK_DIR).join(format!("{workload}-seed{seed}")),
            data: PathBuf::from(WORK_DIR).join("dataset"),
            seed,
            seconds,
            trace,
        },
        workload,
        commit: values
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    if let Err(error) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {error}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let result = workloads::run_workload(&args.workload, run);
    // The venue files are inputs of this run only.
    let _ = std::fs::remove_dir_all(&run.dir);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = if run.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if metrics.iter().any(|(_, value, _)| !value.is_finite()) {
        outcome
            .notes
            .push("INVALID: a metric is not a finite number".into());
    }
    let metrics: Vec<Metric> = metrics
        .iter()
        .map(|&(name, value, unit)| (name, if value.is_finite() { value } else { 0.0 }, unit))
        .collect();
    println!(
        "# workload={} seed={} seconds={} trace={} offered_rate={} host_cores={} commit={}",
        args.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if args.workload == "wire-mall" {
            format!("{}/s", workloads::WIRE_RATE)
        } else {
            "closed-loop".into()
        },
        ikrq_bench::http_load::host_cores(),
        args.commit
    );
    for (kind, count) in &outcome.failures {
        outcome.notes.push(format!("FAILED: {count} x {kind}"));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}
