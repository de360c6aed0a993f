//! End-to-end and per-layer benchmark of the LVA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload p1-grid|fullsystem|serve --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --record-expected perfbench/expected.txt
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` measures half the time untraced and half
//! with spans around each layer's calls, then runs the layer probe table,
//! and reports the per-layer metrics. The last line of standard output is
//! the result; the lines before it hold metadata and details. See
//! `README.md` beside this file for every metric's definition.

mod expected;
mod fullsys;
mod grid;
mod host;
mod probes;
mod report;
mod serve;
mod speed;

use report::{num, object, string, Report};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Scratch files (the serve workload's disk caches) live here, relative
/// to the working directory, and are removed before exit.
const WORK_DIR: &str = ".perfbench-work";

/// End-to-end metrics and units, emitted by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("warm_submit_ms_p50", "ms"),
    ("warm_submit_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, emitted by every traced run. A metric of
/// a layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.setup_ms", "ms"),
    ("workloads.precise_ms", "ms"),
    ("workloads.mechanism_ms", "ms"),
    ("workloads.error_ms", "ms"),
    ("workloads.precise_share", "ratio"),
    ("harness.ns_per_load.precise", "ns"),
    ("harness.ns_per_load.lva", "ns"),
    ("harness.ns_per_load.lva-deg4", "ns"),
    ("harness.ns_per_load.clp", "ns"),
    ("harness.ns_per_load.lva-clp", "ns"),
    ("harness.ns_per_load.lva-govern2", "ns"),
    ("harness.ns_per_load.lva-budget5", "ns"),
    ("harness.loads", "count"),
    ("harness.raw_misses", "count"),
    ("harness.approximations", "count"),
    ("harness.fetches", "count"),
    ("harness.approx_coverage", "ratio"),
    ("core.approx_miss_train_ns.ghb0", "ns"),
    ("core.approx_miss_train_ns.ghb4", "ns"),
    ("core.clp_predict_verify_ns", "ns"),
    ("mem.read_value_ns", "ns"),
    ("mem.l1_hit_ns", "ns"),
    ("mem.l1_install_evict_ns", "ns"),
    ("mshr.inflight_churn_ns", "ns"),
    ("sweep.busy_share", "ratio"),
    ("sweep.workers", "count"),
    ("fs.trace_record_ms", "ms"),
    ("fs.run_ms.precise", "ms"),
    ("fs.run_ms.lva-deg4", "ms"),
    ("fs.host_ns_per_cycle", "ns"),
    ("fs.cpu_per_wall", "ratio"),
    ("fs.sys_share", "ratio"),
    ("noc.send_poll_ns", "ns"),
    ("fs.cycles", "count"),
    ("fs.instructions", "count"),
    ("fs.l1_load_misses", "count"),
    ("fs.approximated", "count"),
    ("fs.flit_hops", "count"),
    ("fs.dram_accesses", "count"),
    ("fs.head_stall_cycles", "count"),
    ("serve.evaluate_point_ms", "ms"),
    ("serve.fingerprint_ns", "ns"),
    ("serve.cache_get_mem_us", "us"),
    ("serve.cache_get_disk_us", "us"),
    ("serve.cache_put_us", "us"),
    ("serve.encode_outcome_ms", "ms"),
    ("obs.parse_json_ms", "ms"),
    ("obs.parse_json_ns_per_byte", "ns/B"),
    ("serve.ping_us_p50", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.deduped", "count"),
    ("host.cpu_per_wall", "ratio"),
    ("host.sys_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
}

/// Runs `pass` until another pass as long as the last would overrun
/// `budget`; always at least once. Returns every pass's result.
fn repeat_for<T>(budget: Duration, mut pass: impl FnMut() -> (T, Duration)) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let (value, took) = pass();
        out.push(value);
        if start.elapsed() + took > budget {
            return out;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let mode = match value("--trace")? {
        "0" => Mode::Plain,
        "1" => Mode::Traced,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds,
        mode,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--record-expected") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--record-expected needs a path");
            std::process::exit(2);
        };
        record_expected(path);
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload p1-grid|fullsystem|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    type Run = fn(u64, u64, Mode) -> Report;
    let (scale, run): (&str, Run) = match args.workload.as_str() {
        "p1-grid" => ("small", grid::run),
        "fullsystem" => ("test", fullsys::run),
        "serve" => ("test", serve::run),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let input_seed = args.seed % expected::INPUT_SEEDS;
    let meta = host::metadata(&args.workload, args.seed, input_seed, scale);
    println!(
        "{}",
        object([("meta", object(meta.iter().map(|(k, v)| (*k, string(v)))))])
    );
    let report = run(args.seed, args.seconds, args.mode);
    let _ = std::fs::remove_dir_all(WORK_DIR);
    emit(&report, args.mode);
}

/// Prints the details line and the result line. Every metric of the mode
/// is present; one the workload did not produce reads 0, and a
/// non-finite value counts as a failure.
fn emit(report: &Report, mode: Mode) {
    let list = match mode {
        Mode::Plain => END_TO_END,
        Mode::Traced => PER_LAYER,
    };
    let mut failed = report.failed;
    let metrics = list.iter().map(|&(name, unit)| {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (mode == Mode::Plain && value == 0.0) {
            failed += 1;
        }
        (
            name,
            object([("value", num(value)), ("unit", string(unit))]),
        )
    });
    let metrics = object(metrics.collect::<Vec<_>>());
    let attempted = report.attempted.max(1);
    let mut details: Vec<(String, String)> = report
        .details
        .iter()
        .map(|(k, v)| (k.clone(), num(*v)))
        .collect();
    // Reported here, not as a metric: at a healthy commit it reads 0.
    details.push(("failed_frac".into(), num(failed as f64 / attempted as f64)));
    println!("{}", object([("details", object(details))]));
    println!(
        "{}",
        object([
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics),
        ])
    );
}

/// Rewrites the correctness table from scratch for every input seed.
fn record_expected(path: &str) {
    let mut out = String::from(
        "# Digests of every simulated result, per input seed.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-expected perfbench/expected.txt\n\
         # workload input_seed index digest cycles\n",
    );
    for seed in 0..expected::INPUT_SEEDS {
        eprintln!("recording input seed {seed}");
        grid::record(seed, &mut out);
        fullsys::record(seed, &mut out);
        serve::record(seed, &mut out);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}
