//! Design-space exploration on one workload: sweep the approximator's GHB
//! size, confidence window and computation function the way §VI of the
//! paper does, and print the MPKI/error frontier. All points fan out on
//! the parallel sweep engine (`lva_sim::sweep`); the printed frontier is
//! in declaration order and identical for any `LVA_THREADS`.
//!
//! ```text
//! cargo run --release --example design_space [-- <benchmark>]
//! ```
//! where `<benchmark>` is one of the seven PARSEC kernel names
//! (default: canneal).

use lva::core::{ApproximatorConfig, ComputeFn, ConfidenceWindow};
use lva::sim::sweep::{run_sweep, SweepOptions};
use lva::sim::SimConfig;
use lva::workloads::{by_name, WorkloadScale, NAMES};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "canneal".into());
    let workload = by_name(&which, WorkloadScale::Test, 0).unwrap_or_else(|| {
        eprintln!("unknown benchmark {which}; pick one of:");
        for name in NAMES {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    });

    // The frontier grid, in print order.
    let mut points: Vec<(String, ApproximatorConfig)> = Vec::new();
    for ghb in [0usize, 1, 2, 4] {
        points.push((format!("GHB {ghb}"), ApproximatorConfig::with_ghb(ghb)));
    }
    for (label, w) in [
        ("window 5%", ConfidenceWindow::Relative(0.05)),
        ("window 10%", ConfidenceWindow::Relative(0.10)),
        ("window 20%", ConfidenceWindow::Relative(0.20)),
        ("window infinite", ConfidenceWindow::Infinite),
    ] {
        points.push((
            format!("{label} (ints gated too)"),
            ApproximatorConfig::with_confidence_window(w),
        ));
    }
    for (label, f) in [
        ("f = average (baseline)", ComputeFn::Average),
        ("f = last value", ComputeFn::LastValue),
        ("f = stride", ComputeFn::Stride),
        ("f = weighted average", ComputeFn::WeightedAverage),
    ] {
        points.push((
            label.to_owned(),
            ApproximatorConfig {
                compute: f,
                ..ApproximatorConfig::baseline()
            },
        ));
    }
    for degree in [0u32, 4, 16] {
        points.push((
            format!("degree {degree}"),
            ApproximatorConfig::with_degree(degree),
        ));
    }

    let sweep = run_sweep(&points, &SweepOptions::default(), |_, (_, cfg)| {
        workload.execute(&SimConfig::lva(cfg.clone()))
    });
    let summary = sweep.summary();

    println!("design-space exploration on {}\n", workload.name());
    println!(
        "{:<34} {:>12} {:>12} {:>10}",
        "configuration", "norm. MPKI", "coverage %", "error %"
    );
    for ((label, _), run) in points.iter().zip(sweep.into_values()) {
        println!(
            "{:<34} {:>12.4} {:>12.1} {:>10.2}",
            label,
            run.normalized_mpki(),
            run.stats.coverage() * 100.0,
            run.output_error * 100.0
        );
    }
    println!("\nsweep: {summary}");
}
