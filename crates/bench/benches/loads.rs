//! `bench loads` — deterministic counters of the phase-1 load pipeline.
//!
//! Not a paper figure: each configuration runs the blackscholes kernel
//! once and records its load-path counters (`loads/...`, `degrade/...`,
//! `clp/...`, `govern/...`), which `lva-explore compare` gates in CI. The
//! bench times nothing; host cost per layer is measured by `perfbench`
//! (see `perfbench/README.md`).

use lva_bench::{banner, scale_from_env, FigureManifest};
use lva_core::{ApproximatorConfig, ClpConfig};
use lva_sim::{FaultConfig, GovernorConfig, SimConfig};
use lva_workloads::registry;

fn main() {
    banner(
        "loads — phase-1 load-path counters (blackscholes)",
        "load-path counter gate; not a paper figure",
    );
    let scale = scale_from_env();
    let workloads = registry(scale);
    let bs = &workloads[0];
    assert_eq!(bs.name(), "blackscholes");

    let mut manifest = FigureManifest::new("loadpath");
    for (label, cfg) in [
        ("precise", SimConfig::precise()),
        ("lva", SimConfig::baseline_lva()),
        ("lva-deg4", SimConfig::lva(ApproximatorConfig::with_degree(4))),
        // Degradation controller + seeded fault injection: the slowest
        // realistic phase-1 path (per-miss policing, per-train EWMA
        // feedback, three fault draws per event).
        (
            "lva-budget5",
            SimConfig::baseline_lva()
                .with_error_budget(0.05)
                .with_faults(FaultConfig::seeded(42).with_table_rate(1e-3)),
        ),
    ] {
        let run = bs.execute(&cfg);
        // execute() runs the kernel twice (precise reference + mechanism),
        // so both runs' loads count.
        let loads = run.stats.total.loads + run.precise_stats.total.loads;
        println!("{:<14} {label:<28} {loads:>12} loads/exec", "loadpath");
        manifest.push_stat(format!("loads/{label}/loads"), loads as f64);
        manifest.push_stat(
            format!("loads/{label}/instructions"),
            run.stats.total.instructions as f64,
        );
        manifest.push_stat(
            format!("loads/{label}/raw_misses"),
            run.stats.total.raw_misses as f64,
        );
        // Degradation-controller and fault counters are deterministic for a
        // fixed seed, so CI gates them like the loads/ counters above.
        let t = &run.stats.total;
        if t.has_robustness_events() {
            manifest.push_stat(format!("degrade/{label}/demotions"), t.demotions as f64);
            manifest.push_stat(format!("degrade/{label}/disables"), t.disables as f64);
            manifest.push_stat(format!("degrade/{label}/denied"), t.degrade_denied as f64);
            manifest.push_stat(
                format!("degrade/{label}/forced_fetches"),
                t.degrade_forced as f64,
            );
            manifest.push_stat(
                format!("degrade/{label}/faults_injected"),
                t.faults_injected as f64,
            );
        }
    }
    if let Err(e) = manifest.write() {
        eprintln!("  (manifest export failed: {e})");
    }

    // The cache-level-predictor family gets its own manifest
    // (`BENCH_clp.json`) so its deterministic counters gate in CI
    // alongside the loadpath/budget5 baselines without entangling the two
    // baseline files.
    let mut clp_manifest = FigureManifest::new("clp");
    for (label, cfg) in [
        ("clp", SimConfig::clp(ClpConfig::baseline())),
        (
            "lva-clp",
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        ),
    ] {
        let run = bs.execute(&cfg);
        let loads = run.stats.total.loads + run.precise_stats.total.loads;
        println!("{:<14} {label:<28} {loads:>12} loads/exec", "clp");
        let t = &run.stats.total;
        clp_manifest.push_stat(format!("clp/{label}/loads"), loads as f64);
        clp_manifest.push_stat(format!("clp/{label}/predictions"), t.clp_predictions as f64);
        clp_manifest.push_stat(format!("clp/{label}/correct"), t.clp_correct as f64);
        clp_manifest.push_stat(format!("clp/{label}/mispredicts"), t.clp_mispredicts as f64);
        clp_manifest.push_stat(
            format!("clp/{label}/load_latency_cycles"),
            t.load_latency_cycles as f64,
        );
    }
    if let Err(e) = clp_manifest.write() {
        eprintln!("  (clp manifest export failed: {e})");
    }

    // The closed-loop governor gets its own manifest (`BENCH_govern.json`):
    // `lva-govern2` runs the supervisor hot (2% SLO, short epochs), so the
    // gated `govern/...` counters pin the control law's whole actuation
    // sequence — epochs judged, rungs moved, probes reverted, PCs
    // disabled — against the committed baseline.
    let mut govern_manifest = FigureManifest::new("govern");
    {
        let label = "lva-govern2";
        let cfg = SimConfig::baseline_lva().with_govern(GovernorConfig {
            epoch_len: 200,
            min_samples: 8,
            ..GovernorConfig::slo(0.02)
        });
        let run = bs.execute(&cfg);
        let loads = run.stats.total.loads + run.precise_stats.total.loads;
        println!("{:<14} {label:<28} {loads:>12} loads/exec", "govern");
        let t = &run.stats.total;
        govern_manifest.push_stat(format!("govern/{label}/loads"), loads as f64);
        govern_manifest.push_stat(format!("govern/{label}/epochs"), t.govern_epochs as f64);
        govern_manifest.push_stat(
            format!("govern/{label}/actuations"),
            t.govern_actuations as f64,
        );
        govern_manifest.push_stat(format!("govern/{label}/tightens"), t.govern_tightens as f64);
        govern_manifest.push_stat(format!("govern/{label}/relaxes"), t.govern_relaxes as f64);
        govern_manifest.push_stat(format!("govern/{label}/reverts"), t.govern_reverts as f64);
        govern_manifest.push_stat(
            format!("govern/{label}/pc_disables"),
            t.govern_disables as f64,
        );
    }
    if let Err(e) = govern_manifest.write() {
        eprintln!("  (govern manifest export failed: {e})");
    }
    println!();
    println!("loads/, degrade/, clp/ and govern/ counters gate in CI.");
}
