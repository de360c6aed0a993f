//! Determinism suite: the parallel sweep engine must produce byte-identical
//! statistics regardless of worker count, and workload kernels must be
//! reproducible from their seed. These tests are what lets every figure
//! bench fan out across threads without perturbing the paper's numbers.

use lva::core::{ApproximatorConfig, ClpConfig, ConfidenceWindow, LvpConfig, Pc, ValueType};
use lva::sim::sweep::{run_sweep, SweepOptions};
use lva::sim::{FaultConfig, MechanismKind, Phase1Stats, SimConfig, SimHarness, SweepSpec};
use lva::workloads::{registry, registry_seeded, WorkloadScale};

/// A small but non-trivial grid: several mechanisms x value delays, crossed
/// with every workload in the registry at test scale.
fn fixed_grid() -> Vec<SimConfig> {
    let mut configs = SweepSpec::new()
        .degrees(&[0, 4])
        .value_delays(&[4, 16])
        .build();
    configs.push(SimConfig {
        mechanism: MechanismKind::Precise,
        ..SimConfig::default()
    });
    configs.push(SimConfig::lvp(lva::core::LvpConfig::baseline()));
    configs
}

/// Runs the full (config x workload) grid with a given worker count and
/// returns one canonical fingerprint string per point, in grid order.
fn grid_fingerprints(workers: usize) -> Vec<String> {
    let workloads = registry(WorkloadScale::Test);
    let configs = fixed_grid();
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    let options = SweepOptions {
        workers: Some(workers),
        progress: false,
    };
    let sweep = run_sweep(&grid, &options, |_, &(c, w)| {
        workloads[w].execute(&configs[c]).stats.fingerprint()
    });
    sweep.into_values()
}

/// All 25 (mechanism, parameter) points behind Figs. 4, 6, 7 and 8, plus
/// the precise baseline — the exact grid whose statistics the paper's
/// plots are built from.
fn figure_configs() -> Vec<(&'static str, SimConfig)> {
    let mut v: Vec<(&'static str, SimConfig)> = Vec::new();
    for (name, g) in [
        ("fig4/lvp-ghb0", 0usize),
        ("fig4/lvp-ghb1", 1),
        ("fig4/lvp-ghb2", 2),
        ("fig4/lvp-ghb4", 4),
    ] {
        v.push((name, SimConfig::lvp(LvpConfig::with_ghb(g))));
    }
    for (name, g) in [
        ("fig4/lva-ghb0", 0usize),
        ("fig4/lva-ghb1", 1),
        ("fig4/lva-ghb2", 2),
        ("fig4/lva-ghb4", 4),
    ] {
        v.push((name, SimConfig::lva(ApproximatorConfig::with_ghb(g))));
    }
    for (name, w) in [
        ("fig6/lva-win05", ConfidenceWindow::Relative(0.05)),
        ("fig6/lva-win10", ConfidenceWindow::Relative(0.10)),
        ("fig6/lva-win20", ConfidenceWindow::Relative(0.20)),
        ("fig6/lva-wininf", ConfidenceWindow::Infinite),
    ] {
        v.push((name, SimConfig::lva(ApproximatorConfig::with_confidence_window(w))));
    }
    for (name, d) in [
        ("fig7/delay4", 4u64),
        ("fig7/delay8", 8),
        ("fig7/delay16", 16),
        ("fig7/delay32", 32),
    ] {
        v.push((name, SimConfig::baseline_lva().with_value_delay(d)));
    }
    for (pname, aname, d) in [
        ("fig8/prefetch2", "fig8/approx2", 2u32),
        ("fig8/prefetch4", "fig8/approx4", 4),
        ("fig8/prefetch8", "fig8/approx8", 8),
        ("fig8/prefetch16", "fig8/approx16", 16),
    ] {
        v.push((pname, SimConfig::prefetch(d)));
        v.push((aname, SimConfig::lva(ApproximatorConfig::with_degree(d))));
    }
    v.push(("precise", SimConfig::precise()));
    v
}

/// The 25 figure points re-run under the level-predictor family: every
/// LVA point becomes the `lva+clp` hybrid (same approximator, baseline
/// predictor), every other mechanism becomes standalone `clp` at the
/// same value delay. Together the two spellings cover both new
/// `MechanismKind` variants over the full figure parameter space.
fn clp_figure_configs() -> Vec<(String, SimConfig)> {
    figure_configs()
        .into_iter()
        .map(|(name, cfg)| match cfg.mechanism.clone() {
            MechanismKind::Lva(a) => (
                format!("lva+clp/{name}"),
                SimConfig {
                    mechanism: MechanismKind::LvaClp(a, ClpConfig::baseline()),
                    ..cfg
                },
            ),
            _ => (
                format!("clp/{name}"),
                SimConfig {
                    mechanism: MechanismKind::Clp(ClpConfig::baseline()),
                    ..cfg
                },
            ),
        })
        .collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order), per figure configuration — captured on the commit
/// *before* the load-pipeline fast-path rework (Vec pending queue +
/// HashSet in-flight set). The rework must reproduce them bit for bit.
const GOLDEN_FINGERPRINT_HASHES: [(&str, u64); 25] = [
    ("fig4/lvp-ghb0", 0x766ffafec614658e),
    ("fig4/lvp-ghb1", 0x342a3221609fc706),
    ("fig4/lvp-ghb2", 0x7e8f84b67b85eb59),
    ("fig4/lvp-ghb4", 0x8407c1d72b465fd5),
    ("fig4/lva-ghb0", 0xbbb7b57afbefafb6),
    ("fig4/lva-ghb1", 0x493d7f0d81d809b4),
    ("fig4/lva-ghb2", 0x287f561d54ca85b6),
    ("fig4/lva-ghb4", 0xc93318a2136210d6),
    ("fig6/lva-win05", 0x0d81a1c533cfaf78),
    ("fig6/lva-win10", 0xd1226ab8ad4596ce),
    ("fig6/lva-win20", 0x9ac39bf4d705169b),
    ("fig6/lva-wininf", 0xea389e44b0799e5c),
    ("fig7/delay4", 0xbbb7b57afbefafb6),
    ("fig7/delay8", 0x9b9f87b5224f6eb3),
    ("fig7/delay16", 0xcf2f031bb525529c),
    ("fig7/delay32", 0xf80fde105f3d7870),
    ("fig8/prefetch2", 0x7079ffc1ba1d648f),
    ("fig8/approx2", 0xdc4fa997cbb455d4),
    ("fig8/prefetch4", 0xe3c7e7eb47ff9d7e),
    ("fig8/approx4", 0xe1e4b93b5e995386),
    ("fig8/prefetch8", 0x1ce83dfda6de40d5),
    ("fig8/approx8", 0x65a6a4acfa05644b),
    ("fig8/prefetch16", 0x6cc3a53cf9d51e34),
    ("fig8/approx16", 0x4410bd5209d27725),
    ("precise", 0x034e86a36702b401),
];

#[test]
fn figure_fingerprints_match_pre_rework_goldens_across_worker_counts() {
    // The hard correctness bar for the fast-path rework: every fig4/6/7/8
    // configuration must produce byte-identical `Phase1Stats::fingerprint`
    // strings to the pre-rework pending-queue implementation, under every
    // worker count. The hashes above were captured on the old code.
    let workloads = registry(WorkloadScale::Test);
    let configs = figure_configs();
    assert_eq!(configs.len(), GOLDEN_FINGERPRINT_HASHES.len());
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pieces = run_sweep(&grid, &options, |_, &(c, w)| {
            format!(
                "{}:{}",
                workloads[w].name(),
                workloads[w].execute(&configs[c].1).stats.fingerprint()
            )
        })
        .into_values();
        for (c, chunk) in pieces.chunks(workloads.len()).enumerate() {
            let (name, golden) = GOLDEN_FINGERPRINT_HASHES[c];
            assert_eq!(configs[c].0, name, "golden table out of sync");
            assert_eq!(
                fnv1a64(chunk.concat().as_bytes()),
                golden,
                "{name}: fingerprints diverged from the pre-rework goldens \
                 (workers={workers})"
            );
        }
    }
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) for every [`clp_figure_configs`] point — captured when
/// the cache-level predictor family landed. Non-LVA figure points map to
/// the same standalone-clp configuration, so their hashes legitimately
/// repeat; what matters is that every one of them is pinned.
const GOLDEN_CLP_FINGERPRINT_HASHES: [(&str, u64); 25] = [
    ("clp/fig4/lvp-ghb0", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb1", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb2", 0xcbe1c20119733aaa),
    ("clp/fig4/lvp-ghb4", 0xcbe1c20119733aaa),
    ("lva+clp/fig4/lva-ghb0", 0x7015ea468ee94286),
    ("lva+clp/fig4/lva-ghb1", 0x2bf14cb888f669a9),
    ("lva+clp/fig4/lva-ghb2", 0xef9593e45dfd62c4),
    ("lva+clp/fig4/lva-ghb4", 0x41555d1ecd438f72),
    ("lva+clp/fig6/lva-win05", 0x8ea670b676cae212),
    ("lva+clp/fig6/lva-win10", 0x734212e43d2a4d0a),
    ("lva+clp/fig6/lva-win20", 0xbfcabcc4b9b411c1),
    ("lva+clp/fig6/lva-wininf", 0x93d12330f9a7a77a),
    ("lva+clp/fig7/delay4", 0x7015ea468ee94286),
    ("lva+clp/fig7/delay8", 0x69b673c8973e7a04),
    ("lva+clp/fig7/delay16", 0x5c036e100f22bbcb),
    ("lva+clp/fig7/delay32", 0x3a3911e4a86b5656),
    ("clp/fig8/prefetch2", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx2", 0x66261d957b84ec85),
    ("clp/fig8/prefetch4", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx4", 0x9421898070d53fe8),
    ("clp/fig8/prefetch8", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx8", 0x4e838f1a69d902de),
    ("clp/fig8/prefetch16", 0xcbe1c20119733aaa),
    ("lva+clp/fig8/approx16", 0x108f1a39e4344438),
    ("clp/precise", 0xcbe1c20119733aaa),
];

#[test]
fn clp_figure_fingerprints_are_pinned_across_worker_counts() {
    // The level-predictor counterpart of the golden-table test above:
    // every clp / lva+clp figure point must reproduce its pinned hash
    // under 1, 2 and 8 sweep workers. The predictor's table state is a
    // function of the per-thread miss stream alone, so worker scheduling
    // must not be able to leak into these.
    let workloads = registry(WorkloadScale::Test);
    let configs = clp_figure_configs();
    assert_eq!(configs.len(), GOLDEN_CLP_FINGERPRINT_HASHES.len());
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pieces = run_sweep(&grid, &options, |_, &(c, w)| {
            format!(
                "{}:{}",
                workloads[w].name(),
                workloads[w].execute(&configs[c].1).stats.fingerprint()
            )
        })
        .into_values();
        for (c, chunk) in pieces.chunks(workloads.len()).enumerate() {
            let (name, golden) = GOLDEN_CLP_FINGERPRINT_HASHES[c];
            assert_eq!(configs[c].0, name, "golden table out of sync");
            assert_eq!(
                fnv1a64(chunk.concat().as_bytes()),
                golden,
                "{name}: clp fingerprints diverged (workers={workers}); \
                 captured hash {:#018x}",
                fnv1a64(chunk.concat().as_bytes())
            );
        }
    }
}

/// Runs a synthetic kernel that keeps the maximum number of training
/// fetches in flight: every odd load opens a fresh block (miss -> possible
/// background fetch), every even load touches the same block again while
/// the fill is still outstanding (MSHR merge).
fn mshr_stress_fingerprint(cfg: &SimConfig) -> String {
    let mut h = SimHarness::new(cfg.clone());
    let base = h.alloc(64 * 2048, 64);
    for i in 0..2048u64 {
        h.memory_mut().write_f32(base.offset(i * 64), (i % 5) as f32);
    }
    for i in 0..2048u64 {
        h.load(Pc(7), base.offset(i * 64), ValueType::F32, true);
        h.load(Pc(9), base.offset(i * 64 + 4), ValueType::F32, true);
    }
    let run = h.finish();
    assert!(run.stats.total.l1_hits > 0, "stress kernel must merge/hit");
    run.stats.fingerprint()
}

#[test]
fn random_value_delay_configs_replay_identically_at_mshr_capacity() {
    // Proptest-style loop: seeded random (value_delay, degree) draws, with
    // delays well past the in-flight set's initial capacity, must replay
    // bit-for-bit and stay insensitive to harness-internal data structures.
    let mut rng = lva::core::Rng64::new(0x0d15_ea5e);
    for case in 0..12 {
        let delay = 1 + rng.gen_u64() % 96;
        let degree = (rng.gen_u64() % 5) as u32 * 4;
        let cfg = SimConfig::lva(ApproximatorConfig {
            degree,
            ..ApproximatorConfig::baseline()
        })
        .with_value_delay(delay);
        let first = mshr_stress_fingerprint(&cfg);
        let second = mshr_stress_fingerprint(&cfg);
        assert_eq!(
            first, second,
            "case {case}: value_delay={delay} degree={degree} not reproducible"
        );
    }
}

#[test]
fn sweep_is_identical_for_1_2_and_8_workers() {
    let base = grid_fingerprints(1);
    assert!(!base.is_empty());
    for workers in [2, 8] {
        let other = grid_fingerprints(workers);
        assert_eq!(
            base, other,
            "sweep results diverged between 1 and {workers} worker threads"
        );
    }
}

#[test]
fn sweep_outcomes_are_in_grid_order_with_8_workers() {
    // Uneven per-point cost so work-stealing actually reorders completion.
    let grid: Vec<u64> = (0..64).map(|i| (i * 37) % 64).collect();
    let options = SweepOptions {
        workers: Some(8),
        progress: false,
    };
    let sweep = run_sweep(&grid, &options, |_, &n| {
        let mut acc = 0u64;
        for i in 0..(n * 1000 + 1) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        (n, acc)
    });
    for (i, outcome) in sweep.outcomes.iter().enumerate() {
        assert_eq!(outcome.index, i);
        assert_eq!(outcome.value.0, grid[i]);
    }
}

#[test]
fn stats_equality_matches_fingerprint_equality() {
    let workloads = registry(WorkloadScale::Test);
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let a: Vec<Phase1Stats> = workloads.iter().map(|w| w.execute(&cfg).stats).collect();
    let b: Vec<Phase1Stats> = workloads.iter().map(|w| w.execute(&cfg).stats).collect();
    // Structural equality (PartialEq) and canonical-string equality agree.
    assert_eq!(a, b);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fingerprint(), y.fingerprint());
    }
}

#[test]
fn kernels_are_reproducible_from_seed() {
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    for seed in [1u64, 0xdead_beef] {
        let first: Vec<(String, String)> = registry_seeded(WorkloadScale::Test, seed)
            .iter()
            .map(|w| (w.name().to_owned(), w.execute(&cfg).stats.fingerprint()))
            .collect();
        let second: Vec<(String, String)> = registry_seeded(WorkloadScale::Test, seed)
            .iter()
            .map(|w| (w.name().to_owned(), w.execute(&cfg).stats.fingerprint()))
            .collect();
        assert_eq!(first, second, "same seed {seed} must replay identically");
    }
}

#[test]
fn different_seeds_change_the_workload() {
    // Sanity check that the seed actually feeds the kernels: at least one
    // workload must produce different memory behaviour under a new seed.
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let a: Vec<String> = registry_seeded(WorkloadScale::Test, 1)
        .iter()
        .map(|w| w.execute(&cfg).stats.fingerprint())
        .collect();
    let b: Vec<String> = registry_seeded(WorkloadScale::Test, 2)
        .iter()
        .map(|w| w.execute(&cfg).stats.fingerprint())
        .collect();
    assert_ne!(a, b, "seeds 1 and 2 produced identical fingerprints");
}

#[test]
fn metrics_collection_never_perturbs_results() {
    // Observability must be write-only: a sweep that exports every stat
    // into a MetricsRegistry (per-point and engine-level) must leave the
    // canonical fingerprints byte-identical to a metrics-off run.
    use lva::obs::MetricsRegistry;
    let workloads = registry(WorkloadScale::Test);
    let configs = fixed_grid();
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    let options = SweepOptions {
        workers: Some(4),
        progress: false,
    };

    let off = run_sweep(&grid, &options, |_, &(c, w)| {
        workloads[w].execute(&configs[c]).stats.fingerprint()
    })
    .into_values();

    let on = run_sweep(&grid, &options, |_, &(c, w)| {
        let run = workloads[w].execute(&configs[c]);
        let mut registry = MetricsRegistry::new();
        run.stats.record_metrics(&mut registry, "phase1");
        run.precise_stats.record_metrics(&mut registry, "precise");
        assert!(!registry.is_empty(), "metrics export produced nothing");
        run.stats.fingerprint()
    });
    // Exporting the engine's own profile must not touch outcomes either.
    let mut engine = MetricsRegistry::new();
    on.record_metrics(&mut engine);
    assert!(!engine.is_empty());

    assert_eq!(
        off,
        on.into_values(),
        "metrics collection changed simulation results"
    );
}

#[test]
fn event_tracing_never_perturbs_results() {
    // The tentpole invariant: per-load event tracing is strictly off the
    // deterministic path. The same grid run trace-off, with per-core ring
    // buffers, and with full per-PC attribution must produce byte-identical
    // canonical fingerprints — and the traced runs must actually collect.
    use lva::obs::{PcAttribution, TraceConfig};
    let workloads = registry(WorkloadScale::Test);
    let configs = fixed_grid();
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    let options = SweepOptions {
        workers: Some(4),
        progress: false,
    };

    let off = run_sweep(&grid, &options, |_, &(c, w)| {
        workloads[w].execute(&configs[c]).stats.fingerprint()
    })
    .into_values();

    let ring = run_sweep(&grid, &options, |_, &(c, w)| {
        let cfg = configs[c].clone().with_trace(TraceConfig::ring(1024));
        let run = workloads[w].execute(&cfg);
        let events: usize = run.collectors.iter().map(|col| col.events().len()).sum();
        assert!(events > 0, "ring tracing collected nothing");
        run.stats.fingerprint()
    })
    .into_values();
    assert_eq!(off, ring, "ring-buffer tracing changed simulation results");

    let attributed = run_sweep(&grid, &options, |_, &(c, w)| {
        let cfg = configs[c].clone().with_trace(TraceConfig::attribution());
        let run = workloads[w].execute(&cfg);
        let mut merged = PcAttribution::new();
        for col in &run.collectors {
            if let Some(a) = col.attribution() {
                merged.merge(a);
            }
        }
        assert_eq!(
            merged.total_misses(),
            run.stats.total.raw_misses,
            "attribution must account for every miss"
        );
        run.stats.fingerprint()
    })
    .into_values();
    assert_eq!(off, attributed, "attribution tracing changed simulation results");
}

#[test]
fn sampled_tracing_never_perturbs_results() {
    // Sampling policies (every-Nth-miss, PC filters) gate what the sinks
    // *record*, never what the simulator computes.
    use lva::obs::TraceConfig;
    let cfg = SimConfig::lva(ApproximatorConfig::baseline());
    let workloads = registry(WorkloadScale::Test);
    for w in &workloads {
        let plain = w.execute(&cfg).stats.fingerprint();
        let sampled_cfg = cfg
            .clone()
            .with_trace(TraceConfig::ring(256).with_every_nth_miss(7).with_pc_filter(&[0x1004]));
        let sampled = w.execute(&sampled_cfg).stats.fingerprint();
        assert_eq!(plain, sampled, "{}: sampled tracing diverged", w.name());
    }
}

/// Robustness configurations: quality-budget degradation controller plus
/// seeded fault injection, exercising all three fault classes.
fn robustness_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "budget5/table",
            SimConfig::baseline_lva()
                .with_error_budget(0.05)
                .with_faults(FaultConfig::seeded(42).with_table_rate(1e-3)),
        ),
        (
            "budget1/drop-delay",
            SimConfig::baseline_lva()
                .with_error_budget(0.01)
                .with_faults(FaultConfig::seeded(7).with_drop_rate(0.02).with_delay(0.05, 16)),
        ),
    ]
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) per robustness configuration — captured when the
/// degradation controller and fault injector first landed. The injector
/// derives its streams from `(seed, thread)` alone, so these must hold
/// under any sweep worker count.
const GOLDEN_ROBUSTNESS_HASHES: [(&str, u64); 2] = [
    ("budget5/table", 0x2defc721cbbf4f89),
    ("budget1/drop-delay", 0x7c133a2e527debde),
];

#[test]
fn fault_injection_fingerprints_are_pinned_across_worker_counts() {
    let workloads = registry(WorkloadScale::Test);
    let configs = robustness_configs();
    assert_eq!(configs.len(), GOLDEN_ROBUSTNESS_HASHES.len());
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pieces = run_sweep(&grid, &options, |_, &(c, w)| {
            let run = workloads[w].execute(&configs[c].1);
            format!("{}:{}", workloads[w].name(), run.stats.fingerprint())
        })
        .into_values();
        for (c, chunk) in pieces.chunks(workloads.len()).enumerate() {
            let (name, golden) = GOLDEN_ROBUSTNESS_HASHES[c];
            assert_eq!(configs[c].0, name, "golden table out of sync");
            assert_eq!(
                fnv1a64(chunk.concat().as_bytes()),
                golden,
                "{name}: fault-injection fingerprints diverged (workers={workers}); \
                 captured hash {:#018x}",
                fnv1a64(chunk.concat().as_bytes())
            );
        }
    }
}

#[test]
fn fault_injection_actually_fires() {
    // Guards the golden hashes above against vacuity: across the registry,
    // the table-fault configuration must inject corruptions and the
    // drop/delay one must lose drains and delay fetches. (Per-workload
    // counts can legitimately be zero at test scale — swaptions sees too
    // few train events for a 1e-3 rate to hit.)
    let configs = robustness_configs();
    let mut injected = 0u64;
    let mut dropped = 0u64;
    let mut delayed = 0u64;
    for w in registry(WorkloadScale::Test) {
        injected += w.execute(&configs[0].1).stats.total.faults_injected;
        let t = w.execute(&configs[1].1).stats.total.clone();
        dropped += t.drains_dropped;
        delayed += t.fetches_delayed;
    }
    assert!(injected > 0, "no table faults fired anywhere");
    assert!(dropped > 0, "no training drains dropped anywhere");
    assert!(delayed > 0, "no fetches delayed anywhere");
}

#[test]
fn quiet_controller_is_fingerprint_identical_to_controller_off() {
    // The degradation controller must be invisible until it acts: with a
    // budget no relative error can reach (samples clamp at 1e3) and no
    // faults, every workload's fingerprint matches a controller-off run
    // byte for byte — including the absence of the `dg=[…]` suffix.
    let off = SimConfig::baseline_lva();
    let on = SimConfig::baseline_lva().with_error_budget(1e4);
    for w in registry(WorkloadScale::Test) {
        let a = w.execute(&off).stats.fingerprint();
        let b = w.execute(&on).stats.fingerprint();
        assert_eq!(a, b, "{}: quiet controller perturbed the run", w.name());
    }
}

/// Governed configurations: an actively-tightening closed loop (2% SLO,
/// short epochs so test-scale runs cross many of them) and a quiet
/// top-rung observer that must never act.
fn governed_configs() -> Vec<(&'static str, SimConfig)> {
    let govern2 = lva::sim::GovernorConfig {
        epoch_len: 200,
        min_samples: 8,
        ..lva::sim::GovernorConfig::slo(0.02)
    };
    vec![
        ("govern2", SimConfig::baseline_lva().with_govern(govern2)),
        ("govern-quiet", SimConfig::baseline_lva().with_govern_slo(10.0)),
    ]
}

/// FNV-1a64 of `<name>:<fingerprint>` over all 7 workloads (test scale,
/// registry order) per governed configuration, captured when the
/// governor landed. The epoch clock runs on each thread's load clock, so
/// these must hold under any sweep worker count.
const GOLDEN_GOVERNED_HASHES: [(&str, u64); 2] = [
    ("govern2", 0x6b7f1398fe41b267),
    ("govern-quiet", 0xbbb7b57afbefafb6),
];

#[test]
fn governed_fingerprints_are_pinned_across_worker_counts() {
    let workloads = registry(WorkloadScale::Test);
    let configs = governed_configs();
    assert_eq!(configs.len(), GOLDEN_GOVERNED_HASHES.len());
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pieces = run_sweep(&grid, &options, |_, &(c, w)| {
            let run = workloads[w].execute(&configs[c].1);
            format!("{}:{}", workloads[w].name(), run.stats.fingerprint())
        })
        .into_values();
        for (c, chunk) in pieces.chunks(workloads.len()).enumerate() {
            let (name, golden) = GOLDEN_GOVERNED_HASHES[c];
            assert_eq!(configs[c].0, name, "golden table out of sync");
            assert_eq!(
                fnv1a64(chunk.concat().as_bytes()),
                golden,
                "{name}: governed fingerprints diverged (workers={workers}); \
                 captured hash {:#018x}",
                fnv1a64(chunk.concat().as_bytes())
            );
        }
    }
}

#[test]
fn quiet_governor_is_fingerprint_identical_to_governor_off() {
    // The supervisory governor must be invisible until it acts: with an
    // SLO no training error can breach (samples clamp at 1e3), the ladder
    // never leaves its top rung and every workload's fingerprint matches
    // a governor-off run byte for byte — including the absence of the
    // `gv=[…]` suffix. The active `govern2` config above is the converse
    // guard: it must actuate somewhere, or the golden hashes are vacuous.
    let off = SimConfig::baseline_lva();
    let (_, quiet) = &governed_configs()[1];
    let (_, active) = &governed_configs()[0];
    let mut actuations = 0u64;
    for w in registry(WorkloadScale::Test) {
        let a = w.execute(&off).stats.fingerprint();
        let b = w.execute(quiet).stats.fingerprint();
        assert_eq!(a, b, "{}: quiet governor perturbed the run", w.name());
        actuations += w.execute(active).stats.total.govern_actuations;
    }
    assert!(actuations > 0, "the active governor never actuated anywhere");
}

#[test]
fn worker_count_env_override_is_respected() {
    // worker_count(explicit) must prefer the explicit value over the env.
    assert_eq!(lva::sim::worker_count(Some(3)), 3);
    assert!(lva::sim::worker_count(None) >= 1);
}

#[test]
fn timeline_sampling_never_perturbs_results() {
    // Epoch sampling must be write-only, exactly like metrics and traces:
    // the 25 figure points re-run with a load-clock timeline attached must
    // reproduce the pinned pre-rework golden hashes under every worker
    // count — and actually collect frames while doing so.
    use lva::obs::TimelineConfig;
    let workloads = registry(WorkloadScale::Test);
    let configs = figure_configs();
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    for workers in [1usize, 2, 8] {
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pieces = run_sweep(&grid, &options, |_, &(c, w)| {
            let cfg = configs[c]
                .1
                .clone()
                .with_timeline(TimelineConfig::every(512));
            let run = workloads[w].execute(&cfg);
            assert!(
                run.timelines.iter().any(|tl| !tl.is_empty()),
                "timeline sampling collected nothing"
            );
            format!("{}:{}", workloads[w].name(), run.stats.fingerprint())
        })
        .into_values();
        for (c, chunk) in pieces.chunks(workloads.len()).enumerate() {
            let (name, golden) = GOLDEN_FINGERPRINT_HASHES[c];
            assert_eq!(configs[c].0, name, "golden table out of sync");
            assert_eq!(
                fnv1a64(chunk.concat().as_bytes()),
                golden,
                "{name}: timeline-on fingerprints diverged from the pinned \
                 goldens (workers={workers})"
            );
        }
    }
}

#[test]
fn fullsystem_timeline_never_perturbs_results() {
    // The cycle-domain counterpart: a full-system replay with epoch
    // sampling attached must produce statistics identical to a plain run,
    // and the frames must decompose the run exactly (deltas sum to the
    // end-of-run aggregates).
    use lva::core::ApproximatorConfig;
    use lva::obs::TimelineConfig;
    use lva::sim::{FullSystem, FullSystemConfig, MechanismKind};
    for w in registry(WorkloadScale::Test) {
        let recorded = w.execute(&SimConfig::precise().with_traces());
        let mech = MechanismKind::Lva(ApproximatorConfig::baseline());
        let plain = FullSystem::new(FullSystemConfig::paper(mech.clone()), recorded.traces.clone())
            .run()
            .expect("plain replay converges");
        let (sampled, timeline) = FullSystem::new(
            FullSystemConfig::paper(mech).with_timeline(TimelineConfig::every(4096)),
            recorded.traces,
        )
        .run_with_timeline()
        .expect("sampled replay converges");
        assert_eq!(plain, sampled, "{}: timeline perturbed the replay", w.name());
        assert!(!timeline.is_empty(), "{}: no frames collected", w.name());
        assert_eq!(timeline.sum_counter("fs/cycles"), sampled.cycles, "{}", w.name());
        assert_eq!(
            timeline.sum_counter("fs/instructions"),
            sampled.instructions,
            "{}",
            w.name()
        );
    }
}

/// Full-system replay configurations pinned by `fullsystem_stats_are_pinned`:
/// the Fig. 10 pair, the MESI ablation, an actively-tightening governor and
/// a timeline-on run.
fn fullsystem_configs() -> Vec<(&'static str, lva::sim::FullSystemConfig)> {
    use lva::obs::TimelineConfig;
    use lva::sim::{FullSystemConfig, GovernorConfig};
    let deg4 = || FullSystemConfig::paper(MechanismKind::Lva(ApproximatorConfig::with_degree(4)));
    vec![
        ("precise", FullSystemConfig::paper(MechanismKind::Precise)),
        ("lva-deg4", deg4()),
        ("lva-deg4-mesi", deg4().with_mesi()),
        (
            "lva-deg4-govern",
            deg4().with_govern(GovernorConfig {
                epoch_len: 2000,
                min_samples: 8,
                hysteresis_epochs: 1,
                ..GovernorConfig::slo(0.001)
            }),
        ),
        (
            "lva-deg4-timeline",
            deg4().with_timeline(TimelineConfig::every(4096)),
        ),
    ]
}

/// FNV-1a64 of `format!("{stats:?}")` (plus `format!("{timeline:?}")` for
/// the timeline-on run) per replayed kernel, captured while each cycle
/// still ran every core's dispatch phase before any core's issue phase.
const GOLDEN_FULLSYSTEM_HASHES: [(&str, &str, u64); 10] = [
    ("blackscholes", "precise", 0xbdc5ad2aba6283f7),
    ("blackscholes", "lva-deg4", 0xda879f8f086acb66),
    ("blackscholes", "lva-deg4-mesi", 0xda879f8f086acb66),
    ("blackscholes", "lva-deg4-govern", 0x4fdb45f6ae7f5fa6),
    ("blackscholes", "lva-deg4-timeline", 0xfd7604022c43d6f8),
    ("canneal", "precise", 0xe38b347cc39448c8),
    ("canneal", "lva-deg4", 0xaecbaca6c16f6843),
    ("canneal", "lva-deg4-mesi", 0x7523712259142fe2),
    ("canneal", "lva-deg4-govern", 0x27adec447dec9204),
    ("canneal", "lva-deg4-timeline", 0x06cc64973d520326),
];

#[test]
fn fullsystem_stats_are_pinned() {
    // No phase-1 golden covers `FullSystemStats`: replay two kernels'
    // recorded traces (blackscholes' private data, canneal's shared
    // netlist) under each configuration and pin the whole statistics
    // record, timeline frames included.
    use lva::sim::FullSystem;
    let configs = fullsystem_configs();
    let mut hashes = Vec::new();
    let mut actuations = 0;
    for w in registry(WorkloadScale::Test) {
        if !["blackscholes", "canneal"].contains(&w.name()) {
            continue;
        }
        let traces = w.execute(&SimConfig::precise().with_traces()).traces;
        for (name, cfg) in &configs {
            let (stats, timeline) = FullSystem::new(cfg.clone(), traces.clone())
                .run_with_timeline()
                .expect("replay converges");
            assert_eq!(timeline.is_empty(), cfg.timeline.is_none(), "{name}");
            actuations += stats.govern_actuations;
            let text = format!("{stats:?}{timeline:?}");
            hashes.push((w.name(), *name, fnv1a64(text.as_bytes())));
        }
    }
    assert!(actuations > 0, "the governed replay never actuated");
    assert_eq!(hashes.len(), GOLDEN_FULLSYSTEM_HASHES.len());
    for (got, want) in hashes.iter().zip(GOLDEN_FULLSYSTEM_HASHES) {
        assert_eq!(
            *got, want,
            "full-system statistics diverged; captured {:#018x}",
            got.2
        );
    }
}

/// The configurations the precise-reference memo must be invisible under:
/// one per mechanism family, each robustness and observability knob, the
/// trace-recording precise run that phase 2 replays, and two whose
/// references differ from the rest (another value delay and L1 geometry).
fn memo_configs() -> Vec<(&'static str, SimConfig)> {
    use lva::obs::{TimelineConfig, TraceConfig};
    vec![
        ("precise", SimConfig::precise()),
        ("lva", SimConfig::baseline_lva()),
        (
            "lva-deg4",
            SimConfig::lva(ApproximatorConfig::with_degree(4)),
        ),
        ("clp", SimConfig::clp(ClpConfig::baseline())),
        (
            "lva-clp",
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        ),
        ("governed", governed_configs()[0].1.clone()),
        ("budget-faults", robustness_configs()[0].1.clone()),
        (
            "trace-on",
            SimConfig::baseline_lva().with_trace(TraceConfig::attribution()),
        ),
        (
            "timeline-on",
            SimConfig::baseline_lva().with_timeline(TimelineConfig::every(512)),
        ),
        ("precise-traces", SimConfig::precise().with_traces()),
        (
            "lva-delay16",
            SimConfig::baseline_lva().with_value_delay(16),
        ),
        (
            "lva-16k-l1",
            SimConfig {
                l1: lva::mem::CacheConfig::fullsystem_l1(),
                ..SimConfig::baseline_lva()
            },
        ),
    ]
}

/// Everything a run reports, in a comparable form: both fingerprints, the
/// error's bits, the replay traces, the collectors' attribution and the
/// degradation, timeline and governor reports.
fn run_signature(run: &lva::workloads::WorkloadRun) -> String {
    let attribution: Vec<_> = run.collectors.iter().map(|c| c.attribution()).collect();
    format!(
        "{}|{}|{}|{:#018x}|{:?}|{} collectors {:?}|{:?}|{:?}|{:?}",
        run.name,
        run.stats.fingerprint(),
        run.precise_stats.fingerprint(),
        run.output_error.to_bits(),
        run.traces,
        run.collectors.len(),
        attribution,
        run.degrade,
        run.timelines,
        run.govern,
    )
}

#[test]
fn warm_precise_memo_matches_fresh_workloads() {
    // A workload object that has already run every configuration answers
    // from its precise-reference memo; a freshly built one simulates both
    // runs. Every reported field must agree, for every kernel.
    let configs = memo_configs();
    let warm = registry(WorkloadScale::Test);
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..warm.len()).map(move |w| (c, w)))
        .collect();
    let options = SweepOptions::default();
    for _ in 0..2 {
        run_sweep(&grid, &options, |_, &(c, w)| {
            warm[w].execute(&configs[c].1);
        });
    }
    let fresh = run_sweep(&grid, &options, |_, &(c, w)| {
        let workload =
            lva::workloads::by_name(warm[w].name(), WorkloadScale::Test, 0).expect("known name");
        run_signature(&workload.execute(&configs[c].1))
    })
    .into_values();
    for (i, &(c, w)) in grid.iter().enumerate() {
        let run = warm[w].execute(&configs[c].1);
        assert_eq!(
            run_signature(&run),
            fresh[i],
            "{}/{}: the warm memo diverged from a fresh workload",
            configs[c].0,
            warm[w].name()
        );
        let records_traces = configs[c].1.record_traces;
        assert_eq!(!run.traces.is_empty(), records_traces, "{}", configs[c].0);
    }
}

#[test]
fn repeated_grid_passes_over_one_registry_are_identical_across_worker_counts() {
    // The first pass over a registry fills the memo; the second reads it.
    // Both must match each other and every other worker count.
    let configs = memo_configs();
    let mut reference: Option<Vec<String>> = None;
    for workers in [1usize, 2, 8] {
        let workloads = registry(WorkloadScale::Test);
        let grid: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
            .collect();
        let options = SweepOptions {
            workers: Some(workers),
            progress: false,
        };
        let pass = || {
            run_sweep(&grid, &options, |_, &(c, w)| {
                let run = workloads[w].execute(&configs[c].1);
                format!(
                    "{}:{}:{}:{:#018x}",
                    run.name,
                    run.stats.fingerprint(),
                    run.precise_stats.fingerprint(),
                    run.output_error.to_bits()
                )
            })
            .into_values()
        };
        let first = pass();
        assert_eq!(first, pass(), "second pass diverged (workers={workers})");
        match &reference {
            None => reference = Some(first),
            Some(r) => assert_eq!(r, &first, "passes diverged at workers={workers}"),
        }
    }
}
