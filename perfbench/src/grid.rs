//! `p1-grid`: the §V-A phase-1 design-space grid, 7 configurations × the
//! 7 kernels at small scale, as closed-loop `run_sweep` passes.

use crate::expected::{self, Entry};
use crate::host::{self, HostUsage};
use crate::report::{median, quantile, Report};
use crate::{probes, repeat_for, speed, Mode};
use lva_core::{ApproximatorConfig, ClpConfig};
use lva_sim::sweep::{run_sweep, SweepOptions};
use lva_sim::{FaultConfig, GovernorConfig, MechanismKind, Phase1Stats, SimConfig, SimHarness};
use lva_workloads::{
    blackscholes::Blackscholes, bodytrack::Bodytrack, canneal::Canneal, ferret::Ferret,
    fluidanimate::Fluidanimate, registry_seeded, swaptions::Swaptions, x264::X264, Kernel,
    Workload, WorkloadScale,
};
use std::time::Duration;

const SCALE: WorkloadScale = WorkloadScale::Small;
const KERNELS: usize = 7;

/// The grid's configurations with their metric labels. The governor and
/// budget settings are those of the `loads` bench, where both act.
pub fn configs() -> Vec<(&'static str, SimConfig)> {
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
        (
            "lva-govern2",
            SimConfig::baseline_lva().with_govern(GovernorConfig {
                epoch_len: 200,
                min_samples: 8,
                ..GovernorConfig::slo(0.02)
            }),
        ),
        (
            "lva-budget5",
            SimConfig::baseline_lva()
                .with_error_budget(0.05)
                .with_faults(FaultConfig::seeded(42).with_table_rate(1e-3)),
        ),
    ]
}

/// Grid order: configuration-major, kernel-minor.
fn grid() -> Vec<(usize, usize)> {
    (0..configs().len())
        .flat_map(|c| (0..KERNELS).map(move |k| (c, k)))
        .collect()
}

/// One evaluated point, reduced to what the benchmark reports.
struct Point {
    config: usize,
    /// CPU time of the worker thread that evaluated the point, scaled to
    /// the nominal host speed.
    cpu_ms: f64,
    entry: Entry,
    stats: Phase1Stats,
    /// Kernel construction, precise run, configured run and error metric,
    /// in ms; traced passes only.
    spans: Option<[f64; 4]>,
}

struct Pass {
    points: Vec<(usize, Point)>,
    errors: u64,
    usage: HostUsage,
    busy: Duration,
    worker_wall: Duration,
    workers: usize,
}

fn point(
    config: usize,
    cpu: Duration,
    stats: Phase1Stats,
    precise: &Phase1Stats,
    err: f64,
) -> Point {
    Point {
        config,
        cpu_ms: cpu.as_secs_f64() * 1e3,
        entry: Entry {
            digest: expected::phase1_digest(&stats, precise, err),
            cycles: expected::phase1_cycles(&stats, precise),
        },
        stats,
        spans: None,
    }
}

/// The four steps of `Workload::execute`, each timed in CPU time of the
/// calling thread, for one kernel.
/// The precise reference configuration is derived exactly as `execute`
/// derives it; the correctness gate checks that the results agree.
fn traced_execute<K: Kernel>(
    make: impl FnOnce() -> K,
    config: &SimConfig,
) -> (Phase1Stats, Phase1Stats, f64, [f64; 4]) {
    let ms = |t: Duration| (host::thread_cpu() - t).as_secs_f64() * 1e3;
    let t = host::thread_cpu();
    let kernel = make();
    let setup = ms(t);

    let t = host::thread_cpu();
    let precise_cfg = SimConfig {
        mechanism: MechanismKind::Precise,
        trace: lva_obs::TraceConfig::off(),
        degrade: None,
        faults: None,
        timeline: None,
        govern: None,
        ..config.clone()
    };
    let mut harness = SimHarness::new(precise_cfg);
    let precise_out = kernel.run(&mut harness);
    let precise = harness.finish().stats;
    let precise_ms = ms(t);

    let t = host::thread_cpu();
    let mut harness = SimHarness::new(config.clone());
    let out = kernel.run(&mut harness);
    let stats = harness.finish().stats;
    let mechanism_ms = ms(t);

    let t = host::thread_cpu();
    let err = kernel.output_error(&precise_out, &out);
    let error_ms = ms(t);
    (
        stats,
        precise,
        err,
        [setup, precise_ms, mechanism_ms, error_ms],
    )
}

fn traced_point(
    kernel: usize,
    seed: u64,
    config: &SimConfig,
) -> (Phase1Stats, Phase1Stats, f64, [f64; 4]) {
    match kernel {
        0 => traced_execute(|| Blackscholes::with_seed(SCALE, seed), config),
        1 => traced_execute(|| Bodytrack::with_seed(SCALE, seed), config),
        2 => traced_execute(|| Canneal::with_seed(SCALE, seed), config),
        3 => traced_execute(|| Ferret::with_seed(SCALE, seed), config),
        4 => traced_execute(|| Fluidanimate::with_seed(SCALE, seed), config),
        5 => traced_execute(|| Swaptions::with_seed(SCALE, seed), config),
        _ => traced_execute(|| X264::with_seed(SCALE, seed), config),
    }
}

fn pass(workloads: &[Box<dyn Workload>], input_seed: u64, traced: bool) -> Pass {
    let configs = configs();
    let grid = grid();
    let options = SweepOptions::default();
    // A point runs on one worker thread from start to end, so that
    // thread's CPU time is the point's.
    let (run, usage) = host::measure(|| {
        if traced {
            run_sweep(&grid, &options, |_, &(c, k)| {
                let t = speed::run(host::thread_cpu, || {
                    traced_point(k, input_seed, &configs[c].1)
                });
                let (stats, precise, err, spans) = t.value;
                (stats, precise, err, Some(spans), t.scaled)
            })
        } else {
            run_sweep(&grid, &options, |_, &(c, k)| {
                let t = speed::run(host::thread_cpu, || workloads[k].execute(&configs[c].1));
                let run = t.value;
                (
                    run.stats,
                    run.precise_stats,
                    run.output_error,
                    None,
                    t.scaled,
                )
            })
        }
    });
    let points = run
        .outcomes
        .into_iter()
        .map(|o| {
            let (stats, precise, err, spans, cpu) = o.value;
            let mut p = point(grid[o.index].0, cpu, stats, &precise, err);
            p.spans = spans;
            (o.index, p)
        })
        .collect();
    Pass {
        points,
        errors: run.errors.len() as u64,
        usage,
        busy: run.worker_loads.iter().map(|w| w.busy).sum(),
        worker_wall: run.worker_loads.iter().map(|w| w.wall).sum(),
        workers: run.workers,
    }
}

/// Checks every pass against the table, returning (points, failures).
fn check(passes: &[Pass], input_seed: u64) -> (u64, u64) {
    let table = expected::entries("p1-grid", input_seed);
    passes.iter().fold((0, 0), |(n, bad), p| {
        let got: Vec<(usize, Entry)> = p.points.iter().map(|(i, pt)| (*i, pt.entry)).collect();
        let attempted = (got.len() as u64) + p.errors;
        (
            n + attempted,
            bad + p.errors + expected::mismatches(&table, &got),
        )
    })
}

struct Throughput {
    points_per_s: f64,
    wall_points_per_s: f64,
    cycles_per_s: f64,
    usage: HostUsage,
}

/// Medians over passes of each pass's throughput per scaled CPU second
/// of its points, so neither the other tenants of a shared host nor one
/// slow pass moves them much.
fn throughput(passes: &[Pass]) -> Throughput {
    let mut usage = HostUsage::default();
    for p in passes {
        usage.add(p.usage);
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(
            &passes
                .iter()
                .map(|p| {
                    let ms: f64 = p.points.iter().map(|(_, pt)| pt.cpu_ms).sum();
                    f(p) * 1e3 / ms.max(1e-9)
                })
                .collect::<Vec<_>>(),
        )
    };
    let wall: Vec<f64> = passes
        .iter()
        .map(|p| p.points.len() as f64 / p.usage.wall.as_secs_f64().max(1e-9))
        .collect();
    Throughput {
        points_per_s: per_pass(&|p| p.points.len() as f64),
        wall_points_per_s: median(&wall),
        cycles_per_s: per_pass(&|p| {
            p.points.iter().map(|(_, pt)| pt.entry.cycles).sum::<u64>() as f64
        }),
        usage,
    }
}

pub fn run(seed: u64, seconds: u64, mode: Mode) -> Report {
    let input_seed = seed % expected::INPUT_SEEDS;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut workloads = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = speed::run(host::thread_cpu, || registry_seeded(SCALE, input_seed));
        workloads = t.value;
        setups.push(t.scaled.as_secs_f64());
    }
    let budget = Duration::from_secs(seconds);
    let untraced_budget = if mode == Mode::Traced {
        budget / 2
    } else {
        budget
    };
    let passes = repeat_for(untraced_budget, || {
        let p = pass(&workloads, input_seed, false);
        let wall = p.usage.wall;
        (p, wall)
    });
    let (n, bad) = check(&passes, input_seed);
    report.tally(n, bad);
    let plain = throughput(&passes);
    let point_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.points)
        .map(|(_, pt)| pt.cpu_ms)
        .collect();
    // A job is one configuration across the seven kernels; with no result
    // reuse in this workload, resubmitting it costs its points' CPU time.
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            (0..configs().len()).map(move |c| {
                p.points
                    .iter()
                    .filter(|(_, pt)| pt.config == c)
                    .map(|(_, pt)| pt.cpu_ms)
                    .sum()
            })
        })
        .collect();
    report.detail("passes", passes.len() as f64);
    report.detail("point_samples", point_ms.len() as f64);
    report.detail("wall.points_per_s", plain.wall_points_per_s);
    report.detail("job_samples", jobs.len() as f64);
    report.detail("host.cpu_per_wall", plain.usage.cpu_per_wall());
    report.detail("host.sys_share", plain.usage.sys_share());

    if mode == Mode::Plain {
        report.metric("setup_s", median(&setups));
        report.metric("points_per_s", plain.points_per_s);
        report.metric("point_ms_p50", median(&point_ms));
        report.metric("point_ms_p90", quantile(&point_ms, 0.9));
        report.metric("sim_cycles_per_s", plain.cycles_per_s);
        report.metric("warm_submit_ms_p50", median(&jobs));
        report.metric("warm_submit_ms_p90", quantile(&jobs, 0.9));
        report.metric("peak_rss_mb", host::peak_rss_mib());
        return report;
    }

    let traced = repeat_for(budget - untraced_budget, || {
        let p = pass(&workloads, input_seed, true);
        let wall = p.usage.wall;
        (p, wall)
    });
    let (n, bad) = check(&traced, input_seed);
    report.tally(n, bad);
    let with_spans = throughput(&traced);
    report.detail("traced.passes", traced.len() as f64);
    report.detail("traced.points_per_s", with_spans.points_per_s);
    report.detail("untraced.points_per_s", plain.points_per_s);
    report.metric(
        "trace.overhead_share",
        1.0 - with_spans.points_per_s / plain.points_per_s,
    );
    report.metric("host.cpu_per_wall", plain.usage.cpu_per_wall());
    report.metric("host.sys_share", plain.usage.sys_share());

    let points: Vec<&Point> = traced
        .iter()
        .flat_map(|p| &p.points)
        .map(|(_, pt)| pt)
        .collect();
    let mut span_sum = [0.0f64; 4];
    for pt in &points {
        for (s, v) in span_sum.iter_mut().zip(pt.spans.unwrap_or_default()) {
            *s += v;
        }
    }
    let n_points = points.len().max(1) as f64;
    report.metric("workloads.setup_ms", span_sum[0] / n_points);
    report.metric("workloads.precise_ms", span_sum[1] / n_points);
    report.metric("workloads.mechanism_ms", span_sum[2] / n_points);
    report.metric("workloads.error_ms", span_sum[3] / n_points);
    report.metric(
        "workloads.precise_share",
        span_sum[1] / span_sum.iter().sum::<f64>().max(1e-9),
    );

    for (c, (label, _)) in configs().iter().enumerate() {
        let (ms, loads) =
            points
                .iter()
                .filter(|pt| pt.config == c)
                .fold((0.0, 0u64), |(ms, l), pt| {
                    (
                        ms + pt.spans.unwrap_or_default()[2],
                        l + pt.stats.total.loads,
                    )
                });
        report.metric(
            format!("harness.ns_per_load.{label}"),
            ms * 1e6 / loads.max(1) as f64,
        );
    }
    // Counts of one pass: every pass simulates the same grid.
    let first = &traced[0].points;
    let sum =
        |f: &dyn Fn(&Phase1Stats) -> u64| first.iter().map(|(_, pt)| f(&pt.stats)).sum::<u64>();
    let raw_misses = sum(&|s| s.total.raw_misses);
    let approximations = sum(&|s| s.total.approximations);
    report.metric("harness.loads", sum(&|s| s.total.loads) as f64);
    report.metric("harness.raw_misses", raw_misses as f64);
    report.metric("harness.approximations", approximations as f64);
    report.metric("harness.fetches", sum(&|s| s.fetches()) as f64);
    report.metric(
        "harness.approx_coverage",
        approximations as f64 / raw_misses.max(1) as f64,
    );

    let busy: Duration = traced.iter().map(|p| p.busy).sum();
    let wall: Duration = traced.iter().map(|p| p.worker_wall).sum();
    report.metric(
        "sweep.busy_share",
        busy.as_secs_f64() / wall.as_secs_f64().max(1e-9),
    );
    report.metric("sweep.workers", traced[0].workers as f64);

    probes::phase1(&mut report);
    report
}

/// Recomputes the table lines of one input seed.
pub fn record(input_seed: u64, out: &mut String) {
    let workloads = registry_seeded(SCALE, input_seed);
    let p = pass(&workloads, input_seed, false);
    assert_eq!(p.errors, 0, "grid points must not fail");
    for (i, pt) in &p.points {
        expected::line(out, "p1-grid", input_seed, *i, pt.entry);
    }
}
