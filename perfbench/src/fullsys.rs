//! `fullsystem`: the Fig. 10 replay on the Table II machine. Precise
//! traces of five kernels are recorded at test scale, then each is
//! replayed under precise and lva-deg4 with `FullSystemConfig::paper`.
//!
//! Replays are timed in process CPU time scaled to the nominal host speed
//! (see `speed`), and the measured ones run on one CPU. With more, the
//! default dispatch crosses two barriers between threads on every
//! simulated cycle, and on a shared host how long a woken thread waits for
//! a core depends on the other tenants: wall time per cycle swings up to
//! fivefold between half-minute windows and CPU time per cycle by a fifth,
//! so no run length makes those figures steady. The traced run also
//! replays one pass unpinned, so the per-layer metrics still show that
//! dispatch.

use crate::expected::{self, Entry};
use crate::host::{self, HostUsage, OneCpu};
use crate::report::{median, quantile, Report};
use crate::{probes, repeat_for, speed, Mode};
use lva_core::ApproximatorConfig;
use lva_cpu::ThreadTrace;
use lva_sim::{FullSystem, FullSystemConfig, FullSystemStats, MechanismKind, SimConfig};
use lva_workloads::{registry_seeded, WorkloadScale};
use std::time::{Duration, Instant};

/// Canneal and fluidanimate are left out only to keep a pass short.
const KERNELS: [&str; 5] = ["blackscholes", "bodytrack", "ferret", "swaptions", "x264"];

fn mechanisms() -> [MechanismKind; 2] {
    [
        MechanismKind::Precise,
        MechanismKind::Lva(ApproximatorConfig::with_degree(4)),
    ]
}

/// Records the precise per-thread traces of the five kernels.
fn record_traces(input_seed: u64) -> Vec<Vec<ThreadTrace>> {
    registry_seeded(WorkloadScale::Test, input_seed)
        .iter()
        .filter(|w| KERNELS.contains(&w.name()))
        .map(|w| w.execute(&SimConfig::precise().with_traces()).traces)
        .collect()
}

struct Replay {
    mechanism: usize,
    stats: FullSystemStats,
    usage: HostUsage,
    /// Process CPU time of the replay, scaled to the nominal host speed.
    scaled_cpu: Duration,
}

impl Replay {
    fn ms(&self) -> f64 {
        self.scaled_cpu.as_secs_f64() * 1e3
    }
}

/// One pass: every kernel under every mechanism, kernel-major. A replay
/// that fails to converge is `None`.
fn pass(traces: &[Vec<ThreadTrace>]) -> Vec<Option<Replay>> {
    let mut out = Vec::new();
    for t in traces {
        for (m, mech) in mechanisms().into_iter().enumerate() {
            let input = t.clone();
            let t = speed::run(host::process_cpu, || {
                host::measure(|| FullSystem::new(FullSystemConfig::paper(mech), input).run())
            });
            let ((stats, usage), scaled_cpu) = (t.value, t.scaled);
            out.push(stats.ok().map(|stats| Replay {
                mechanism: m,
                stats,
                usage,
                scaled_cpu,
            }));
        }
    }
    out
}

/// Passes on one CPU until `budget` is spent; `None` if the benchmark
/// cannot pin itself.
fn pinned_passes(
    budget: Duration,
    traces: &[Vec<ThreadTrace>],
) -> Option<Vec<Vec<Option<Replay>>>> {
    let _pin = OneCpu::pin()?;
    Some(repeat_for(budget, || {
        let t = Instant::now();
        let p = pass(traces);
        (p, t.elapsed())
    }))
}

fn entry(stats: &FullSystemStats) -> Entry {
    Entry {
        digest: expected::fullsystem_digest(stats),
        cycles: stats.cycles,
    }
}

fn check(passes: &[Vec<Option<Replay>>], input_seed: u64) -> (u64, u64) {
    let table = expected::entries("fullsystem", input_seed);
    let mut attempted = 0;
    let mut failed = 0;
    for p in passes {
        let got: Vec<(usize, Entry)> = p
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, entry(&r.stats))))
            .collect();
        attempted += p.len() as u64;
        failed += (p.len() - got.len()) as u64 + expected::mismatches(&table, &got);
    }
    (attempted, failed)
}

fn replays(passes: &[Vec<Option<Replay>>]) -> impl Iterator<Item = &Replay> {
    passes.iter().flatten().flatten()
}

fn usage_of<'a>(rs: impl Iterator<Item = &'a Replay>) -> HostUsage {
    let mut usage = HostUsage::default();
    for r in rs {
        usage.add(r.usage);
    }
    usage
}

/// Scaled CPU milliseconds per 1000 simulated cycles across `rs`.
fn ms_per_kcycle(rs: &[&Replay]) -> f64 {
    let ms: f64 = rs.iter().map(|r| r.ms()).sum();
    let cycles: u64 = rs.iter().map(|r| r.stats.cycles).sum();
    ms * 1e3 / cycles.max(1) as f64
}

/// Median over passes of simulated cycles per scaled CPU second of replay.
fn cycles_per_s(passes: &[Vec<Option<Replay>>]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| 1e6 / ms_per_kcycle(&p.iter().flatten().collect::<Vec<_>>()))
        .collect();
    median(&rates)
}

pub fn run(seed: u64, seconds: u64, mode: Mode) -> Report {
    let input_seed = seed % expected::INPUT_SEEDS;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = speed::run(host::thread_cpu, || record_traces(input_seed));
        traces = t.value;
        setups.push(t.scaled.as_secs_f64());
    }
    let budget = Duration::from_secs(seconds);
    let untraced_budget = if mode == Mode::Traced {
        budget / 2
    } else {
        budget
    };
    let Some(passes) = pinned_passes(untraced_budget, &traces) else {
        eprintln!("cannot pin the replays to one CPU");
        report.tally(1, 1);
        return report;
    };
    let (n, bad) = check(&passes, input_seed);
    report.tally(n, bad);
    let usage = usage_of(replays(&passes));
    // Replays differ twentyfold in length, so latencies are taken per
    // 1000 simulated cycles: a raw percentile would only say which
    // kernel sits at that rank.
    let replay_ms: Vec<f64> = replays(&passes).map(|r| ms_per_kcycle(&[r])).collect();
    // A job is one kernel's Fig. 10 pair (precise and lva-deg4); with no
    // result reuse in this workload, resubmitting it costs both replays.
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunks(mechanisms().len()))
        .filter(|pair| pair.iter().all(Option::is_some))
        .map(|pair| ms_per_kcycle(&pair.iter().flatten().collect::<Vec<_>>()))
        .collect();
    report.detail("passes", passes.len() as f64);
    report.detail("point_samples", replay_ms.len() as f64);
    report.detail("job_samples", jobs.len() as f64);
    report.detail("host.cpu_per_wall", usage.cpu_per_wall());
    report.detail("host.sys_share", usage.sys_share());
    let plain_rate = cycles_per_s(&passes);

    if mode == Mode::Plain {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                let ms: f64 = p.iter().flatten().map(Replay::ms).sum();
                p.iter().flatten().count() as f64 * 1e3 / ms
            })
            .collect();
        report.metric("setup_s", median(&setups));
        report.metric("points_per_s", median(&rates));
        report.metric("point_ms_p50", median(&replay_ms));
        report.metric("point_ms_p90", quantile(&replay_ms, 0.9));
        report.metric("sim_cycles_per_s", plain_rate);
        report.metric("warm_submit_ms_p50", median(&jobs));
        report.metric("warm_submit_ms_p90", quantile(&jobs, 0.9));
        report.metric("peak_rss_mb", host::peak_rss_mib());
        return report;
    }

    let Some(traced) = pinned_passes(budget - untraced_budget, &traces) else {
        report.tally(1, 1);
        return report;
    };
    let (n, bad) = check(&traced, input_seed);
    report.tally(n, bad);
    let traced_rate = cycles_per_s(&traced);
    report.detail("traced.passes", traced.len() as f64);
    report.detail("traced.sim_cycles_per_s", traced_rate);
    report.detail("untraced.sim_cycles_per_s", plain_rate);
    report.metric("trace.overhead_share", 1.0 - traced_rate / plain_rate);
    report.metric("host.cpu_per_wall", usage.cpu_per_wall());
    report.metric("host.sys_share", usage.sys_share());

    report.metric("fs.trace_record_ms", median(&setups) * 1e3);
    let per_pass = |m: usize| -> Vec<f64> {
        traced
            .iter()
            .map(|p| {
                p.iter()
                    .flatten()
                    .filter(|r| r.mechanism == m)
                    .map(Replay::ms)
                    .sum()
            })
            .collect()
    };
    report.metric("fs.run_ms.precise", median(&per_pass(0)));
    report.metric("fs.run_ms.lva-deg4", median(&per_pass(1)));

    // One pass with the dispatch the program picks on this host.
    let unpinned = vec![pass(&traces)];
    let (n, bad) = check(&unpinned, input_seed);
    report.tally(n, bad);
    let default = usage_of(replays(&unpinned));
    let cycles: u64 = replays(&unpinned).map(|r| r.stats.cycles).sum();
    report.detail(
        "unpinned.sim_cycles_per_s",
        cycles as f64 / default.wall.as_secs_f64(),
    );
    report.metric(
        "fs.host_ns_per_cycle",
        default.wall.as_secs_f64() * 1e9 / cycles.max(1) as f64,
    );
    report.metric("fs.cpu_per_wall", default.cpu_per_wall());
    report.metric("fs.sys_share", default.sys_share());

    // Counts of one pass: every pass replays the same traces.
    let first: Vec<&FullSystemStats> = traced[0].iter().flatten().map(|r| &r.stats).collect();
    let sum = |f: &dyn Fn(&FullSystemStats) -> u64| first.iter().map(|s| f(s)).sum::<u64>() as f64;
    report.metric("fs.cycles", sum(&|s| s.cycles));
    report.metric("fs.instructions", sum(&|s| s.instructions));
    report.metric("fs.l1_load_misses", sum(&|s| s.l1_load_misses));
    report.metric("fs.approximated", sum(&|s| s.approximated));
    report.metric("fs.flit_hops", sum(&|s| s.flit_hops));
    report.metric("fs.dram_accesses", sum(&|s| s.dram_accesses));
    report.metric("fs.head_stall_cycles", sum(&|s| s.head_stall_cycles));

    probes::noc(&mut report);
    report
}

/// Recomputes the table lines of one input seed.
pub fn record(input_seed: u64, out: &mut String) {
    let traces = record_traces(input_seed);
    let _pin = OneCpu::pin();
    for (i, r) in pass(&traces).into_iter().enumerate() {
        let r = r.expect("replays converge");
        expected::line(out, "fullsystem", input_seed, i, entry(&r.stats));
    }
}
