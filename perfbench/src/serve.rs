//! `serve`: an in-process `lva-serve` server on loopback with a disk
//! result cache in a fresh directory per round. Two closed-loop clients
//! submit overlapping jobs, each one configuration × the seven kernels at
//! test scale: a cold phase evaluates, caches and coalesces; a warm phase
//! resubmits the same jobs, one at a time, and is served from the cache.
//! Times are process or thread CPU times scaled to the nominal host speed
//! (see `speed`).

use crate::expected::{self, Entry};
use crate::host::{self, HostUsage};
use crate::report::{median, quantile, Report};
use crate::{grid, probes, repeat_for, speed, Mode};
use lva_serve::{evaluate_point, Client, PointSpec, ResultCache, Scheduler, Server, SubmitOutcome};
use lva_sim::SimConfig;
use lva_workloads::{registry_seeded, WorkloadScale};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCALE: WorkloadScale = WorkloadScale::Test;
const KERNELS: [&str; 7] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "ferret",
    "fluidanimate",
    "swaptions",
    "x264",
];
/// Configurations each client submits, in order, as indices into
/// [`configs`]. Both submit every configuration once, so each job shape
/// is an equal share of the latency samples and no percentile sits on
/// the edge of one shape's group. Both start with the same job, which is
/// coalesced in flight; after that they meet jobs the other has finished
/// or is running.
const CLIENT_JOBS: [[usize; 7]; 2] = [[0, 1, 2, 3, 4, 5, 6], [0, 6, 5, 4, 3, 2, 1]];
/// Memory-tier capacity, the `lva-serve` default.
const CACHE_CAPACITY: usize = 256;
const PINGS: usize = 20;

/// The grid's configurations as the wire can express them: the governor
/// with its default epoch knobs, and the error budget without faults.
fn configs() -> Vec<SimConfig> {
    grid::configs()
        .into_iter()
        .map(|(label, cfg)| match label {
            "lva-govern2" => SimConfig::baseline_lva().with_govern_slo(0.02),
            "lva-budget5" => SimConfig::baseline_lva().with_error_budget(0.05),
            _ => cfg,
        })
        .collect()
}

fn job(input_seed: u64, config: usize, configs: &[SimConfig]) -> Vec<PointSpec> {
    KERNELS
        .iter()
        .map(|&k| PointSpec::new(k, SCALE, input_seed, configs[config].clone()))
        .collect()
}

/// Index of a point in the recorded table.
fn point_index(config: usize, kernel: usize) -> usize {
    config * KERNELS.len() + kernel
}

struct Submission {
    config: usize,
    outcome: Result<SubmitOutcome, String>,
}

/// What the benchmark keeps of one round. Each round is checked as it
/// ends and its outcomes dropped, so the benchmark's own memory does not
/// grow with the number of rounds.
struct Round {
    setup: Duration,
    cold_usage: HostUsage,
    /// Points delivered in the cold phase.
    cold_points: usize,
    /// Correctness tally: (attempted, failed).
    tally: (u64, u64),
    /// One warm job's configuration and manifests, for the probe table.
    sample: Option<(usize, Vec<String>)>,
    /// Scaled process CPU time across each warm submission: the client's
    /// request and decoding plus the server's lookup and encoding.
    warm_cpu: Vec<Duration>,
    /// Scaled worker-thread CPU time of each evaluation.
    evals_ms: Vec<f64>,
    /// The reference loops run around each evaluation.
    probes: Vec<speed::Probe>,
    /// Peak resident size of the process so far, read as the round ends,
    /// in MiB.
    peak_rss_mib: f64,
    pings_us: Vec<f64>,
    metrics: Vec<(String, f64)>,
}

impl Round {
    /// Process CPU time of the cold phase without the reference loops run
    /// in it, scaled by their median slowdown: the evaluations they wrap
    /// are spread over the whole phase and over both workers.
    fn cold_cpu(&self) -> Duration {
        let probes: Duration = self.probes.iter().map(|p| p.cpu).sum();
        let slowdowns: Vec<f64> = self.probes.iter().map(|p| p.slowdown).collect();
        self.cold_usage
            .cpu
            .saturating_sub(probes)
            .div_f64(median(&slowdowns).max(1e-3))
    }
}

/// Each client submits its jobs one after another; both clients run at
/// once.
fn submit_all(
    clients: &mut [Client],
    jobs: &[Vec<usize>],
    input_seed: u64,
    configs: &[SimConfig],
) -> Vec<Submission> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(jobs)
            .map(|(client, mine)| {
                s.spawn(move || {
                    mine.iter()
                        .map(|&c| Submission {
                            config: c,
                            outcome: client.submit(&job(input_seed, c, configs)),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Each client resubmits its jobs, one submission at a time, so the
/// process CPU time across a submission is that submission's alone.
fn submit_each(
    clients: &mut [Client],
    jobs: &[Vec<usize>],
    input_seed: u64,
    configs: &[SimConfig],
) -> (Vec<Submission>, Vec<Duration>) {
    let mut subs = Vec::new();
    let mut cpu = Vec::new();
    for (client, mine) in clients.iter_mut().zip(jobs) {
        for &c in mine {
            let points = job(input_seed, c, configs);
            let t = speed::run(host::process_cpu, || client.submit(&points));
            cpu.push(t.scaled);
            subs.push(Submission {
                config: c,
                outcome: t.value,
            });
        }
    }
    (subs, cpu)
}

fn round(
    dir: &Path,
    input_seed: u64,
    configs: &[SimConfig],
    table: &HashMap<usize, Entry>,
    keep_sample: bool,
) -> std::io::Result<Round> {
    let evals = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&evals);
    let setup = speed::run(host::process_cpu, || -> std::io::Result<_> {
        let cache = ResultCache::open(dir, CACHE_CAPACITY)?;
        let workers = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        // The production evaluator, timed from outside.
        let scheduler = Arc::new(Scheduler::with_evaluator(
            workers,
            cache,
            Box::new(move |spec| {
                let t = speed::run(host::thread_cpu, || evaluate_point(spec));
                sink.lock()
                    .expect("eval samples")
                    .push((t.scaled, t.probes));
                t.value
            }),
        ));
        let handle = Server::bind("127.0.0.1:0", scheduler)?.spawn()?;
        let clients = vec![
            Client::connect(handle.addr())?,
            Client::connect(handle.addr())?,
        ];
        Ok((handle, clients))
    });
    let (handle, mut clients) = setup.value?;
    let setup = setup.scaled;

    let jobs: Vec<Vec<usize>> = CLIENT_JOBS.iter().map(|j| j.to_vec()).collect();
    let (cold, cold_usage) = host::measure(|| submit_all(&mut clients, &jobs, input_seed, configs));
    let (warm, warm_cpu) = submit_each(&mut clients, &jobs, input_seed, configs);
    let mut pings_us = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        if clients[0].ping().is_ok() {
            pings_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let metrics = clients[0].metrics().unwrap_or_default();
    let shutdown_ok = clients[0].shutdown_server().is_ok();
    drop(clients);
    handle.join();
    let peak_rss_mib = host::peak_rss_mib();
    let evals = std::mem::take(&mut *evals.lock().expect("eval samples"));
    let evals_ms = evals
        .iter()
        .map(|(cpu, _)| cpu.as_secs_f64() * 1e3)
        .collect();
    let probes = evals.into_iter().flat_map(|(_, p)| p).collect();
    let sample = warm.iter().filter(|_| keep_sample).find_map(|s| {
        let out = s.outcome.as_ref().ok()?;
        Some((
            s.config,
            out.results.iter().filter_map(|r| r.clone().ok()).collect(),
        ))
    });
    Ok(Round {
        setup,
        cold_usage,
        cold_points: cold.len() * KERNELS.len(),
        tally: check(&cold, &warm, shutdown_ok, table),
        sample,
        warm_cpu,
        evals_ms,
        probes,
        peak_rss_mib,
        pings_us,
        metrics,
    })
}

/// Counts a round's submissions and their failures: a transport error, a
/// failed point, a manifest that differs from `evaluate_point`'s, a warm
/// job not served wholly from the cache, or a server that did not shut
/// down cleanly.
fn check(
    cold: &[Submission],
    warm: &[Submission],
    shutdown_ok: bool,
    table: &HashMap<usize, Entry>,
) -> (u64, u64) {
    let mut attempted = 1;
    let mut failed = u64::from(!shutdown_ok);
    for (s, warm) in cold
        .iter()
        .map(|s| (s, false))
        .chain(warm.iter().map(|s| (s, true)))
    {
        attempted += KERNELS.len() as u64;
        let Ok(out) = &s.outcome else {
            failed += KERNELS.len() as u64;
            continue;
        };
        let got: Vec<(usize, Entry)> = out
            .results
            .iter()
            .enumerate()
            .filter_map(|(k, res)| {
                let text = res.as_ref().ok()?;
                let i = point_index(s.config, k);
                let e = table.get(&i)?;
                // The digest pins the bytes; the cycles come with them.
                Some((
                    i,
                    Entry {
                        digest: expected::manifest_digest(text),
                        cycles: e.cycles,
                    },
                ))
            })
            .collect();
        failed += (out.results.len() - got.len()) as u64 + expected::mismatches(table, &got);
        if warm && out.cache_hits != KERNELS.len() as u64 {
            failed += 1;
        }
    }
    (attempted, failed)
}

/// Simulated cycles behind every unique point a cold phase evaluated.
fn cold_cycles(input_seed: u64) -> u64 {
    let table = expected::entries("serve", input_seed);
    let unique: std::collections::BTreeSet<usize> = CLIENT_JOBS.iter().flatten().copied().collect();
    unique
        .iter()
        .flat_map(|&c| (0..KERNELS.len()).map(move |k| point_index(c, k)))
        .filter_map(|i| table.get(&i).map(|e| e.cycles))
        .sum()
}

fn metric(dump: &[(String, f64)], path: &str) -> f64 {
    dump.iter()
        .find(|(p, _)| p == path)
        .map_or(0.0, |(_, v)| *v)
}

fn work_dir() -> PathBuf {
    PathBuf::from(crate::WORK_DIR).join(format!("serve-{}", std::process::id()))
}

fn rounds_for(
    budget: Duration,
    base: &Path,
    first: usize,
    input_seed: u64,
    configs: &[SimConfig],
) -> (Vec<Round>, u64) {
    let table = expected::entries("serve", input_seed);
    let mut n = first;
    let rounds = repeat_for(budget, || {
        let dir = base.join(format!("round-{n}"));
        let keep_sample = n == first;
        n += 1;
        let t = Instant::now();
        let r = round(&dir, input_seed, configs, &table, keep_sample);
        let _ = std::fs::remove_dir_all(&dir);
        (r, t.elapsed())
    });
    let mut ok = Vec::new();
    let mut errors = 0;
    for r in rounds {
        match r {
            Ok(r) => ok.push(r),
            Err(e) => {
                eprintln!("serve round failed: {e}");
                errors += 1;
            }
        }
    }
    (ok, errors)
}

struct Summary {
    points_per_s: f64,
    wall_points_per_s: f64,
    usage: HostUsage,
}

/// Median over rounds of the cold phase's delivered points per scaled CPU
/// second, and per wall second.
fn summary(rounds: &[Round]) -> Summary {
    let mut usage = HostUsage::default();
    for r in rounds {
        usage.add(r.cold_usage);
    }
    let rate = |per: &dyn Fn(&Round) -> Duration| -> f64 {
        median(
            &rounds
                .iter()
                .map(|r| r.cold_points as f64 / per(r).as_secs_f64().max(1e-9))
                .collect::<Vec<_>>(),
        )
    };
    Summary {
        points_per_s: rate(&Round::cold_cpu),
        wall_points_per_s: rate(&|r| r.cold_usage.wall),
        usage,
    }
}

pub fn run(seed: u64, seconds: u64, mode: Mode) -> Report {
    let input_seed = seed % expected::INPUT_SEEDS;
    let configs = configs();
    let mut report = Report::default();
    let base = work_dir();
    let budget = Duration::from_secs(seconds);
    let untraced_budget = if mode == Mode::Traced {
        budget / 2
    } else {
        budget
    };
    let (rounds, errors) = rounds_for(untraced_budget, &base, 0, input_seed, &configs);
    report.tally(errors, errors);
    for r in &rounds {
        report.tally(r.tally.0, r.tally.1);
    }
    let plain = summary(&rounds);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let evals: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.evals_ms.iter().copied())
        .collect();
    let warm_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.warm_cpu.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    report.detail("rounds", rounds.len() as f64);
    report.detail("point_samples", evals.len() as f64);
    report.detail("warm_samples", warm_ms.len() as f64);
    report.detail("wall.points_per_s", plain.wall_points_per_s);
    report.detail("host.cpu_per_wall", plain.usage.cpu_per_wall());
    report.detail("host.sys_share", plain.usage.sys_share());

    if mode == Mode::Plain {
        let _ = std::fs::remove_dir_all(&base);
        report.metric("setup_s", median(&setups));
        report.metric("points_per_s", plain.points_per_s);
        // The median over rounds of each round's quantile keeps one bad
        // round out.
        let per_round = |q: f64| -> f64 {
            median(
                &rounds
                    .iter()
                    .map(|r| quantile(&r.evals_ms, q))
                    .collect::<Vec<_>>(),
            )
        };
        report.metric("point_ms_p50", per_round(0.5));
        report.metric("point_ms_p90", per_round(0.9));
        let cycles = cold_cycles(input_seed) as f64;
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| cycles / r.cold_cpu().as_secs_f64().max(1e-9))
            .collect();
        report.metric("sim_cycles_per_s", median(&rates));
        report.metric("warm_submit_ms_p50", median(&warm_ms));
        report.metric("warm_submit_ms_p90", quantile(&warm_ms, 0.9));
        // The first round is a server's whole life in a fresh process.
        // Later rounds reuse memory the allocator kept in its per-thread
        // arenas, unevenly, so the peak over all of them moves with how
        // many rounds fit and how their threads' allocations landed.
        report.metric(
            "peak_rss_mb",
            rounds.first().map_or(0.0, |r| r.peak_rss_mib),
        );
        report.detail("process_peak_rss_mib", host::peak_rss_mib());
        return report;
    }

    let (traced, errors) = rounds_for(
        budget - untraced_budget,
        &base,
        rounds.len(),
        input_seed,
        &configs,
    );
    report.tally(errors, errors);
    for r in &traced {
        report.tally(r.tally.0, r.tally.1);
    }
    let with_spans = summary(&traced);
    report.detail("traced.rounds", traced.len() as f64);
    report.detail("traced.points_per_s", with_spans.points_per_s);
    report.detail("untraced.points_per_s", plain.points_per_s);
    report.metric(
        "trace.overhead_share",
        1.0 - with_spans.points_per_s / plain.points_per_s,
    );
    report.metric("host.cpu_per_wall", plain.usage.cpu_per_wall());
    report.metric("host.sys_share", plain.usage.sys_share());

    let traced_evals: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.evals_ms.iter().copied())
        .collect();
    report.metric("serve.evaluate_point_ms", median(&traced_evals));
    let pings: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.pings_us.iter().copied())
        .collect();
    report.metric("serve.ping_us_p50", median(&pings));
    // Server counters of one round; every round submits the same jobs.
    if let Some(r) = traced.first() {
        let hits = metric(&r.metrics, "serve/cache/hits");
        let misses = metric(&r.metrics, "serve/cache/misses");
        report.metric("serve.hit_ratio", hits / (hits + misses).max(1.0));
        report.metric(
            "serve.coalesced",
            metric(&r.metrics, "serve/cache/coalesced"),
        );
        report.metric("serve.deduped", metric(&r.metrics, "serve/points/deduped"));
        report.detail("serve.hits", hits);
        report.detail("serve.misses", misses);
    }
    // Probe the cache, protocol and parser with a real warm outcome.
    if let Some((config, manifests)) = traced.iter().find_map(|r| r.sample.as_ref()) {
        let specs = job(input_seed, *config, &configs);
        probes::serve(&mut report, &base.join("probe-cache"), &specs, manifests);
    } else {
        report.tally(1, 1);
    }
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// Recomputes the table lines of one input seed: each point's manifest as
/// `evaluate_point` renders it, and its simulated cycles.
pub fn record(input_seed: u64, out: &mut String) {
    let configs = configs();
    let workloads = registry_seeded(SCALE, input_seed);
    for (c, config) in configs.iter().enumerate() {
        for (k, spec) in job(input_seed, c, &configs).iter().enumerate() {
            let text = evaluate_point(spec).expect("grid points evaluate");
            let run = workloads[k].execute(config);
            let e = Entry {
                digest: expected::manifest_digest(&text),
                cycles: expected::phase1_cycles(&run.stats, &run.precise_stats),
            };
            expected::line(out, "serve", input_seed, point_index(c, k), e);
        }
    }
}
