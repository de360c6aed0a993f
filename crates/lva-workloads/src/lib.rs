//! # lva-workloads — the paper's seven PARSEC 3.0 kernels (§IV)
//!
//! The paper annotates approximate data in seven PARSEC benchmarks and runs
//! them under Pin with clobbered load values. We reimplement each
//! benchmark's *approximated hot kernel* — the loops §IV identifies — as a
//! deterministic Rust kernel running on the [`SimHarness`], together with
//! the paper's output-error metric:
//!
//! | kernel | approximated data | error metric (§IV) |
//! |--------|-------------------|--------------------|
//! | [`blackscholes`] | input option parameters (f32) | % prices with error > 1% |
//! | [`bodytrack`]    | image-map pixels (u8)         | pairwise distance of output vectors |
//! | [`canneal`]      | neighbour `<x,y>` coords (i32)| relative difference in final routing cost |
//! | [`ferret`]       | feature vectors (f32)         | 1 − |approx ∩ precise| / |precise| of search results |
//! | [`fluidanimate`] | particle state (f32)          | % particles in a different cell |
//! | [`swaptions`]    | input rate curves (f64)       | mean relative price error |
//! | [`x264`]         | reference-frame pixels (u8)   | PSNR and bit rate, weighted equally |
//!
//! Inputs are synthetic but mirror the properties the paper credits for
//! LVA's wins (e.g. blackscholes' spot price takes 4 values, two of which
//! cover 98% of options). All randomness is seeded; runs are deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackscholes;
pub mod bodytrack;
pub mod canneal;
pub mod ferret;
pub mod fluidanimate;
pub mod swaptions;
pub mod util;
pub mod x264;

use lva_cpu::ThreadTrace;
use lva_sim::{MechanismKind, Phase1Stats, SimConfig, SimHarness};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Input scale: how much work a kernel does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadScale {
    /// Seconds-fraction runs for unit tests.
    Test,
    /// The default experiment scale (the benches use this).
    #[default]
    Small,
    /// Longer runs for the full-system experiments.
    Medium,
}

/// A kernel with a typed output and the paper's error metric. Implementing
/// this gives you [`Workload`] (the object-safe experiment interface) for
/// free.
pub trait Kernel {
    /// The application's final output.
    type Output;

    /// Benchmark name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Runs the kernel, routing every instrumented access through the
    /// harness.
    fn run(&self, harness: &mut SimHarness) -> Self::Output;

    /// The paper's application-level output-error metric, comparing an
    /// approximate run's output against the precise run's.
    fn output_error(&self, precise: &Self::Output, approx: &Self::Output) -> f64;

    /// This kernel object's memo of precise reference runs, which
    /// [`Workload::execute`] consults; a kernel stores one
    /// [`PreciseMemo::default`] and returns it here.
    fn precise_memo(&self) -> &PreciseMemo<Self::Output>;
}

/// Results of executing a workload under some configuration, always paired
/// with a precise reference run of the same kernel (the paper normalizes
/// every figure to precise execution).
#[derive(Debug)]
pub struct WorkloadRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Phase-1 statistics of the (possibly approximate) run.
    pub stats: Phase1Stats,
    /// Phase-1 statistics of the precise reference run.
    pub precise_stats: Phase1Stats,
    /// Application output error versus the precise run (0.0 for precise).
    pub output_error: f64,
    /// Per-thread traces of the *precise* run, for phase-2 replay (empty
    /// unless [`SimConfig::record_traces`] is set).
    pub traces: Vec<ThreadTrace>,
    /// Per-core event-trace collectors of the (possibly approximate) run
    /// (all [`lva_obs::TraceCollector::Off`] unless [`SimConfig::trace`]
    /// is enabled).
    pub collectors: Vec<lva_obs::TraceCollector>,
    /// Per-thread degradation-controller reports of the (possibly
    /// approximate) run (empty unless [`SimConfig::degrade`] is set).
    pub degrade: Vec<lva_sim::DegradeReport>,
    /// Per-thread epoch timelines of the (possibly approximate) run,
    /// sampled on each thread's `load_clock` (empty unless
    /// [`SimConfig::timeline`] is set).
    pub timelines: Vec<lva_obs::Timeline>,
    /// Per-thread governor reports of the (possibly approximate) run
    /// (empty unless [`SimConfig::govern`] is set).
    pub govern: Vec<lva_sim::GovernorReport>,
}

impl WorkloadRun {
    /// MPKI normalized to precise execution (the y-axis of Figs. 4, 6–8).
    #[must_use]
    pub fn normalized_mpki(&self) -> f64 {
        let base = self.precise_stats.mpki();
        if base == 0.0 {
            if self.stats.mpki() == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stats.mpki() / base
        }
    }

    /// Blocks fetched, normalized to precise execution (Fig. 8b).
    #[must_use]
    pub fn normalized_fetches(&self) -> f64 {
        let base = self.precise_stats.fetches();
        if base == 0 {
            if self.stats.fetches() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.stats.fetches() as f64 / base as f64
        }
    }

    /// Variation in dynamic instruction count versus precise execution
    /// (Table I's right column).
    #[must_use]
    pub fn instruction_variation(&self) -> f64 {
        let p = self.precise_stats.total.instructions as f64;
        if p == 0.0 {
            return 0.0;
        }
        (self.stats.total.instructions as f64 - p).abs() / p
    }
}

/// Object-safe workload interface used by the experiment harness: run under
/// a configuration, get stats + error back. `Send + Sync` so boxed
/// workloads can be shared across the sweep engine's worker threads
/// ([`lva_sim::sweep`]) — `execute` takes `&self`, each call builds its
/// own harness, and the shared [`PreciseMemo`] computes each reference at
/// most once, so concurrent execution is safe by construction.
pub trait Workload: Send + Sync {
    /// Benchmark name.
    fn name(&self) -> &'static str;

    /// Runs the kernel under `config` and reports it against a precise
    /// reference run of the same kernel.
    ///
    /// The reference runs under `config` with the mechanism set to precise
    /// and tracing, degradation, fault injection, timelines and the
    /// governor off. That derived [`SimConfig`] keys this workload
    /// object's [`PreciseMemo`], which lives as long as the object: each
    /// reference is simulated at most once, then every later call with an
    /// equal derived config reuses its output and statistics. A `config`
    /// equal to its own reference is simulated once, as the reference. A
    /// reference that records traces ([`SimConfig::record_traces`]) is
    /// simulated afresh, its traces move into the result and the rest is
    /// dropped: the memo never keeps one.
    fn execute(&self, config: &SimConfig) -> WorkloadRun;
}

/// A precise reference run: the kernel's output and its statistics.
#[derive(Debug)]
struct Reference<T> {
    output: T,
    stats: Phase1Stats,
}

/// One reference, computed by whichever caller asks for it first.
type ReferenceCell<T> = Arc<OnceLock<Reference<T>>>;

/// The precise reference runs of one kernel object, keyed on the precise
/// [`SimConfig`] that [`Workload::execute`] derives. A lookup holds the
/// lock only to find or insert an entry's cell, never across a
/// simulation; concurrent callers that want the same reference wait on
/// its cell, so it is computed once. A clone starts empty.
#[derive(Debug)]
pub struct PreciseMemo<T> {
    entries: Mutex<Vec<(SimConfig, ReferenceCell<T>)>>,
}

impl<T> PreciseMemo<T> {
    /// The cell of `config`'s reference, inserted empty if absent.
    fn cell(&self, config: &SimConfig) -> ReferenceCell<T> {
        // Every update is one push of a whole entry, so a lock poisoned
        // by a panicking caller still guards a valid list.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cell)) = entries.iter().find(|(key, _)| key == config) {
            return Arc::clone(cell);
        }
        let cell = ReferenceCell::default();
        entries.push((config.clone(), Arc::clone(&cell)));
        cell
    }
}

impl<T> Default for PreciseMemo<T> {
    fn default() -> Self {
        PreciseMemo {
            entries: Mutex::new(Vec::new()),
        }
    }
}

impl<T> Clone for PreciseMemo<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<K: Kernel + Send + Sync> Workload for K {
    fn name(&self) -> &'static str {
        Kernel::name(self)
    }

    fn execute(&self, config: &SimConfig) -> WorkloadRun {
        // The precise reference run never traces, never degrades and never
        // injects faults: it is the ground truth every metric (and the
        // quality budget itself) is measured against, so robustness knobs
        // must not leak into it through the struct update below.
        let precise_cfg = SimConfig {
            mechanism: MechanismKind::Precise,
            trace: lva_obs::TraceConfig::off(),
            degrade: None,
            faults: None,
            timeline: None,
            govern: None,
            ..config.clone()
        };
        let is_reference = *config == precise_cfg;
        let simulate = |cfg: SimConfig| {
            let mut harness = SimHarness::new(cfg);
            let out = self.run(&mut harness);
            (out, harness.finish())
        };

        // A trace-recording reference gets a cell of its own, dropped on
        // return, so only its traces outlive this call.
        let records_traces = precise_cfg.record_traces;
        let cell = if records_traces {
            ReferenceCell::default()
        } else {
            self.precise_memo().cell(&precise_cfg)
        };
        let mut traces = Vec::new();
        let reference = cell.get_or_init(|| {
            let (output, run) = simulate(precise_cfg);
            if records_traces {
                traces = run.traces;
            }
            Reference {
                output,
                stats: run.stats,
            }
        });

        if is_reference {
            return WorkloadRun {
                name: Kernel::name(self),
                stats: reference.stats.clone(),
                precise_stats: reference.stats.clone(),
                output_error: self.output_error(&reference.output, &reference.output),
                traces,
                collectors: vec![lva_obs::TraceCollector::Off; reference.stats.per_thread.len()],
                degrade: Vec::new(),
                timelines: Vec::new(),
                govern: Vec::new(),
            };
        }

        let (out, run) = simulate(config.clone());
        WorkloadRun {
            name: Kernel::name(self),
            stats: run.stats,
            precise_stats: reference.stats.clone(),
            output_error: self.output_error(&reference.output, &out),
            traces,
            collectors: run.collectors,
            degrade: run.degrade,
            timelines: run.timelines,
            govern: run.govern,
        }
    }
}

/// Benchmark names in the paper's figure order: the names [`by_name`]
/// accepts and [`registry_seeded`] builds.
pub const NAMES: [&str; 7] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "ferret",
    "fluidanimate",
    "swaptions",
    "x264",
];

/// Builds the one benchmark called `name` (see [`NAMES`]), or `None` for
/// an unknown name.
#[must_use]
pub fn by_name(name: &str, scale: WorkloadScale, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "blackscholes" => Box::new(blackscholes::Blackscholes::with_seed(scale, seed)),
        "bodytrack" => Box::new(bodytrack::Bodytrack::with_seed(scale, seed)),
        "canneal" => Box::new(canneal::Canneal::with_seed(scale, seed)),
        "ferret" => Box::new(ferret::Ferret::with_seed(scale, seed)),
        "fluidanimate" => Box::new(fluidanimate::Fluidanimate::with_seed(scale, seed)),
        "swaptions" => Box::new(swaptions::Swaptions::with_seed(scale, seed)),
        "x264" => Box::new(x264::X264::with_seed(scale, seed)),
        _ => return None,
    })
}

/// All seven benchmarks at the given scale, in the paper's figure order.
#[must_use]
pub fn registry(scale: WorkloadScale) -> Vec<Box<dyn Workload>> {
    registry_seeded(scale, 0)
}

/// Like [`registry`], but perturbing every benchmark's input generation
/// with `seed`. The paper averages all measurements over 5 simulation
/// runs; sweeping `seed` over `0..5` reproduces that methodology.
#[must_use]
pub fn registry_seeded(scale: WorkloadScale, seed: u64) -> Vec<Box<dyn Workload>> {
    NAMES
        .iter()
        .map(|name| by_name(name, scale, seed).expect("every listed name builds"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_perturb_inputs_but_not_structure() {
        use lva_sim::SimConfig;
        let a = registry_seeded(WorkloadScale::Test, 0);
        let b = registry_seeded(WorkloadScale::Test, 1);
        // blackscholes: same portfolio size, different option mix.
        let ra = a[0].execute(&SimConfig::precise());
        let rb = b[0].execute(&SimConfig::precise());
        assert_eq!(ra.stats.total.loads, rb.stats.total.loads);
        assert_ne!(
            ra.stats.total.raw_misses, 0,
            "seeded run must still execute"
        );
    }

    #[test]
    fn tracing_a_kernel_attributes_every_miss() {
        use lva_obs::{PcAttribution, TraceConfig};
        let wl = blackscholes::Blackscholes::with_seed(WorkloadScale::Test, 0);
        let cfg = lva_sim::SimConfig::baseline_lva().with_trace(TraceConfig::attribution());
        let run = wl.execute(&cfg);
        let mut merged = PcAttribution::new();
        for c in &run.collectors {
            if let Some(a) = c.attribution() {
                merged.merge(a);
            }
        }
        assert_eq!(merged.total_misses(), run.stats.total.raw_misses);
        assert!(merged.static_pcs() > 0, "kernel must touch annotated PCs");
        // The untraced reference run matches the traced one bit for bit.
        let plain = wl.execute(&lva_sim::SimConfig::baseline_lva());
        assert_eq!(plain.stats.fingerprint(), run.stats.fingerprint());
    }

    #[test]
    fn registry_matches_paper_benchmarks() {
        let names: Vec<_> = registry(WorkloadScale::Test)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "blackscholes",
                "bodytrack",
                "canneal",
                "ferret",
                "fluidanimate",
                "swaptions",
                "x264"
            ]
        );
    }
}
