//! Cross-mechanism conformance harness: one table of mechanism
//! constructors, one battery of invariants every family must pass.
//!
//! The point of the `Mechanism::from_config` seam is that a new miss-
//! handling family (the cache-level predictor is the second; a third
//! should follow the same recipe) inherits the repo's determinism and
//! observability contracts for free. This suite makes that contract
//! executable: add one row to [`mechanisms`] and the whole battery —
//! worker-count invariance, trace neutrality, quiet-controller
//! invisibility, seeded replay — runs against the new family.

use lva::core::{
    Addr, ApproximatorConfig, CacheLevel, ClpConfig, ConfidenceWindow, LvpConfig, Pc, Rng64,
    Value, ValueType,
};
use lva::obs::{PcAttribution, TimelineConfig, TraceConfig};
use lva::sim::sweep::{run_sweep, SweepOptions};
use lva::sim::{
    FaultConfig, GovernorConfig, Knob, KnobKind, LoadReq, Mechanism, Phase1Stats, RunArtifacts,
    SimConfig, SimHarness,
};
use lva::workloads::{registry, registry_seeded, WorkloadScale};
use std::collections::HashMap;

/// The conformance table: every mechanism family under test, by name.
/// A new family joins the battery by adding one row here.
fn mechanisms() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("precise", SimConfig::precise()),
        ("lva", SimConfig::baseline_lva()),
        ("clp", SimConfig::clp(ClpConfig::baseline())),
        (
            "lva+clp",
            SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        ),
    ]
}

/// Runs every (mechanism, workload) pair and returns canonical
/// fingerprints in grid order.
fn battery_fingerprints(workers: usize, map: impl Fn(&SimConfig) -> SimConfig + Sync) -> Vec<String> {
    let workloads = registry(WorkloadScale::Test);
    let configs: Vec<SimConfig> = mechanisms().into_iter().map(|(_, c)| map(&c)).collect();
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    let options = SweepOptions {
        workers: Some(workers),
        progress: false,
    };
    run_sweep(&grid, &options, |_, &(c, w)| {
        workloads[w].execute(&configs[c]).stats.fingerprint()
    })
    .into_values()
}

#[test]
fn every_row_constructs_through_the_config_seam() {
    for (name, cfg) in mechanisms() {
        let mech = Mechanism::from_config(&cfg);
        assert!(mech.is_ok(), "{name}: {:?}", mech.err());
    }
}

#[test]
fn every_mechanism_is_worker_count_invariant() {
    let base = battery_fingerprints(1, Clone::clone);
    assert!(!base.is_empty());
    for workers in [2usize, 8] {
        let other = battery_fingerprints(workers, Clone::clone);
        assert_eq!(
            base, other,
            "a mechanism's results diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn every_mechanism_is_trace_neutral() {
    // Trace off, ring-buffered, and full attribution runs must all produce
    // byte-identical fingerprints, for every family in the table.
    let off = battery_fingerprints(4, Clone::clone);
    let ring = battery_fingerprints(4, |c| c.clone().with_trace(TraceConfig::ring(1024)));
    assert_eq!(off, ring, "ring tracing perturbed a mechanism");
    let attributed =
        battery_fingerprints(4, |c| c.clone().with_trace(TraceConfig::attribution()));
    assert_eq!(off, attributed, "attribution tracing perturbed a mechanism");
}

#[test]
fn attribution_accounts_every_miss_for_every_mechanism() {
    let workloads = registry(WorkloadScale::Test);
    for (name, cfg) in mechanisms() {
        let cfg = cfg.with_trace(TraceConfig::attribution());
        for w in &workloads {
            let run = w.execute(&cfg);
            let mut merged = PcAttribution::new();
            for col in &run.collectors {
                if let Some(a) = col.attribution() {
                    merged.merge(a);
                }
            }
            assert_eq!(
                merged.total_misses(),
                run.stats.total.raw_misses,
                "{name}/{}: attribution lost misses",
                w.name()
            );
        }
    }
}

#[test]
fn quiet_controller_is_invisible_for_every_mechanism() {
    // A degradation controller whose budget no run can exhaust must leave
    // every family's fingerprints untouched — mechanisms that never train
    // an approximator (precise, clp) trivially, lva and the hybrid
    // because the controller only acts when the budget is threatened.
    let off = battery_fingerprints(2, Clone::clone);
    let on = battery_fingerprints(2, |c| c.clone().with_error_budget(1e4));
    assert_eq!(off, on, "a quiet controller perturbed a mechanism");
}

#[test]
fn every_mechanism_replays_identically_from_a_seed() {
    // Seeded property loop: for each family, random workload seeds must
    // replay bit-for-bit — predictor and approximator state transitions
    // are functions of the input stream alone.
    let mut rng = lva::core::Rng64::new(0xc0ff_ee00);
    for case in 0..4u64 {
        let seed = rng.gen_u64();
        for (name, cfg) in mechanisms() {
            let first: Vec<String> = registry_seeded(WorkloadScale::Test, seed)
                .iter()
                .map(|w| w.execute(&cfg).stats.fingerprint())
                .collect();
            let second: Vec<String> = registry_seeded(WorkloadScale::Test, seed)
                .iter()
                .map(|w| w.execute(&cfg).stats.fingerprint())
                .collect();
            assert_eq!(
                first, second,
                "{name}: case {case} (seed {seed:#x}) did not replay identically"
            );
        }
    }
}

#[test]
fn fast_path_invariant_holds_for_every_mechanism() {
    // The load fast path skips the MSHR probe whenever the pending
    // training queue is empty, which is only sound if an empty queue
    // implies an empty in-flight set. Drive every family through a
    // seeded churn of approximate and precise loads across threads —
    // including value delays past the in-flight set's initial capacity,
    // which force MSHR growth and backward-shift deletion — and check
    // the invariant after every step, not just at the end.
    let mut rng = lva::core::Rng64::new(0xfa57_7a7e);
    for delay in [0u64, 4, 40] {
        for (name, cfg) in mechanisms() {
            let cfg = cfg.with_value_delay(delay);
            let threads = cfg.threads;
            let mut h = SimHarness::new(cfg);
            let base = h.alloc(64 * 512, 64);
            for i in 0..512u64 {
                h.memory_mut().write_f32(base.offset(i * 64), (i % 7) as f32);
            }
            for step in 0..4_000u64 {
                h.set_thread((rng.gen_u64() % threads as u64) as usize);
                let slot = rng.gen_u64() % 512;
                let addr = base.offset(slot * 64 + (rng.gen_u64() % 2) * 4);
                match rng.gen_u64() % 8 {
                    0 => h.store_f32(Pc(3), addr, slot as f32),
                    1 => drop(h.load(Pc(5), addr, ValueType::F32, false)),
                    2 => h.tick(3),
                    _ => drop(h.load(Pc(7), addr, ValueType::F32, true)),
                }
                assert!(
                    h.fast_path_invariant_holds(),
                    "{name}: empty pending queue with a non-empty in-flight \
                     set at step {step} (value_delay={delay})"
                );
            }
        }
    }
}

#[test]
fn every_knob_round_trips_through_the_actuation_seam() {
    // The governor's actuation contract: `set` returns Ok(true) exactly
    // when the family carries the knob (and `get` then reads back the
    // written value), Ok(false) exactly when it does not (and `get`
    // returns None). Every family in the table, every knob.
    let knobs = [
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(0.07)),
        Knob::Degree(3),
        Knob::PcEnable {
            pc: Pc(0x42),
            enabled: false,
        },
        Knob::ClpSlowThreshold(CacheLevel::L2),
    ];
    for (name, cfg) in mechanisms() {
        let mut mech = Mechanism::from_config(&cfg).unwrap();
        for knob in knobs {
            let applied = mech
                .set(&knob)
                .unwrap_or_else(|e| panic!("{name}/{}: valid value rejected: {e}", knob.name()));
            let read = mech.get(knob.kind());
            assert_eq!(
                applied,
                read.is_some(),
                "{name}/{}: set and get disagree on knob presence",
                knob.name()
            );
            if applied {
                assert_eq!(
                    read,
                    Some(knob),
                    "{name}/{}: set did not round-trip through get",
                    knob.name()
                );
            }
        }
    }
}

#[test]
fn invalid_knob_values_error_without_panicking() {
    // Bad actuation values must surface as `ConfigError` on families that
    // carry the knob — leaving the old value in place — and stay inert
    // Ok(false) on families that do not.
    for bad in [
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(-0.5)),
        Knob::ConfidenceWindow(ConfidenceWindow::Relative(f64::NAN)),
    ] {
        for (name, cfg) in mechanisms() {
            let mut mech = Mechanism::from_config(&cfg).unwrap();
            let before = mech.get(KnobKind::ConfidenceWindow);
            match mech.set(&bad) {
                Err(_) => {
                    assert!(before.is_some(), "{name}: error from an absent knob");
                    assert_eq!(
                        mech.get(KnobKind::ConfidenceWindow),
                        before,
                        "{name}: a rejected set still moved the knob"
                    );
                }
                Ok(applied) => {
                    assert!(!applied, "{name}: invalid window accepted");
                    assert!(before.is_none(), "{name}: present knob swallowed a bad value");
                }
            }
        }
    }
    // A hybrid over a shallow hierarchy rejects a threshold no prediction
    // could ever reach.
    let shallow = ClpConfig {
        hierarchy_depth: 2,
        slow_threshold: CacheLevel::L2,
        ..ClpConfig::baseline()
    };
    let mut hybrid =
        Mechanism::from_config(&SimConfig::lva_clp(ApproximatorConfig::baseline(), shallow))
            .unwrap();
    assert!(
        hybrid.set(&Knob::ClpSlowThreshold(CacheLevel::Dram)).is_err(),
        "unreachable slow threshold accepted"
    );
    assert_eq!(
        hybrid.get(KnobKind::ClpSlowThreshold),
        Some(Knob::ClpSlowThreshold(CacheLevel::L2)),
        "a rejected set still moved the threshold"
    );
}

#[test]
fn quiet_governor_is_invisible_for_every_mechanism() {
    // An unactuated governor run must be fingerprint-identical to
    // governor-off for every family: the ladder starts at the configured
    // top rung, so a never-breached SLO means zero actuations, and the
    // `gv=[…]` fingerprint block only appears once an actuation lands.
    let off = battery_fingerprints(2, Clone::clone);
    let on = battery_fingerprints(2, |c| c.clone().with_govern_slo(10.0));
    assert_eq!(off, on, "a quiet governor perturbed a mechanism");
}

#[test]
fn predictor_suffix_appears_only_for_predictor_mechanisms() {
    // The conditional `clp=[…]` fingerprint block is the cross-family
    // observability contract: present exactly when a level predictor ran.
    let workloads = registry(WorkloadScale::Test);
    for (name, cfg) in mechanisms() {
        let has_predictor = matches!(name, "clp" | "lva+clp");
        for w in &workloads {
            let fp = w.execute(&cfg).stats.fingerprint();
            assert_eq!(
                fp.contains("clp=["),
                has_predictor,
                "{name}/{}: unexpected fingerprint shape: {fp}",
                w.name()
            );
        }
    }
}

// ----- differential check of the load API -----
//
// `load` and `load_batch` must be observably identical however a request
// stream is split, and a precise run must agree with a deliberately
// naive model of the memory hierarchy. The first comparison catches a
// batch path that drifts from the per-load step; the second catches a
// fault in the hit accounting both of them share.

/// Blocks in the stream's working set: 256 KiB, four times the L1, so
/// streams both hit and miss at every level of the modelled hierarchy.
const STREAM_BLOCKS: u64 = 4096;

/// One stretch of a seeded request stream: a run of loads on one thread,
/// then a store and some compute. Addresses are offsets from the
/// working set's base.
struct Segment {
    thread: usize,
    loads: Vec<LoadReq>,
    store: (u64, f32),
    tick: u32,
}

fn load_stream(seed: u64, threads: usize) -> Vec<Segment> {
    let mut rng = Rng64::new(seed);
    let mut block = 0u64;
    (0..150)
        .map(|_| {
            let thread = (rng.gen_u64() % threads as u64) as usize;
            let len = 1 + rng.gen_u64() % 48;
            let loads = (0..len)
                .map(|_| {
                    // Mostly walk forward from the last block (L1 hits and
                    // fresh neighbours), sometimes jump anywhere.
                    block = if rng.gen_u64().is_multiple_of(8) {
                        rng.gen_u64() % STREAM_BLOCKS
                    } else {
                        (block + rng.gen_u64() % 3) % STREAM_BLOCKS
                    };
                    let pc = Pc(0x100 + rng.gen_u64() % 4);
                    // PC 0x100 reads each block's first word, which holds a
                    // constant until a store lands on it: a stable value
                    // for the predictors to learn, and to be wrong about.
                    let (ty, offset) = match rng.gen_u64() % 6 {
                        _ if pc == Pc(0x100) => (ValueType::F32, 0),
                        0 => (ValueType::I32, 4 * (rng.gen_u64() % 16)),
                        1 => (ValueType::F64, 8 * (rng.gen_u64() % 8)),
                        2 => (ValueType::U8, rng.gen_u64() % 64),
                        _ => (ValueType::F32, 4 * (rng.gen_u64() % 16)),
                    };
                    (pc, Addr(block * 64 + offset), ty, !rng.gen_u64().is_multiple_of(4))
                })
                .collect();
            let store = (
                (rng.gen_u64() % STREAM_BLOCKS) * 64 + 4 * (rng.gen_u64() % 16),
                90.0 + rng.gen_f32() * 20.0,
            );
            let tick = (rng.gen_u64() % 5) as u32;
            Segment {
                thread,
                loads,
                store,
                tick,
            }
        })
        .collect()
}

/// How a stream's loads are handed to the harness.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every request through `load`, one at a time.
    PerLoad,
    /// Every request as a length-1 `load_batch`.
    Ones,
    /// One `load_batch` per segment.
    Whole,
    /// Random splits of each segment, drawn from the given seed.
    Mixed(u64),
}

/// The working set's words hold values within ±6 % of 106, so a 10 %
/// confidence window accepts some approximations and rejects others;
/// every block's first word holds the same value.
fn fill_word(block: u64, word: u64) -> f32 {
    if word == 0 {
        104.0
    } else {
        100.0 + ((block * 7 + word) % 13) as f32
    }
}

fn drive(cfg: &SimConfig, stream: &[Segment], shape: Shape) -> (Vec<Value>, RunArtifacts) {
    let mut h = SimHarness::new(cfg.clone());
    let base = h.alloc(STREAM_BLOCKS * 64, 64);
    for block in 0..STREAM_BLOCKS {
        for word in 0..16 {
            h.memory_mut()
                .write_f32(base.offset(block * 64 + 4 * word), fill_word(block, word));
        }
    }
    let mut splits = match shape {
        Shape::Mixed(seed) => Rng64::new(seed),
        _ => Rng64::new(0),
    };
    let mut values = Vec::new();
    for seg in stream {
        h.set_thread(seg.thread);
        let reqs: Vec<LoadReq> = seg
            .loads
            .iter()
            .map(|&(pc, off, ty, approx)| (pc, base.offset(off.0), ty, approx))
            .collect();
        let mut out = vec![Value::from_bits(0, ValueType::U8); reqs.len()];
        match shape {
            Shape::PerLoad => {
                for (slot, &(pc, addr, ty, approx)) in out.iter_mut().zip(&reqs) {
                    *slot = h.load(pc, addr, ty, approx);
                }
            }
            Shape::Ones => {
                for (req, slot) in reqs.chunks(1).zip(out.chunks_mut(1)) {
                    h.load_batch(req, slot);
                }
            }
            Shape::Whole => h.load_batch(&reqs, &mut out),
            Shape::Mixed(_) => {
                let mut start = 0;
                while start < reqs.len() {
                    let len = 1 + (splits.gen_u64() % (reqs.len() - start) as u64) as usize;
                    let end = start + len;
                    h.load_batch(&reqs[start..end], &mut out[start..end]);
                    start = end;
                }
            }
        }
        values.extend(out);
        h.store(Pc(0x200), base.offset(seg.store.0), Value::from_f32(seg.store.1));
        h.tick(seg.tick);
    }
    (values, h.finish())
}

/// Every mechanism family the harness dispatches to, plus degree-4 LVA
/// variants (which skip training fetches).
fn load_api_mechanisms() -> Vec<(&'static str, SimConfig)> {
    let mut rows = mechanisms();
    rows.extend([
        (
            "lva-deg4",
            SimConfig::lva(ApproximatorConfig::with_degree(4)),
        ),
        (
            "lva+clp-deg4",
            SimConfig::lva_clp(ApproximatorConfig::with_degree(4), ClpConfig::baseline()),
        ),
        ("lvp", SimConfig::lvp(LvpConfig::baseline())),
        ("realistic-lvp", SimConfig::realistic_lvp()),
        ("prefetch", SimConfig::prefetch(4)),
    ]);
    rows
}

/// Each family at value delay 0/4/40, faults off and on, and three
/// observation modes: none; a timeline and a governor on short, co-prime
/// epochs so their boundaries fall mid-batch; recorded phase-2 traces.
fn load_api_configs() -> Vec<(String, SimConfig)> {
    let mut rows = Vec::new();
    for (name, mech) in load_api_mechanisms() {
        for delay in [0u64, 4, 40] {
            for faults in [false, true] {
                for observe in ["plain", "epochs", "traces"] {
                    let mut cfg = mech.clone().with_value_delay(delay);
                    if faults {
                        cfg = cfg.with_faults(
                            FaultConfig::seeded(0xD1FF ^ delay)
                                .with_table_rate(0.02)
                                .with_drop_rate(0.05)
                                .with_delay(0.10, 8),
                        );
                    }
                    match observe {
                        "epochs" => {
                            cfg = cfg.with_timeline(TimelineConfig::every(37)).with_govern(
                                GovernorConfig {
                                    epoch_len: 53,
                                    min_samples: 2,
                                    hysteresis_epochs: 1,
                                    ..GovernorConfig::slo(0.01)
                                },
                            );
                        }
                        "traces" => cfg = cfg.with_traces(),
                        _ => {}
                    }
                    rows.push((
                        format!("{name}/delay{delay}/faults={faults}/{observe}"),
                        cfg,
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn load_and_load_batch_agree_on_every_stream_shape() {
    let mut seeds = Rng64::new(0x10ad_ba7c);
    let mut seen = Vec::new();
    for (name, cfg) in load_api_configs() {
        let stream = load_stream(seeds.gen_u64(), cfg.threads);
        let (want, reference) = drive(&cfg, &stream, Shape::PerLoad);
        assert_eq!(want.len(), stream.iter().map(|s| s.loads.len()).sum::<usize>());
        seen.push(reference.stats.total.clone());
        for shape in [Shape::Ones, Shape::Whole, Shape::Mixed(seeds.gen_u64())] {
            let (got, run) = drive(&cfg, &stream, shape);
            let first_diff = want.iter().zip(&got).position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "{name} {shape:?}: returned values diverge");
            assert_eq!(
                run.stats.fingerprint(),
                reference.stats.fingerprint(),
                "{name} {shape:?}: fingerprint diverges"
            );
            assert_eq!(run.stats, reference.stats, "{name} {shape:?}: stats diverge");
            assert_eq!(run.timelines, reference.timelines, "{name} {shape:?}: timelines");
            assert_eq!(run.govern, reference.govern, "{name} {shape:?}: governor reports");
            assert_eq!(run.traces, reference.traces, "{name} {shape:?}: phase-2 traces");
        }
    }
    // The streams must reach every path the comparison is meant to cover.
    let seen = Phase1Stats::from_threads(seen).total;
    for (path, count) in [
        ("l1_hits", seen.l1_hits),
        ("raw_misses", seen.raw_misses),
        ("approximations", seen.approximations),
        ("lvp_correct", seen.lvp_correct),
        ("rollbacks", seen.rollbacks),
        ("useful_prefetches", seen.useful_prefetches),
        ("clp_predictions", seen.clp_predictions),
        ("faults_injected", seen.faults_injected),
        ("drains_dropped", seen.drains_dropped),
        ("fetches_delayed", seen.fetches_delayed),
        ("govern_actuations", seen.govern_actuations),
    ] {
        assert!(count > 0, "no stream exercised {path}");
    }
}

/// A deliberately naive set-associative LRU cache: one `Vec` of block
/// numbers per set, least recently used first.
struct NaiveCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl NaiveCache {
    fn new(bytes: u64, ways: usize) -> Self {
        NaiveCache {
            sets: vec![Vec::new(); (bytes / 64) as usize / ways],
            ways,
        }
    }

    /// Whether `block` is present; a hit becomes most recently used.
    fn touch(&mut self, block: u64) -> bool {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(block % n) as usize];
        match set.iter().position(|&b| b == block) {
            Some(i) => {
                set.remove(i);
                set.push(block);
                true
            }
            None => false,
        }
    }

    fn install(&mut self, block: u64) {
        if self.touch(block) {
            return;
        }
        let n = self.sets.len() as u64;
        let ways = self.ways;
        let set = &mut self.sets[(block % n) as usize];
        if set.len() == ways {
            set.remove(0);
        }
        set.push(block);
    }
}

/// The counters the naive model predicts for one thread.
#[derive(Debug, Default, PartialEq)]
struct NaiveCounts {
    loads: u64,
    l1_hits: u64,
    raw_misses: u64,
    load_fetches: u64,
    load_latency_cycles: u64,
}

/// One thread of the naive precise machine: private 64 KiB 8-way L1,
/// 256 KiB 8-way L2 and 2 MiB 16-way LLC, all inclusive on fill.
struct NaiveThread {
    l1: NaiveCache,
    l2: NaiveCache,
    llc: NaiveCache,
    counts: NaiveCounts,
}

impl NaiveThread {
    fn new() -> Self {
        NaiveThread {
            l1: NaiveCache::new(64 * 1024, 8),
            l2: NaiveCache::new(256 * 1024, 8),
            llc: NaiveCache::new(2 * 1024 * 1024, 16),
            counts: NaiveCounts::default(),
        }
    }

    /// The level serving an L1 miss, filling the levels above it.
    fn walk(&mut self, block: u64) -> CacheLevel {
        if self.l2.touch(block) {
            CacheLevel::L2
        } else if self.llc.touch(block) {
            self.l2.install(block);
            CacheLevel::Llc
        } else {
            self.llc.install(block);
            self.l2.install(block);
            CacheLevel::Dram
        }
    }
}

/// Precise phase-1 semantics with no fast path: byte-addressed memory in
/// a `HashMap`, every load a full L1 probe, every miss a serial walk.
struct NaiveMachine {
    mem: HashMap<u64, u8>,
    threads: Vec<NaiveThread>,
}

impl NaiveMachine {
    fn write(&mut self, addr: Addr, value: Value) {
        let bytes = value.bits().to_le_bytes();
        for (i, &b) in bytes[..value.value_type().size_bytes() as usize].iter().enumerate() {
            self.mem.insert(addr.0 + i as u64, b);
        }
    }

    fn load(&mut self, thread: usize, addr: Addr, ty: ValueType) -> Value {
        let mut bits = 0u64;
        for i in 0..ty.size_bytes() {
            let byte = self.mem.get(&(addr.0 + i)).copied().unwrap_or(0);
            bits |= u64::from(byte) << (8 * i);
        }
        let t = &mut self.threads[thread];
        let block = addr.0 / 64;
        t.counts.loads += 1;
        if t.l1.touch(block) {
            t.counts.l1_hits += 1;
            t.counts.load_latency_cycles += CacheLevel::L1.service_latency();
        } else {
            t.counts.raw_misses += 1;
            t.counts.load_latency_cycles += t.walk(block).serial_latency();
            t.counts.load_fetches += 1;
            t.l1.install(block);
        }
        Value::from_bits(bits, ty)
    }

    fn store(&mut self, thread: usize, addr: Addr, value: Value) {
        self.write(addr, value);
        let t = &mut self.threads[thread];
        let block = addr.0 / 64;
        if !t.l1.touch(block) {
            t.l1.install(block);
            let _ = t.walk(block);
        }
    }
}

#[test]
fn precise_loads_match_a_naive_reference() {
    let cfg = SimConfig::precise();
    let mut seeds = Rng64::new(0x0ac1_e5ee);
    for case in 0..6 {
        let stream = load_stream(seeds.gen_u64(), cfg.threads);
        // The harness places the working set at the first allocation.
        let base = SimHarness::new(cfg.clone()).alloc(STREAM_BLOCKS * 64, 64);
        let mut naive = NaiveMachine {
            mem: HashMap::new(),
            threads: (0..cfg.threads).map(|_| NaiveThread::new()).collect(),
        };
        for block in 0..STREAM_BLOCKS {
            for word in 0..16 {
                let addr = base.offset(block * 64 + 4 * word);
                naive.write(addr, Value::from_f32(fill_word(block, word)));
            }
        }
        let mut want = Vec::new();
        for seg in &stream {
            for &(_, off, ty, _) in &seg.loads {
                want.push(naive.load(seg.thread, base.offset(off.0), ty));
            }
            naive.store(seg.thread, base.offset(seg.store.0), Value::from_f32(seg.store.1));
        }
        for shape in [Shape::PerLoad, Shape::Whole, Shape::Mixed(seeds.gen_u64())] {
            let (got, run) = drive(&cfg, &stream, shape);
            let first_diff = want.iter().zip(&got).position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "case {case} {shape:?}: values diverge");
            assert_eq!(got.len(), want.len());
            for (thread, (t, n)) in run.stats.per_thread.iter().zip(&naive.threads).enumerate() {
                let counts = NaiveCounts {
                    loads: t.loads,
                    l1_hits: t.l1_hits,
                    raw_misses: t.raw_misses,
                    load_fetches: t.load_fetches,
                    load_latency_cycles: t.load_latency_cycles,
                };
                assert_eq!(
                    counts, n.counts,
                    "case {case} {shape:?} thread {thread}: counters diverge from the reference"
                );
            }
        }
    }
}
