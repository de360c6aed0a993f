//! The layer probe table of the traced run: the public functions of each
//! layer, timed one call pattern at a time from outside the program.

use crate::report::{median, Report};
use lva_core::{
    Addr, ApproximatorConfig, CacheLevel, ClpConfig, LevelPredictor, LoadValueApproximator, Pc,
    Value, ValueType,
};
use lva_mem::{CacheConfig, SetAssocCache, SimMemory};
use lva_noc::{Mesh, MeshConfig, NodeId};
use lva_serve::protocol::encode_outcome;
use lva_serve::{point_fingerprint, JobOutcome, PointSpec, ResultCache};
use lva_sim::InFlightSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const TARGET_BATCH: Duration = Duration::from_millis(20);

/// Median nanoseconds per call of `op` over timed batches, after one
/// calibration batch sized to take about [`TARGET_BATCH`].
fn per_call_ns<R>(mut op: impl FnMut() -> R) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        let elapsed = t.elapsed();
        if elapsed >= TARGET_BATCH || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(op());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

fn approximator_ns(config: ApproximatorConfig) -> f64 {
    let mut a = LoadValueApproximator::new(config);
    let mut i = 0u64;
    per_call_ns(|| {
        let outcome = a.on_miss(Pc(black_box(i % 64)), ValueType::F32);
        a.train(outcome.token(), Value::from_f32((i % 7) as f32));
        i += 1;
    })
}

/// `lva-core`, `lva-mem` and `lva-sim::mshr`: the phase-1 hot path.
pub fn phase1(report: &mut Report) {
    report.metric(
        "core.approx_miss_train_ns.ghb0",
        approximator_ns(ApproximatorConfig::baseline()),
    );
    report.metric(
        "core.approx_miss_train_ns.ghb4",
        approximator_ns(ApproximatorConfig::with_ghb(4)),
    );

    let mut clp = LevelPredictor::new(ClpConfig::baseline());
    let mut i = 0u64;
    report.metric(
        "core.clp_predict_verify_ns",
        per_call_ns(|| {
            let p = clp.predict(Pc(black_box(i % 64)));
            let hit = clp.verify(&p, CacheLevel::from_index(((i / 64) % 4) as u32));
            i += 1;
            hit
        }),
    );

    const BYTES: u64 = 1 << 16;
    let mut mem = SimMemory::new();
    let base = mem.alloc(BYTES, 64);
    let values: Vec<f32> = (0..BYTES / 4).map(|v| v as f32).collect();
    mem.write_f32_slice(base, &values);
    let mut i = 0u64;
    report.metric(
        "mem.read_value_ns",
        per_call_ns(|| {
            let v = mem.read_value(base.offset(black_box((i * 4) % BYTES)), ValueType::F32);
            i += 1;
            v
        }),
    );

    let mut cache = SetAssocCache::new(CacheConfig::pin_l1());
    for blk in 0..64u64 {
        cache.install(Addr(blk * 64), false);
    }
    let mut i = 0u64;
    report.metric(
        "mem.l1_hit_ns",
        per_call_ns(|| {
            let r = cache.access(Addr(black_box((i % 64) * 64)));
            i += 1;
            r
        }),
    );
    let mut cache = SetAssocCache::new(CacheConfig::pin_l1());
    let mut i = 0u64;
    report.metric(
        "mem.l1_install_evict_ns",
        per_call_ns(|| {
            let r = cache.install(Addr(black_box(i * 64)), false);
            i += 1;
            r
        }),
    );

    // A sliding window of 16 outstanding misses, as an MSHR file sees it.
    let mut mshr = InFlightSet::new();
    let mut i = 0u64;
    report.metric(
        "mshr.inflight_churn_ns",
        per_call_ns(|| {
            mshr.insert(black_box(i));
            let removed = i >= 16 && mshr.remove(i - 16);
            i += 1;
            removed
        }),
    );
}

/// `lva-noc`: one 5-flit message across the 2×2 mesh and its delivery.
pub fn noc(report: &mut Report) {
    let mut mesh: Mesh<u64> = Mesh::new(MeshConfig::paper());
    let mut now = 0u64;
    report.metric(
        "noc.send_poll_ns",
        per_call_ns(|| {
            mesh.send(now, NodeId(0), NodeId(3), 5, now);
            now += 20;
            mesh.poll(NodeId(3), now).len()
        }),
    );
}

/// `lva-serve` and `lva-obs::json` on real data: the specs and manifests
/// of one served job. `dir` is a scratch directory for the disk tier.
pub fn serve(report: &mut Report, dir: &Path, specs: &[PointSpec], manifests: &[String]) {
    let mut i = 0usize;
    report.metric(
        "serve.fingerprint_ns",
        per_call_ns(|| {
            let s = &specs[i % specs.len()];
            i += 1;
            point_fingerprint(&s.workload, s.scale, s.seed, &s.config)
        }),
    );

    let Ok(mut cache) = ResultCache::open(dir, 256) else {
        report.tally(1, 1);
        return;
    };
    let keys: Vec<u64> = specs.iter().map(PointSpec::fingerprint).collect();
    let mut i = 0usize;
    report.metric(
        "serve.cache_put_us",
        per_call_ns(|| {
            let k = i % keys.len();
            i += 1;
            cache.put(keys[k], manifests[k].clone());
        }) / 1e3,
    );
    let mut i = 0usize;
    report.metric(
        "serve.cache_get_mem_us",
        per_call_ns(|| {
            i += 1;
            cache.get(keys[i % keys.len()])
        }) / 1e3,
    );
    let mut i = 0usize;
    let mut misses = 0u64;
    report.metric(
        "serve.cache_get_disk_us",
        per_call_ns(|| {
            cache.clear_memory();
            i += 1;
            let got = cache.get(keys[i % keys.len()]);
            misses += u64::from(got.is_none());
            got
        }) / 1e3,
    );
    report.tally(1, u64::from(misses > 0));
    let _ = std::fs::remove_dir_all(dir);

    let outcome = JobOutcome {
        results: manifests.iter().cloned().map(Ok).collect(),
        cache_hits: manifests.len() as u64,
        deduped: 0,
    };
    report.metric(
        "serve.encode_outcome_ms",
        per_call_ns(|| encode_outcome(1, &outcome)) / 1e6,
    );
    let line = encode_outcome(1, &outcome);
    let parse_ns = per_call_ns(|| lva_obs::parse_json(&line).is_ok());
    report.tally(1, u64::from(lva_obs::parse_json(&line).is_err()));
    report.metric("obs.parse_json_ms", parse_ns / 1e6);
    report.metric("obs.parse_json_ns_per_byte", parse_ns / line.len() as f64);
}
