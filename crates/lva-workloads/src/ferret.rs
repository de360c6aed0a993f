//! ferret — content-based image similarity search.
//!
//! §IV: images are divided into segments, each described by a feature
//! vector of floats; the benchmark computes distances between the query's
//! segments and every database segment to rank the most similar images. We
//! annotate the database feature-vector loads. The error metric is
//! conservative: 1 − |approx ∩ precise| / |precise| over the returned
//! result sets — images that satisfy the query but differ from the precise
//! subset still count as errors, so ferret's numbers are pessimistic (the
//! paper calls this out explicitly).

use crate::util::{interleaved_chunks, seeded_rng};
use crate::{Kernel, PreciseMemo, WorkloadScale};
use lva_core::Rng64;
use lva_core::{Pc, Value, ValueType};
use lva_sim::{LoadReq, SimHarness};

const PC_BASE: u64 = 0x5000;
/// The distance loop is unrolled over feature dimensions four at a time,
/// giving four static load sites.
const PC_DIMS: [Pc; 4] = [
    Pc(PC_BASE),
    Pc(PC_BASE + 4),
    Pc(PC_BASE + 8),
    Pc(PC_BASE + 12),
];
const TICKS_PER_DIM: u32 = 3;
const TICKS_PER_SEGMENT: u32 = 12;

/// The ferret kernel.
#[derive(Debug, Clone)]
pub struct Ferret {
    images: usize,
    segments_per_image: usize,
    dims: usize,
    top_k: usize,
    /// Flattened database features: image-major, then segment, then dim.
    db: Vec<f32>,
    /// Query feature vectors: query-major, then segment, then dim.
    queries: Vec<f32>,
    n_queries: usize,
    /// Precise reference runs, kept by [`crate::Workload::execute`].
    memo: PreciseMemo<Vec<Vec<usize>>>,
}

impl Ferret {
    /// Builds a deterministic image database with clustered features (so
    /// queries have meaningful nearest neighbours).
    #[must_use]
    pub fn new(scale: WorkloadScale) -> Self {
        Self::with_seed(scale, 0)
    }

    /// Like [`new`](Self::new), but perturbing the input generation with
    /// `seed` — the paper averages every measurement over 5 simulation
    /// runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (images, segments_per_image, dims, n_queries, top_k) = match scale {
            WorkloadScale::Test => (96, 4, 16, 4, 8),
            WorkloadScale::Small => (600, 4, 32, 8, 12),
            WorkloadScale::Medium => (1_500, 4, 32, 12, 16),
        };
        let mut rng = seeded_rng(0xFE44 ^ seed, 0);
        let clusters = 12;
        // Real image descriptors are sparse: most dimensions are exactly
        // zero. That sparsity is the value locality the approximator
        // latches onto (long runs of identical zeros), and clobbering the
        // occasional non-zero dimension is what perturbs the rankings.
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            rng.gen_range(1.0f32..8.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let gen_vec = |rng: &mut Rng64, c: usize| -> Vec<f32> {
            centers[c]
                .iter()
                .map(|&m| {
                    if m == 0.0 {
                        0.0
                    } else {
                        m + rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect()
        };
        let mut db = Vec::with_capacity(images * segments_per_image * dims);
        for img in 0..images {
            let c = img % clusters;
            for _ in 0..segments_per_image {
                db.extend(gen_vec(&mut rng, c));
            }
        }
        // Queries sit *between* two clusters (70/30 blend), so the tail of
        // the top-K straddles a cluster boundary — that is where
        // approximation-perturbed distances reorder results and the
        // intersection metric becomes sensitive, as in the paper.
        let mut queries = Vec::with_capacity(n_queries * segments_per_image * dims);
        for q in 0..n_queries {
            let c1 = (q * 3) % clusters;
            let c2 = (q * 3 + 1) % clusters;
            for _ in 0..segments_per_image {
                let v1 = gen_vec(&mut rng, c1);
                let v2 = gen_vec(&mut rng, c2);
                queries.extend(
                    v1.iter()
                        .zip(&v2)
                        .map(|(a, b)| 0.7 * a + 0.3 * b),
                );
            }
        }
        Ferret {
            images,
            segments_per_image,
            dims,
            top_k,
            db,
            queries,
            n_queries,
            memo: PreciseMemo::default(),
        }
    }
}

impl Kernel for Ferret {
    /// Per query: the ranked set of result image ids.
    type Output = Vec<Vec<usize>>;

    fn precise_memo(&self) -> &PreciseMemo<Self::Output> {
        &self.memo
    }

    fn name(&self) -> &'static str {
        "ferret"
    }

    fn run(&self, h: &mut SimHarness) -> Vec<Vec<usize>> {
        let db_base = h.alloc(4 * self.db.len() as u64, 64);
        h.memory_mut().write_f32_slice(db_base, &self.db);

        let seg_len = self.dims;
        let img_len = self.segments_per_image * seg_len;
        let mut results = vec![Vec::new(); self.n_queries];
        let mut reqs: Vec<LoadReq> = Vec::with_capacity(self.dims);
        let mut vals: Vec<Value> = Vec::with_capacity(self.dims);

        for (thread, range) in interleaved_chunks(self.n_queries, 1) {
            h.set_thread(thread);
            for q in range {
                let query = &self.queries[q * img_len..(q + 1) * img_len];
                // Image distance: sum over query segments of the min
                // distance to any database segment of that image.
                let mut scored: Vec<(f64, usize)> = Vec::with_capacity(self.images);
                for img in 0..self.images {
                    let mut total = 0.0f64;
                    for qs in 0..self.segments_per_image {
                        let qv = &query[qs * seg_len..(qs + 1) * seg_len];
                        let mut best = f64::INFINITY;
                        for ds in 0..self.segments_per_image {
                            let off = (img * img_len + ds * seg_len) as u64;
                            // One batch over the segment's feature vector;
                            // the per-dimension arithmetic ticks follow it.
                            reqs.clear();
                            for d in 0..self.dims {
                                let pc = PC_DIMS[d % PC_DIMS.len()];
                                reqs.push((
                                    pc,
                                    db_base.offset(4 * (off + d as u64)),
                                    ValueType::F32,
                                    true,
                                ));
                            }
                            vals.clear();
                            vals.resize(reqs.len(), Value::from_bits(0, ValueType::U8));
                            h.load_batch(&reqs, &mut vals);
                            let mut dist = 0.0f64;
                            for (d, dbv) in vals.iter().enumerate() {
                                let diff = f64::from(qv[d]) - f64::from(dbv.as_f32());
                                dist += diff * diff;
                            }
                            if dist < best {
                                best = dist;
                            }
                            h.tick(TICKS_PER_DIM * self.dims as u32 + TICKS_PER_SEGMENT);
                        }
                        total += best.sqrt();
                    }
                    scored.push((total, img));
                }
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                results[q] = scored.iter().take(self.top_k).map(|&(_, i)| i).collect();
            }
        }
        results
    }

    /// 1 − |approx ∩ precise| / |precise|, averaged over queries (§IV).
    fn output_error(&self, precise: &Vec<Vec<usize>>, approx: &Vec<Vec<usize>>) -> f64 {
        assert_eq!(precise.len(), approx.len(), "query count changed");
        if precise.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (p, a) in precise.iter().zip(approx) {
            if p.is_empty() {
                continue;
            }
            let inter = p.iter().filter(|i| a.contains(i)).count();
            total += 1.0 - inter as f64 / p.len() as f64;
        }
        total / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn queries_find_their_cluster() {
        let wl = Ferret::new(WorkloadScale::Test);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let results = wl.run(&mut h);
        // Query q was drawn from cluster (3q mod 12); the database images of
        // that cluster are img % 12 == c. The top hit must be in-cluster.
        for (q, res) in results.iter().enumerate() {
            let c = (q * 3) % 12;
            assert_eq!(res[0] % 12, c, "query {q} top hit {res:?}");
        }
    }

    #[test]
    fn error_metric_is_intersection_based() {
        let wl = Ferret::new(WorkloadScale::Test);
        let p = vec![vec![1, 2, 3, 4]];
        let same = wl.output_error(&p, &p.clone());
        assert_eq!(same, 0.0);
        let half = wl.output_error(&p, &vec![vec![1, 2, 9, 10]]);
        assert!((half - 0.5).abs() < 1e-12);
        let none = wl.output_error(&p, &vec![vec![7, 8, 9, 10]]);
        assert_eq!(none, 1.0);
    }

    #[test]
    fn lva_error_is_pessimistic_but_bounded() {
        let wl = Ferret::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        // The paper's ferret error is the suite's worst (tens of percent);
        // we only require that the search does not fall apart completely.
        assert!(run.output_error <= 0.8, "error {}", run.output_error);
        assert!(run.stats.total.approx_loads > 0);
    }

    #[test]
    fn float_features_are_annotated() {
        let wl = Ferret::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::precise());
        assert_eq!(run.stats.static_approx_pcs(), PC_DIMS.len());
        assert!(run.stats.total.approx_loads > run.stats.total.loads / 2);
    }
}
