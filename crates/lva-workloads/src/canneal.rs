//! canneal — simulated-annealing chip placement.
//!
//! §IV: blocks live on a 2-D grid and are connected by nets; the annealer
//! randomly swaps two blocks and recomputes routing cost. The significant
//! load misses come from the cost functions, so we annotate the integer
//! `<x, y>` coordinates of the *neighbours* (fan-in/fan-out) read inside
//! the cost computation — the swap candidates' own coordinates and the
//! accept/reject control flow stay precise. The output error is the
//! relative difference between the final routing cost of the approximate
//! and precise executions; the algorithm is itself a heuristic, so small
//! errors are tolerable.

use crate::util::{interleaved_chunks, seeded_rng};
use crate::{Kernel, PreciseMemo, WorkloadScale};
use lva_core::Rng64;
use lva_core::{Pc, Value, ValueType};
use lva_sim::{LoadReq, SimHarness};
use std::sync::Arc;

const PC_BASE: u64 = 0x2000;
/// Neighbour x in the "cost before swap" loop.
const PC_NBR_X_OLD: Pc = Pc(PC_BASE);
/// Neighbour y in the "cost before swap" loop.
const PC_NBR_Y_OLD: Pc = Pc(PC_BASE + 4);
/// Neighbour x in the "cost after swap" loop.
const PC_NBR_X_NEW: Pc = Pc(PC_BASE + 8);
/// Neighbour y in the "cost after swap" loop.
const PC_NBR_Y_NEW: Pc = Pc(PC_BASE + 12);
const PC_SELF_X: Pc = Pc(PC_BASE + 16);
const PC_SELF_Y: Pc = Pc(PC_BASE + 20);
const PC_STORE: Pc = Pc(PC_BASE + 24);

const FANIN: usize = 5;
const TICKS_PER_NEIGHBOUR: u32 = 150;

/// The canneal kernel.
#[derive(Debug, Clone)]
pub struct Canneal {
    elements: usize,
    steps: usize,
    /// `neighbours[e]` = indices of the elements on e's nets, shared with
    /// every [`Placement`] the kernel produces.
    neighbours: Arc<[[u32; FANIN]]>,
    /// Initial placement: position of element `e`.
    init_pos: Vec<(i32, i32)>,
    /// Input-perturbation seed (0 for the canonical inputs).
    seed: u64,
    /// Precise reference runs, kept by [`crate::Workload::execute`].
    memo: PreciseMemo<Placement>,
}

impl Canneal {
    /// Generates the deterministic netlist and initial placement.
    #[must_use]
    pub fn new(scale: WorkloadScale) -> Self {
        Self::with_seed(scale, 0)
    }

    /// Like [`new`](Self::new), but perturbing the input generation with
    /// `seed` — the paper averages every measurement over 5 simulation
    /// runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (elements, steps) = match scale {
            WorkloadScale::Test => (16_384, 5_000),
            WorkloadScale::Small => (65_536, 60_000),
            WorkloadScale::Medium => (131_072, 150_000),
        };
        let width = (elements as f64).sqrt() as i32;
        let mut rng = seeded_rng(0xCA ^ seed, 0);
        // Nets prefer nearby elements with a long random tail, like real
        // netlists.
        let neighbours = (0..elements)
            .map(|e| {
                let mut ns = [0u32; FANIN];
                for n in &mut ns {
                    *n = if rng.gen_bool(0.7) {
                        let delta = rng.gen_range(-64i64..=64);
                        (e as i64 + delta).rem_euclid(elements as i64) as u32
                    } else {
                        rng.gen_range(0..elements) as u32
                    };
                }
                ns
            })
            .collect();
        // Random initial placement (canneal starts unplaced; the annealer
        // has to discover the netlist's locality).
        let mut slots: Vec<(i32, i32)> = (0..elements as i32)
            .map(|e| (e % width, e / width))
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.gen_range(0..=i));
        }
        let init_pos = slots;
        Canneal {
            seed,
            elements,
            steps,
            neighbours,
            init_pos,
            memo: PreciseMemo::default(),
        }
    }

    /// Routing cost of one element at `(x, y)` against one neighbour.
    fn wire_cost(x: i32, y: i32, nx: i32, ny: i32) -> i64 {
        i64::from((x - nx).abs()) + i64::from((y - ny).abs())
    }
}

/// Final placement: element index → position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    positions: Vec<(i32, i32)>,
    neighbours: Arc<[[u32; FANIN]]>,
}

impl Placement {
    /// Total Manhattan routing cost of the placement — computed precisely,
    /// as the paper does for its error metric.
    #[must_use]
    pub fn routing_cost(&self) -> i64 {
        self.positions
            .iter()
            .enumerate()
            .map(|(e, &(x, y))| {
                self.neighbours[e]
                    .iter()
                    .map(|&n| {
                        let (nx, ny) = self.positions[n as usize];
                        Canneal::wire_cost(x, y, nx, ny)
                    })
                    .sum::<i64>()
            })
            .sum()
    }
}

impl Kernel for Canneal {
    type Output = Placement;

    fn precise_memo(&self) -> &PreciseMemo<Self::Output> {
        &self.memo
    }

    fn name(&self) -> &'static str {
        "canneal"
    }

    fn run(&self, h: &mut SimHarness) -> Placement {
        let n = self.elements as u64;
        let xs = h.alloc(4 * n, 64);
        let ys = h.alloc(4 * n, 64);
        let m = h.memory_mut();
        m.write_i32_slice(xs, &self.init_pos.iter().map(|&(x, _)| x).collect::<Vec<_>>());
        m.write_i32_slice(ys, &self.init_pos.iter().map(|&(_, y)| y).collect::<Vec<_>>());

        // Each thread anneals its share of the swap steps with its own RNG,
        // mirroring canneal's parallel swap workers on shared arrays.
        let mut rngs: Vec<Rng64> = (0..crate::util::THREADS)
            .map(|t| seeded_rng(0xCA11 ^ self.seed, t as u64))
            .collect();
        let mut temperature = 40.0f64;
        let mut reqs: Vec<LoadReq> = Vec::with_capacity(8 * FANIN);
        let mut vals: Vec<Value> = Vec::with_capacity(8 * FANIN);
        let chunks = interleaved_chunks(self.steps, 64);
        let total_chunks = chunks.len().max(1);
        for (chunk_idx, (thread, range)) in chunks.into_iter().enumerate() {
            h.set_thread(thread);
            let rng = &mut rngs[thread];
            for _ in range {
                let a = rng.gen_range(0..self.elements);
                let b = rng.gen_range(0..self.elements);
                if a == b {
                    continue;
                }
                // Precise reads of the swap candidates' own coordinates.
                let [ax, ay, bx, by] = h.load_batch_n(&[
                    (PC_SELF_X, xs.offset(4 * a as u64), ValueType::I32, false),
                    (PC_SELF_Y, ys.offset(4 * a as u64), ValueType::I32, false),
                    (PC_SELF_X, xs.offset(4 * b as u64), ValueType::I32, false),
                    (PC_SELF_Y, ys.offset(4 * b as u64), ValueType::I32, false),
                ]);
                let (ax, ay, bx, by) = (ax.as_i32(), ay.as_i32(), bx.as_i32(), by.as_i32());

                // Cost delta over both elements' nets, reading neighbour
                // coordinates through one batch of approximate loads; the
                // per-neighbour arithmetic ticks are accounted after it.
                reqs.clear();
                for elem in [a, b] {
                    for &nb in &self.neighbours[elem] {
                        if nb as usize == a || nb as usize == b {
                            continue;
                        }
                        let nx = xs.offset(4 * u64::from(nb));
                        let ny = ys.offset(4 * u64::from(nb));
                        reqs.push((PC_NBR_X_OLD, nx, ValueType::I32, true));
                        reqs.push((PC_NBR_Y_OLD, ny, ValueType::I32, true));
                        reqs.push((PC_NBR_X_NEW, nx, ValueType::I32, true));
                        reqs.push((PC_NBR_Y_NEW, ny, ValueType::I32, true));
                    }
                }
                vals.clear();
                vals.resize(reqs.len(), Value::from_bits(0, ValueType::U8));
                h.load_batch(&reqs, &mut vals);
                let mut delta = 0i64;
                let mut cursor = 0;
                for (elem, ox, oy, sx, sy) in [(a, ax, ay, bx, by), (b, bx, by, ax, ay)] {
                    for &nb in &self.neighbours[elem] {
                        if nb as usize == a || nb as usize == b {
                            continue;
                        }
                        let nx = vals[cursor].as_i32();
                        let ny = vals[cursor + 1].as_i32();
                        let nx2 = vals[cursor + 2].as_i32();
                        let ny2 = vals[cursor + 3].as_i32();
                        cursor += 4;
                        delta -= Canneal::wire_cost(ox, oy, nx, ny);
                        delta += Canneal::wire_cost(sx, sy, nx2, ny2);
                    }
                }
                h.tick(TICKS_PER_NEIGHBOUR * (cursor / 4) as u32);

                let accept = delta < 0
                    || rng.gen_bool((-(delta as f64) / temperature).exp().clamp(0.0, 1.0));
                h.tick(100);
                if accept {
                    h.store_i32(PC_STORE, xs.offset(4 * a as u64), bx);
                    h.store_i32(PC_STORE, ys.offset(4 * a as u64), by);
                    h.store_i32(PC_STORE, xs.offset(4 * b as u64), ax);
                    h.store_i32(PC_STORE, ys.offset(4 * b as u64), ay);
                }
            }
            // Exponential-ish cooling schedule over the run.
            if chunk_idx % (total_chunks / 8 + 1) == 0 {
                temperature *= 0.7;
            }
        }

        let positions = (0..self.elements)
            .map(|e| {
                (
                    h.memory().read_i32(xs.offset(4 * e as u64)),
                    h.memory().read_i32(ys.offset(4 * e as u64)),
                )
            })
            .collect();
        Placement {
            positions,
            neighbours: Arc::clone(&self.neighbours),
        }
    }

    /// Relative difference between final routing costs (§IV).
    fn output_error(&self, precise: &Placement, approx: &Placement) -> f64 {
        let p = precise.routing_cost() as f64;
        let a = approx.routing_cost() as f64;
        if p == 0.0 {
            return if a == 0.0 { 0.0 } else { 1.0 };
        }
        (a - p).abs() / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn annealing_reduces_routing_cost() {
        let wl = Canneal::new(WorkloadScale::Test);
        let initial = Placement {
            positions: wl.init_pos.clone(),
            neighbours: wl.neighbours.clone(),
        };
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let fin = wl.run(&mut h);
        assert!(
            fin.routing_cost() < initial.routing_cost(),
            "annealer must improve: {} -> {}",
            initial.routing_cost(),
            fin.routing_cost()
        );
    }

    #[test]
    fn high_mpki_like_the_paper() {
        // canneal has the highest MPKI of the suite (Table I: 12.5): random
        // access to a grid far larger than the L1.
        let wl = Canneal::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::precise());
        assert!(run.precise_stats.mpki() > 2.0, "mpki {}", run.precise_stats.mpki());
    }

    #[test]
    fn lva_cuts_mpki_with_tolerable_cost_error() {
        let wl = Canneal::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(run.normalized_mpki() < 0.85, "norm mpki {}", run.normalized_mpki());
        assert!(run.output_error < 0.25, "error {}", run.output_error);
    }

    #[test]
    fn wire_cost_is_manhattan() {
        assert_eq!(Canneal::wire_cost(0, 0, 3, 4), 7);
        assert_eq!(Canneal::wire_cost(5, 5, 5, 5), 0);
        assert_eq!(Canneal::wire_cost(-2, 0, 2, 0), 4);
    }

    #[test]
    fn four_approximate_pcs() {
        let wl = Canneal::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert_eq!(run.stats.static_approx_pcs(), 4);
    }
}
