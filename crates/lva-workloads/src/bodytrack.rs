//! bodytrack — computer-vision body tracking with an annealed particle
//! filter.
//!
//! §IV: the likelihood function samples the camera image maps at particle
//! positions inside two long error-calculation loops executed every time
//! step; we annotate those integer pixel loads. The tracker itself keeps a
//! particle population, reweights it by the likelihood of each particle
//! against the (synthetic) edge-map frame, resamples, and emits the
//! weighted-mean body position per frame. Output error is a pair-wise
//! comparison of the output position vectors from the precise and
//! approximate runs.

use crate::util::{interleaved_chunks, seeded_rng};
use crate::{Kernel, PreciseMemo, WorkloadScale};
use lva_core::{Addr, Pc, ValueType};
use lva_sim::{LoadReq, SimHarness};

const PC_BASE: u64 = 0x3000;
/// The likelihood loop samples a ring of offsets around the particle; each
/// offset is its own static load site (the loop is unrolled in the real
/// binary), giving bodytrack a few dozen approximate PCs (Fig. 12).
const SAMPLE_OFFSETS: [(i32, i32); 12] = [
    (0, 0),
    (2, 0),
    (-2, 0),
    (0, 2),
    (0, -2),
    (3, 3),
    (-3, 3),
    (3, -3),
    (-3, -3),
    (5, 0),
    (-5, 0),
    (0, 5),
];
const PC_STORE_W: Pc = Pc(PC_BASE + 0x100);
const TICKS_PER_SAMPLE: u32 = 12;
const TICKS_PER_PARTICLE: u32 = 60;

/// The bodytrack kernel.
#[derive(Debug, Clone)]
pub struct Bodytrack {
    width: usize,
    height: usize,
    frames: usize,
    particles: usize,
    /// Ground-truth body path: (cx, cy) per frame.
    path: Vec<(f32, f32)>,
    /// Input-perturbation seed (0 for the canonical inputs).
    seed: u64,
    /// Precise reference runs, kept by [`crate::Workload::execute`].
    memo: PreciseMemo<Vec<(f64, f64)>>,
}

impl Bodytrack {
    /// Builds the synthetic camera sequence and particle-filter config.
    #[must_use]
    pub fn new(scale: WorkloadScale) -> Self {
        Self::with_seed(scale, 0)
    }

    /// Like [`new`](Self::new), but perturbing the input generation with
    /// `seed` — the paper averages every measurement over 5 simulation
    /// runs, which [`crate::registry_seeded`] reproduces.
    #[must_use]
    pub fn with_seed(scale: WorkloadScale, seed: u64) -> Self {
        let (width, height, frames, particles) = match scale {
            WorkloadScale::Test => (128, 128, 3, 256),
            WorkloadScale::Small => (512, 512, 6, 1_024),
            WorkloadScale::Medium => (640, 512, 12, 2_048),
        };
        let mut rng = seeded_rng(0xB0D ^ seed, 0);
        let mut cx = width as f32 * 0.5;
        let mut cy = height as f32 * 0.5;
        let path = (0..frames)
            .map(|_| {
                cx = (cx + rng.gen_range(-6.0f32..6.0)).clamp(20.0, width as f32 - 20.0);
                cy = (cy + rng.gen_range(-6.0f32..6.0)).clamp(20.0, height as f32 - 20.0);
                (cx, cy)
            })
            .collect();
        Bodytrack {
            seed,
            width,
            height,
            frames,
            particles,
            path,
            memo: PreciseMemo::default(),
        }
    }

    /// Renders the edge-map frame for time step `f`: bright blob around the
    /// true body position plus speckle noise.
    fn render_frame(&self, f: usize) -> Vec<u8> {
        let (cx, cy) = self.path[f];
        let mut rng = seeded_rng(0xF0F0 ^ self.seed, f as u64);
        let mut img = vec![0u8; self.width * self.height];
        for y in 0..self.height {
            for x in 0..self.width {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                let d2 = dx * dx + dy * dy;
                let body = 220.0 * (-d2 / 400.0).exp();
                let noise = rng.gen_range(0.0f32..25.0);
                img[y * self.width + x] = (body + noise).min(255.0) as u8;
            }
        }
        img
    }
}

impl Kernel for Bodytrack {
    type Output = Vec<(f64, f64)>;

    fn precise_memo(&self) -> &PreciseMemo<Self::Output> {
        &self.memo
    }

    fn name(&self) -> &'static str {
        "bodytrack"
    }

    fn run(&self, h: &mut SimHarness) -> Vec<(f64, f64)> {
        let npix = (self.width * self.height) as u64;
        let image = h.alloc(npix, 64);
        let weights = h.alloc(8 * self.particles as u64, 64);

        // Particle population, host-side (particle state is precise; only
        // the image-map loads are annotated, per §IV).
        let mut rng = seeded_rng(0xB0D1 ^ self.seed, 1);
        let mut px: Vec<f32> = (0..self.particles)
            .map(|_| rng.gen_range(0.0..self.width as f32))
            .collect();
        let mut py: Vec<f32> = (0..self.particles)
            .map(|_| rng.gen_range(0.0..self.height as f32))
            .collect();

        let pixel_at = |image: Addr, x: i32, y: i32, w: usize, hgt: usize| {
            let xc = x.clamp(0, w as i32 - 1) as u64;
            let yc = y.clamp(0, hgt as i32 - 1) as u64;
            image.offset(yc * w as u64 + xc)
        };

        let mut estimates = Vec::with_capacity(self.frames);
        for f in 0..self.frames {
            // Upload the new frame (camera DMA: untracked).
            let frame = self.render_frame(f);
            h.memory_mut().write_u8_slice(image, &frame);

            // Likelihood: sample the edge map around each particle.
            let mut weight_sum = 0.0f64;
            let mut wbuf = vec![0.0f64; self.particles];
            for (thread, range) in interleaved_chunks(self.particles, 64) {
                h.set_thread(thread);
                for i in range {
                    // One batch over the sample ring; the per-sample
                    // arithmetic ticks are accounted after it in one call.
                    let reqs: [LoadReq; SAMPLE_OFFSETS.len()] = std::array::from_fn(|s| {
                        let (dx, dy) = SAMPLE_OFFSETS[s];
                        let a = pixel_at(
                            image,
                            px[i] as i32 + dx,
                            py[i] as i32 + dy,
                            self.width,
                            self.height,
                        );
                        (Pc(PC_BASE + 4 * s as u64), a, ValueType::U8, true)
                    });
                    let vals = h.load_batch_n(&reqs);
                    let score: u32 = vals.iter().map(|v| u32::from(v.as_u8())).sum();
                    h.tick(TICKS_PER_SAMPLE * SAMPLE_OFFSETS.len() as u32);
                    let w = f64::from(score) / (255.0 * SAMPLE_OFFSETS.len() as f64);
                    let w = w * w; // sharpen the likelihood
                    wbuf[i] = w;
                    h.tick(TICKS_PER_PARTICLE);
                    h.store_f64(PC_STORE_W, weights.offset(8 * i as u64), w);
                    weight_sum += w;
                }
            }

            // Estimate: weighted mean particle position.
            let mut ex = 0.0f64;
            let mut ey = 0.0f64;
            if weight_sum > 0.0 {
                for i in 0..self.particles {
                    ex += wbuf[i] * f64::from(px[i]);
                    ey += wbuf[i] * f64::from(py[i]);
                }
                ex /= weight_sum;
                ey /= weight_sum;
            }
            estimates.push((ex, ey));

            // Systematic resampling + diffusion (host-side, seeded).
            let mut new_px = Vec::with_capacity(self.particles);
            let mut new_py = Vec::with_capacity(self.particles);
            let step = weight_sum / self.particles as f64;
            let mut target = rng.gen_range(0.0f64..step.max(1e-12));
            let mut acc = 0.0;
            let mut j = 0usize;
            for _ in 0..self.particles {
                while acc + wbuf[j.min(self.particles - 1)] < target && j < self.particles - 1 {
                    acc += wbuf[j];
                    j += 1;
                }
                new_px.push((px[j] + rng.gen_range(-4.0f32..4.0)).clamp(0.0, self.width as f32 - 1.0));
                new_py.push(
                    (py[j] + rng.gen_range(-4.0f32..4.0)).clamp(0.0, self.height as f32 - 1.0),
                );
                target += step;
            }
            px = new_px;
            py = new_py;
        }
        estimates
    }

    /// Pair-wise comparison of the output position vectors (§IV): mean
    /// relative distance between the precise and approximate estimates.
    fn output_error(&self, precise: &Vec<(f64, f64)>, approx: &Vec<(f64, f64)>) -> f64 {
        assert_eq!(precise.len(), approx.len(), "frame count changed");
        if precise.is_empty() {
            return 0.0;
        }
        let sum: f64 = precise
            .iter()
            .zip(approx)
            .map(|(&(pxx, pyy), &(ax, ay))| {
                let dist = ((ax - pxx).powi(2) + (ay - pyy).powi(2)).sqrt();
                let mag = (pxx * pxx + pyy * pyy).sqrt();
                if mag < 1e-9 {
                    0.0
                } else {
                    dist / mag
                }
            })
            .sum();
        sum / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lva_sim::SimConfig;

    #[test]
    fn tracker_follows_the_body() {
        let wl = Bodytrack::new(WorkloadScale::Test);
        let mut h = lva_sim::SimHarness::new(SimConfig::precise());
        let est = wl.run(&mut h);
        // By the last frame the filter should have homed in.
        let (ex, ey) = est[est.len() - 1];
        let (tx, ty) = wl.path[wl.frames - 1];
        let err = ((ex - f64::from(tx)).powi(2) + (ey - f64::from(ty)).powi(2)).sqrt();
        assert!(err < 25.0, "tracking error {err}");
    }

    #[test]
    fn pixel_loads_dominate_and_are_annotated() {
        let wl = Bodytrack::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::precise());
        assert!(run.stats.total.approx_loads * 10 > run.stats.total.loads * 9);
        assert_eq!(run.stats.static_approx_pcs(), SAMPLE_OFFSETS.len());
    }

    #[test]
    fn lva_keeps_tracking_error_low() {
        // Fig. 1's point: the output with LVA is nearly indiscernible.
        let wl = Bodytrack::new(WorkloadScale::Test);
        let run = wl.execute(&SimConfig::baseline_lva());
        assert!(run.normalized_mpki() < 1.0);
        assert!(run.output_error < 0.15, "error {}", run.output_error);
    }

    #[test]
    fn error_metric_is_zero_for_identical_outputs() {
        let wl = Bodytrack::new(WorkloadScale::Test);
        let out = vec![(10.0, 20.0), (11.0, 21.0)];
        assert_eq!(wl.output_error(&out, &out.clone()), 0.0);
        let shifted = vec![(10.0, 20.0), (11.0, 23.0)];
        assert!(wl.output_error(&out, &shifted) > 0.0);
    }
}
