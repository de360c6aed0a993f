//! The correctness gate: per-seed digests of every simulated result,
//! recorded once into `expected.txt` and compared on every run.
//!
//! A change that only speeds up the simulator must leave every simulated
//! statistic identical, so each grid point, replay and served manifest
//! is checked against the digest recorded for its input seed. The table
//! covers [`INPUT_SEEDS`] input seeds; `--seed n` selects input seed
//! `n % INPUT_SEEDS`.

use lva_serve::fingerprint::fnv1a64;
use lva_sim::{FullSystemStats, Phase1Stats};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Input seeds with recorded digests.
pub const INPUT_SEEDS: u64 = 16;

const TABLE: &str = include_str!("../expected.txt");

/// One recorded result: a digest of its statistics and the simulated
/// cycles behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    pub digest: u64,
    pub cycles: u64,
}

/// Recorded entries of one workload and input seed, by result index.
pub fn entries(workload: &str, input_seed: u64) -> HashMap<usize, Entry> {
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 5 || f[0] != workload || f[1].parse::<u64>().ok()? != input_seed {
                return None;
            }
            let entry = Entry {
                digest: u64::from_str_radix(f[3], 16).ok()?,
                cycles: f[4].parse().ok()?,
            };
            Some((f[2].parse().ok()?, entry))
        })
        .collect()
}

/// Counts the results that do not match the table: a missing entry, a
/// different digest or different cycles is a failure.
pub fn mismatches(expected: &HashMap<usize, Entry>, got: &[(usize, Entry)]) -> u64 {
    got.iter()
        .filter(|(i, e)| expected.get(i) != Some(e))
        .count() as u64
}

/// Digest of a phase-1 point: both runs' fingerprints and the output
/// error, bit for bit.
pub fn phase1_digest(stats: &Phase1Stats, precise: &Phase1Stats, output_error: f64) -> u64 {
    let text = format!(
        "{}|{}|{:016x}",
        stats.fingerprint(),
        precise.fingerprint(),
        output_error.to_bits()
    );
    fnv1a64(text.as_bytes())
}

/// Modelled load-visible cycles of a phase-1 point (precise reference
/// plus configured run): phase 1's measure of simulated time.
pub fn phase1_cycles(stats: &Phase1Stats, precise: &Phase1Stats) -> u64 {
    stats.total.load_latency_cycles + precise.total.load_latency_cycles
}

/// Digest of every count of a full-system replay.
pub fn fullsystem_digest(stats: &FullSystemStats) -> u64 {
    fnv1a64(format!("{stats:?}").as_bytes())
}

/// Digest of a served manifest, byte for byte.
pub fn manifest_digest(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

/// Appends one table line.
pub fn line(out: &mut String, workload: &str, input_seed: u64, index: usize, e: Entry) {
    let _ = writeln!(
        out,
        "{workload} {input_seed} {index} {:016x} {}",
        e.digest, e.cycles
    );
}
