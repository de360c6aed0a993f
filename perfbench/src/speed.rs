//! Host speed at the moment of a measurement.
//!
//! On a shared host the CPU time of the same simulation swings by half
//! between half-minute windows: a tenant on the sibling hyperthread or in
//! the shared caches slows every instruction, and CPU time cannot tell
//! that apart from slower code. So the benchmark runs a fixed reference
//! loop on the same thread just before and just after each measured
//! section, and divides the section's CPU time by how much slower than
//! nominal that loop ran.
//!
//! The loop is the benchmark's own code, never the program's, so a change
//! to the program moves the section and leaves the loop alone. It is built
//! like the simulator's hot path, so it feels contention the way the
//! simulator does: pseudo-random streams, tag compares in a table, and
//! branches that depend on both. On a shared 2-core KVM guest (a Xeon at
//! 2.1 GHz), over eight minutes in which the 40-second medians of the
//! seven small-scale simulations' CPU times moved by 43 %, their times
//! divided by this loop's moved by 13 %; divided by a loop of pure
//! arithmetic or of pointer chasing, by 34 % and 38 %.

use crate::host;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

/// Table entries: 256 KiB, so the loop feels contention for the L2 as the
/// simulator does; a table that fits the L1 tracks it less well. The table
/// is cleared before each timed loop, which also brings it back into the
/// caches whatever the program left there.
const TABLE: usize = 1 << 15;
const STEPS: u64 = 200_000;
/// CPU time of the reference loop on an idle host of the kind above. Only
/// the ratio of two runs on one host matters; this constant makes the
/// scaled times read close to the CPU times of an idle host.
const NOMINAL: Duration = Duration::from_micros(1150);

thread_local! {
    static SCRATCH: RefCell<Vec<u64>> = RefCell::new(vec![0; TABLE]);
}

fn reference_loop(table: &mut [u64]) -> u64 {
    let mut x = [0x9e37_79b9u64, 0x85eb_ca6b, 0xc2b2_ae35, 0x27d4_eb2f];
    let mut hits = 0u64;
    let mask = TABLE as u64 - 1;
    for i in 0..STEPS {
        for s in &mut x {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
        }
        let a = ((x[0] ^ i) & mask) as usize;
        let b = (x[1] & mask) as usize;
        let tag = x[2] >> 40;
        if table[a] == tag {
            hits += 1;
        } else if x[3] & 3 == 0 {
            table[a] = tag;
        } else {
            table[b] = table[b].wrapping_add(i);
        }
    }
    hits
}

/// One run of the reference loop.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// How much slower than nominal the loop ran: 1.0 on an idle host,
    /// more under contention.
    pub slowdown: f64,
    /// CPU time of the loop itself.
    pub cpu: Duration,
}

/// Runs the reference loop on the calling thread.
fn probe() -> Probe {
    let cpu = SCRATCH.with(|table| {
        let mut table = table.borrow_mut();
        table.fill(0);
        let t = host::thread_cpu();
        black_box(reference_loop(black_box(&mut table)));
        host::thread_cpu() - t
    });
    Probe {
        slowdown: (cpu.as_secs_f64() / NOMINAL.as_secs_f64()).max(1e-3),
        cpu,
    }
}

/// What [`run`] hands back.
pub struct Timed<R> {
    pub value: R,
    /// The section's time on the given clock, divided by the mean
    /// slowdown of the probes around it.
    pub scaled: Duration,
    /// The probes run just before and just after the section.
    pub probes: [Probe; 2],
}

/// Runs `f` between two probes on the calling thread, timing it with
/// `clock` (a CPU clock of [`host`]). A probe on each side samples the
/// host's speed at both ends of a long section, which tracks it better
/// than one probe.
pub fn run<R>(clock: fn() -> Duration, f: impl FnOnce() -> R) -> Timed<R> {
    let before = probe();
    let t = clock();
    let value = f();
    let took = clock().saturating_sub(t);
    let after = probe();
    Timed {
        value,
        scaled: took.div_f64((before.slowdown + after.slowdown) / 2.0),
        probes: [before, after],
    }
}
