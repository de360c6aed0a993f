//! The reuse policy: which workload objects and precise reference runs a
//! process keeps, and for how long.
//!
//! Every figure is normalized to a precise run of the same kernel, so
//! [`Workload::execute`] pairs each run with a precise reference. Two
//! levels keep those references from being simulated again:
//!
//! * each kernel object's [`PreciseMemo`] holds up to [`MEMO_CAPACITY`]
//!   references, keyed on the derived precise [`SimConfig`];
//! * the process-wide registry behind [`shared`] holds up to
//!   [`SHARED_CAPACITY`] kernel objects, keyed on `(name, scale, seed)`,
//!   so callers that build a workload per request (the sweep server)
//!   reuse one object, its inputs and its memo.
//!
//! Both bounds are constants, not options: the keys reach here from the
//! server's wire, where `seed` and `value_delay` are free integers, so
//! neither level may grow with what clients send. When full, each level
//! evicts its oldest entry. At Medium scale one seed of the seven kernels
//! with full memos keeps 19.4 MiB of heap, and the largest footprint the
//! bounds allow, 35 canneal objects with 8 references each, is 405 MiB
//! (measured with a counting allocator).
//!
//! A lookup holds a level's lock only to find or insert an entry's cell,
//! never across building a kernel or running a simulation; callers that
//! want the same entry wait on its cell, so it is computed once.

use crate::{by_name, Workload, WorkloadScale, NAMES};
use lva_sim::{Phase1Stats, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Most precise references one kernel object keeps: above the four value
/// delays of Fig. 7, the widest axis that derives distinct references
/// from one object.
pub const MEMO_CAPACITY: usize = 8;

/// Most kernel objects the [`shared`] registry keeps: the seven kernels
/// × the paper's five seeds.
pub const SHARED_CAPACITY: usize = 35;

/// Up to `CAP` values computed once each, keyed on `K`; inserting into a
/// full list evicts the oldest entry. A caller still holding an evicted
/// cell keeps its value alive until it lets go.
#[derive(Debug)]
struct BoundedCells<K, V, const CAP: usize> {
    entries: Mutex<Vec<(K, Arc<OnceLock<V>>)>>,
}

impl<K: PartialEq + Clone, V, const CAP: usize> BoundedCells<K, V, CAP> {
    const fn new() -> Self {
        BoundedCells {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(K, Arc<OnceLock<V>>)>> {
        // Every update leaves a whole list (a removal, then a push), so a
        // lock poisoned by a panicking caller still guards a valid one.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cell of `key`, inserted empty if absent, and whether it was
    /// already there.
    fn cell(&self, key: &K) -> (Arc<OnceLock<V>>, bool) {
        let mut entries = self.entries();
        if let Some((_, cell)) = entries.iter().find(|(k, _)| k == key) {
            return (Arc::clone(cell), true);
        }
        if entries.len() == CAP {
            entries.remove(0);
        }
        let cell = Arc::default();
        entries.push((key.clone(), Arc::clone(&cell)));
        (cell, false)
    }

    fn len(&self) -> usize {
        self.entries().len()
    }
}

/// A precise reference run: the kernel's output and its statistics.
#[derive(Debug)]
pub(crate) struct Reference<T> {
    pub(crate) output: T,
    pub(crate) stats: Phase1Stats,
}

/// The precise reference runs of one kernel object, keyed on the precise
/// [`SimConfig`] that [`Workload::execute`] derives; at most
/// [`MEMO_CAPACITY`] of them, oldest evicted first. A clone starts empty.
#[derive(Debug)]
pub struct PreciseMemo<T> {
    references: BoundedCells<SimConfig, Reference<T>, MEMO_CAPACITY>,
}

impl<T> PreciseMemo<T> {
    /// The cell of `config`'s reference, inserted empty if absent. Counts
    /// the lookup in [`reuse_stats`].
    pub(crate) fn cell(&self, config: &SimConfig) -> Arc<OnceLock<Reference<T>>> {
        let (cell, resident) = self.references.cell(config);
        let counter = if resident {
            &REFERENCES_REUSED
        } else {
            &REFERENCES_SIMULATED
        };
        counter.fetch_add(1, Ordering::Relaxed);
        cell
    }

    /// How many references the memo holds.
    pub(crate) fn len(&self) -> usize {
        self.references.len()
    }
}

impl<T> Default for PreciseMemo<T> {
    fn default() -> Self {
        PreciseMemo {
            references: BoundedCells::new(),
        }
    }
}

impl<T> Clone for PreciseMemo<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

type SharedKey = (&'static str, WorkloadScale, u64);

static SHARED: BoundedCells<SharedKey, Arc<dyn Workload>, SHARED_CAPACITY> = BoundedCells::new();
static REFERENCES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static REFERENCES_REUSED: AtomicU64 = AtomicU64::new(0);

/// The process-wide workload called `name` (see [`NAMES`]), or `None`
/// for an unknown name, which never enters the registry. Every caller
/// asking for the same `(name, scale, seed)` gets the same object while
/// it stays among the [`SHARED_CAPACITY`] most recently inserted, so
/// they share its inputs and its [`PreciseMemo`]. The object equals a
/// fresh [`by_name`] one in every result it returns.
#[must_use]
pub fn shared(name: &str, scale: WorkloadScale, seed: u64) -> Option<Arc<dyn Workload>> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let (cell, _) = SHARED.cell(&(name, scale, seed));
    let workload = cell.get_or_init(|| Arc::from(by_name(name, scale, seed).expect("listed")));
    Some(Arc::clone(workload))
}

/// What the reuse levels hold and have saved in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Kernel objects the [`shared`] registry holds, counting any still
    /// being built (at most [`SHARED_CAPACITY`]).
    pub objects: usize,
    /// Precise references those objects' memos hold (at most
    /// [`MEMO_CAPACITY`] each).
    pub references: usize,
    /// Precise references [`Workload::execute`] looked up in a memo and
    /// did not find, so simulated, on any object.
    pub simulated: u64,
    /// Precise references [`Workload::execute`] found in a memo, computed
    /// earlier or being computed by a concurrent caller.
    pub reused: u64,
}

/// A snapshot of the reuse levels of this process.
#[must_use]
pub fn reuse_stats() -> ReuseStats {
    let cells: Vec<_> = SHARED
        .entries()
        .iter()
        .map(|(_, cell)| Arc::clone(cell))
        .collect();
    ReuseStats {
        objects: cells.len(),
        references: cells
            .iter()
            .filter_map(|cell| cell.get())
            .map(|w| w.resident_references())
            .sum(),
        simulated: REFERENCES_SIMULATED.load(Ordering::Relaxed),
        reused: REFERENCES_REUSED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cells_evict_the_oldest_entry() {
        let cells: BoundedCells<u64, u64, 3> = BoundedCells::new();
        for k in 0..5 {
            cells.cell(&k).0.get_or_init(|| k * 10);
        }
        assert_eq!(cells.len(), 3);
        let keys: Vec<u64> = cells.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [2, 3, 4]);
        // A resident key returns its cell, already computed.
        assert_eq!(cells.cell(&3).0.get(), Some(&30));
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn shared_objects_are_one_per_key_and_unknown_names_stay_out() {
        let a = shared("swaptions", WorkloadScale::Test, 1 << 40).expect("known");
        let b = shared("swaptions", WorkloadScale::Test, 1 << 40).expect("known");
        assert!(Arc::ptr_eq(&a, &b));
        // No other test of this crate touches the registry.
        let before = SHARED.len();
        assert!(shared("nonesuch", WorkloadScale::Test, 0).is_none());
        assert_eq!(SHARED.len(), before);
    }
}
