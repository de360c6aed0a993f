//! Submission-queue scheduling: the work-sharing core shared by
//! [`crate::sweep::run_sweep`] and the `lva-serve` job server.
//!
//! PR 1's sweep engine claimed grid points from a single atomic counter
//! inside one `std::thread::scope` — perfect for one grid, useless for a
//! long-running service where jobs arrive over time and a worker pool
//! must outlive any one of them. This module promotes that claim loop
//! into a standalone [`SubmissionQueue`]: any number of *jobs* (each a
//! contiguous range of point indices) can be open at once, and workers —
//! scoped threads in `run_sweep`, persistent `std::thread`s in
//! `lva-serve` — pull [`Claim`]s from it. With several jobs open, claims
//! round-robin across them, so a thousand-point sweep cannot starve a
//! two-point run submitted just after it.
//!
//! The queue intentionally knows nothing about *what* a point is: it
//! hands out `(job, index)` pairs and callers keep the payloads. That is
//! what lets one queue serve both the generic borrowed-slice `run_sweep`
//! (whose payloads cannot be `'static`) and the owned, `'static` job
//! structs of the server.
//!
//! [`catch_point`] is the companion panic boundary: one panicking point
//! must cost exactly that point, never the worker (and with it the whole
//! grid or the whole server).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Identifies one submitted job. Callers assign ids; a long-lived queue's
/// ids must be unique among the jobs open at any one time (the server
/// uses a monotonic counter, `run_sweep` always uses 0 on its private
/// queue).
pub type JobId = u64;

/// One unit of claimed work: point `point` of job `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The job the point belongs to.
    pub job: JobId,
    /// Index of the point within its job's grid (`0..points`).
    pub point: usize,
}

/// A job still holding unclaimed points.
#[derive(Debug)]
struct OpenJob {
    id: JobId,
    next: usize,
    total: usize,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Jobs with unclaimed points, in round-robin order.
    open: VecDeque<OpenJob>,
    /// Unclaimed points across all open jobs (the queue-depth gauge).
    pending: usize,
    /// Closed queues hand out the remaining points, then `None`.
    closed: bool,
}

/// A fair multi-job point queue: jobs are submitted as point counts,
/// workers claim `(job, point)` pairs until the queue is closed *and*
/// drained. Consecutive claims rotate across open jobs.
///
/// All methods take `&self`; the queue is meant to be shared (by
/// reference from scoped threads, or via `Arc` from a persistent pool).
#[derive(Debug, Default)]
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl SubmissionQueue {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a job of `points` points under the caller-assigned `id`.
    /// A zero-point job is legal and simply never yields a claim.
    pub fn submit(&self, id: JobId, points: usize) {
        if points == 0 {
            return;
        }
        let mut state = self.state.lock().expect("queue lock");
        debug_assert!(!state.closed, "submit after close never drains");
        state.open.push_back(OpenJob {
            id,
            next: 0,
            total: points,
        });
        state.pending += points;
        drop(state);
        self.ready.notify_all();
    }

    /// Claims the next point, blocking while the queue is open but empty.
    /// Returns `None` once the queue is closed and fully drained — the
    /// worker-loop exit signal.
    pub fn claim(&self) -> Option<Claim> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(mut job) = state.open.pop_front() {
                let claim = Claim {
                    job: job.id,
                    point: job.next,
                };
                job.next += 1;
                state.pending -= 1;
                if job.next < job.total {
                    // Rotate: the next claim comes from the next open job.
                    state.open.push_back(job);
                }
                return Some(claim);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: already-submitted points are still handed out,
    /// then every blocked and future [`claim`](Self::claim) returns
    /// `None`. Further submissions are a bug (they would never drain) and
    /// are ignored beyond a debug assertion.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Unclaimed points across all open jobs — the live queue-depth
    /// signal the server exports as a gauge.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").pending
    }
}

/// Runs one point evaluation behind a panic boundary, converting a panic
/// into an `Err` carrying the panic message.
///
/// The `AssertUnwindSafe` is sound here by construction: callers discard
/// every value the closure could have touched when it fails — each sweep
/// point builds its own simulator state from scratch, so no partially
/// mutated state survives the unwind. The state points do share, kernel
/// objects and their precise references (`lva_workloads::reuse`), is
/// immutable once built and stored whole through `OnceLock`s, which stay
/// empty when their initializer panics.
///
/// # Errors
///
/// Returns the panic payload's message (`&str` / `String` payloads are
/// preserved, anything else is reported generically).
pub fn catch_point<R>(eval: impl FnOnce() -> R) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(eval)) {
        Ok(value) => Ok(value),
        // `&*` reborrows the boxed payload itself — a bare `&payload`
        // would coerce the `Box` (which is also `Any`) and every
        // downcast would miss.
        Err(payload) => Err(panic_message(&*payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_job_drains_in_order() {
        let q = SubmissionQueue::new();
        q.submit(7, 3);
        q.close();
        let claims: Vec<_> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(
            claims,
            vec![
                Claim { job: 7, point: 0 },
                Claim { job: 7, point: 1 },
                Claim { job: 7, point: 2 },
            ]
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn concurrent_jobs_interleave_round_robin() {
        let q = SubmissionQueue::new();
        q.submit(1, 3);
        q.submit(2, 2);
        q.close();
        let jobs: Vec<JobId> = std::iter::from_fn(|| q.claim()).map(|c| c.job).collect();
        // A long job never starves a short one: claims alternate while
        // both have points, then the longer job finishes alone.
        assert_eq!(jobs, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn depth_tracks_unclaimed_points() {
        let q = SubmissionQueue::new();
        assert_eq!(q.depth(), 0);
        q.submit(1, 4);
        q.submit(2, 0); // zero-point jobs never enqueue
        assert_eq!(q.depth(), 4);
        let _ = q.claim();
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn blocked_workers_wake_on_submit_and_close() {
        let q = SubmissionQueue::new();
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while q.claim().is_some() {
                        claimed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Workers are (probably) parked; submissions must wake them.
            q.submit(1, 5);
            q.submit(2, 3);
            q.close();
        });
        assert_eq!(claimed.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn catch_point_returns_values_and_panic_messages() {
        assert_eq!(catch_point(|| 41 + 1), Ok(42));
        let err = catch_point(|| -> u32 { panic!("point exploded") }).unwrap_err();
        assert!(err.contains("point exploded"), "{err}");
        let err = catch_point(|| -> u32 { panic!("{} of {}", 3, 4) }).unwrap_err();
        assert!(err.contains("3 of 4"), "{err}");
    }
}
