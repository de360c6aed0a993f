//! `lva-serve` — a long-running sweep job server with a
//! content-addressed result cache.
//!
//! The rest of the workspace treats a sweep as a batch: build a grid,
//! run it, write manifests, exit. This crate turns that into a
//! *service*: a persistent worker pool ([`Scheduler`], built on
//! `lva-sim`'s [`lva_sim::SubmissionQueue`]) accepts point submissions
//! from any number of concurrent clients over a line-oriented TCP
//! protocol, interleaves their grids fairly, and remembers every answer.
//!
//! Memory is safe to keep because of a property the determinism suite
//! has pinned since PR 1: a sweep point's statistics are a pure function
//! of its validated configuration. [`point_fingerprint`] turns that
//! configuration into a 64-bit content address, and [`ResultCache`]
//! stores finished manifest texts under it — an in-memory LRU tier over
//! an atomic-rename disk store, so results survive server restarts and a
//! crash can never leave a half-written entry.
//!
//! Below the cache, points share simulation work too. [`evaluate_point`]
//! takes its kernel object from `lva-workloads`' process-wide registry
//! ([`lva_workloads::shared`]), so every point of one
//! `(workload, scale, seed)` reuses that object's inputs and the precise
//! reference runs it memoizes: in a fresh server, a seven-config sweep of
//! the seven kernels simulates 7 references for its 49 points, and a
//! later sweep of the same kernels none. Both levels are bounded by
//! constants, since `seed` and `value_delay` arrive from the wire as free
//! integers: at most [`lva_workloads::SHARED_CAPACITY`] (35) objects and
//! [`lva_workloads::MEMO_CAPACITY`] (8) references per object, oldest
//! evicted first. Measured with a counting allocator at Medium scale,
//! one seed of all seven kernels holding 8 references each keeps
//! 19.4 MiB of heap, so the paper's five seeds fill the registry at
//! 97 MiB; the largest possible footprint, 35 canneal objects at 8
//! references each, is 405 MiB. The `serve/registry/*` metrics report
//! what is resident and how many references were simulated or reused.
//!
//! Module map (data flows top to bottom):
//!
//! ```text
//! client ──line JSON──▶ protocol ──▶ server ──▶ sched ──▶ point ──▶ lva-sim
//!                                               │  ▲
//!                                               ▼  │
//!                                     fingerprint ─▶ cache (mem LRU + disk)
//! ```
//!
//! * [`fingerprint`] — canonical rendering and FNV-1a content address
//!   of a point; versioned so schema bumps invalidate cleanly.
//! * [`point`] — [`PointSpec`] (workload, scale, seed, config), its
//!   restricted wire encoding, and the batch-identical manifest builder.
//! * [`cache`] — the two-tier [`ResultCache`] with crash-safe writes.
//! * [`sched`] — the persistent [`Scheduler`]: intra-job dedup, cache
//!   lookups, in-flight coalescing, fair cross-job interleaving, and a
//!   wall-interval timeline (an `lva-obs` [`lva_obs::EpochSampler`] fed
//!   by a sampler thread) that the `watch` request streams live.
//! * [`protocol`] — the line-JSON wire format, both directions.
//! * [`server`] / [`client`] — the TCP accept loop, which serves at most
//!   [`MAX_CONNECTIONS`] connections at once, and its typed counterpart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod point;
pub mod protocol;
pub mod sched;
pub mod server;

pub use cache::{default_cache_dir, ResultCache};
pub use client::{Client, SubmitOutcome};
pub use fingerprint::{point_fingerprint, CACHE_SCHEMA_VERSION};
pub use point::{evaluate_point, point_record, PointSpec};
pub use sched::{JobOutcome, PointResult, Scheduler};
pub use server::{Server, ServerHandle, MAX_CONNECTIONS, MAX_REQUEST_BYTES};
