//! # gila-serve — a crash-safe verification daemon
//!
//! Long-lived verification as a service: `gila serve` keeps the
//! bundled designs, a worker pool, and a **content-addressed proof
//! cache** resident, so repeated verification of unchanged designs
//! costs zero solver work and editing one instruction re-proves only
//! the slices whose canonical hash changed.
//!
//! Std-only by design: threads, blocking `std::net` TCP and
//! Unix-domain sockets, and newline-delimited `gila-json` frames. No
//! async runtime — the protocol is line-oriented and the unit of
//! concurrency is a request, so an executor would add a dependency
//! and an idiom without removing a single thread.
//!
//! The crate is organized as the daemon's robustness envelope:
//!
//! - [`protocol`] — byte- and depth-capped framing.
//! - the proof cache, [`ProofCache`] — `gila-verify`'s verdict journal
//!   (append-only JSONL, torn-tail-tolerant recovery, LRU + byte budget
//!   eviction, crash-safe compaction), re-exported here; the daemon and
//!   `gila verify --checkpoint` share the one implementation.
//! - [`service`] — op dispatch; a `verify` request hands the cache to
//!   the engine as its journal, and inline sources go through a
//!   content memo of parsed texts and lint reports.
//! - [`server`] — admission control (bounded queue, load shedding
//!   with retry hints), per-request deadlines and cancellation,
//!   deadline watchdog with worker recycling, graceful drain.
//! - [`client`] — jittered-exponential-backoff retries that never
//!   re-ask an answered question.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use gila_verify::{CacheConfig, CacheStats, ProofCache, RecoveryStats};
pub use client::{Client, ClientConfig, ClientError, Endpoint};
pub use protocol::{Request, MAX_FRAME_BYTES, MAX_FRAME_DEPTH, PROTOCOL_VERSION};
pub use server::{DrainOutcome, Listen, ServeConfig, Server, ServerHandle};
pub use service::{MemoStats, Service};
