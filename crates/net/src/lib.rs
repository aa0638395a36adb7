//! Distributed shards for CVOPT.
//!
//! This crate lets the sampling engine scatter passes over TCP instead of
//! threads. It has four layers:
//!
//! * [`frame`] + [`wire`] — a length-prefixed, versioned binary protocol.
//!   Every message is `[u32 LE length][u8 version][payload]`; payloads are
//!   tagged unions encoded with fixed-width little-endian primitives, so the
//!   same bytes decode identically on every platform. Tables travel a
//!   column at a time, and a payload is decoded as it arrives.
//! * [`pipeline`] — the one server loop in the workspace: accept → bounded
//!   queue → worker pool → idle parking → shutdown, behind a two-method
//!   [`pipeline::Service`]. `cvopt-serve`'s HTTP server runs on it too.
//! * [`server`] — [`server::Shardd`], the frame service over the pipeline:
//!   it owns one or more registered [`cvopt_table::Table`] shards and
//!   answers plan-level pass requests — a walk that folds every partition
//!   the shard holds, a pick that returns a draw's rows — plus the gather of
//!   a fragment of a partition that straddles a shard boundary. Its state
//!   changes only through registration, an idempotent replace; every other
//!   request is a read. The `cvopt-shardd` binary wraps it.
//! * [`client`] + [`remote`] — [`client::Peer`], a persistent connection
//!   with timeouts, one transport retry, and a circuit breaker; and
//!   [`remote::RemoteShard`], which implements the same
//!   [`cvopt_table::ShardReader`] pass surface local shards use, so the
//!   engine coordinates mixed local and remote shards with one code path.
//!
//! # Determinism contract
//!
//! A query over remote shards returns bytes identical to the same query over
//! a [`cvopt_table::ShardSet`] of in-process shards with the same layout:
//! a shard folds the global partitions it holds with the kernel the
//! coordinator runs in process, partials merge in partition order, and a
//! draw's ordinals depend only on (seed, stratum, n_c, s_c). The server
//! answers every pass through [`cvopt_table::LocalShard`] — the reference
//! implementation — and the wire format round-trips values exactly
//! (`f64::to_bits`, string dictionaries in first-occurrence order), so
//! nothing drifts in transit. A cold approximate statement costs one walk
//! and one pick per shard; an exact one, one walk.

pub mod circuit;
pub mod client;
pub mod frame;
pub mod pipeline;
pub mod remote;
pub mod server;
pub mod wire;

use std::sync::atomic::{AtomicU64, Ordering};

static NET_REQUESTS: AtomicU64 = AtomicU64::new(0);
static NET_RETRIES: AtomicU64 = AtomicU64::new(0);
static NET_CIRCUIT_OPENS: AtomicU64 = AtomicU64::new(0);
static NET_BYTES_SENT: AtomicU64 = AtomicU64::new(0);
static NET_BYTES_RECEIVED: AtomicU64 = AtomicU64::new(0);

/// Total client requests attempted (including retried and rejected ones).
pub fn net_requests() -> u64 {
    NET_REQUESTS.load(Ordering::Relaxed)
}

/// Total transport-level retries after an I/O failure.
pub fn net_retries() -> u64 {
    NET_RETRIES.load(Ordering::Relaxed)
}

/// Total circuit-breaker transitions into the open state.
pub fn net_circuit_opens() -> u64 {
    NET_CIRCUIT_OPENS.load(Ordering::Relaxed)
}

/// Total frame bytes written by clients.
pub fn net_bytes_sent() -> u64 {
    NET_BYTES_SENT.load(Ordering::Relaxed)
}

/// Total frame bytes read back by clients.
pub fn net_bytes_received() -> u64 {
    NET_BYTES_RECEIVED.load(Ordering::Relaxed)
}

pub(crate) fn record_request() {
    NET_REQUESTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_retry() {
    NET_RETRIES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_circuit_open() {
    NET_CIRCUIT_OPENS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_bytes_sent(n: u64) {
    NET_BYTES_SENT.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_bytes_received(n: u64) {
    NET_BYTES_RECEIVED.fetch_add(n, Ordering::Relaxed);
}

pub use client::{NetConfig, NetError, Peer};
pub use remote::RemoteShard;
pub use server::Shardd;
pub use wire::{Request, Response};
