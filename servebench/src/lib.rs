//! `servebench` — the serving benchmark of the nanocost workspace.
//!
//! It starts the release `serve` binary, drives it with closed-loop
//! clients over one of three seeded workloads, and reports what a user
//! sees end to end. A traced run instead reports per-layer numbers,
//! timed around calls into each layer's public functions. See
//! `PREDICTIONS.md` for why each workload exists and which layer
//! should move which metric.

pub mod client;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod server;
pub mod spans;
pub mod stats;
