//! The repository benchmark for `decolor`: seeded workloads that call a
//! paper algorithm's public entry point in a closed loop at pool widths
//! `nproc` and 1, gate every output, and, when traced, break one call
//! down by layer. See `README.md` in this directory.

pub mod metrics;
pub mod probe;
pub mod runner;
pub mod trace;
pub mod workloads;
