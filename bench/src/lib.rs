//! The repository's benchmark: four workloads, two clocks (modeled
//! virtual time and host time), and a per-hop layer table. See
//! `bench/README.md`.

pub mod adapter;
pub mod compare;
pub mod des;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod trace;
pub mod workloads;
