//! End-to-end and per-layer benchmark of the parallel k-core engine.
//!
//! Four seeded workloads (see [`workload::Workload`]) each repeat one
//! operation in a closed loop — a full decomposition, or a 16-edge
//! `DynamicGraph` batch — and check every output against sequential
//! Batagelj–Zaveršnik. An untraced run gives the end-to-end metrics; a
//! separate run gives the per-layer counts, COST against BZ and a traced
//! span breakdown. `README.md` beside this crate lists every metric.

pub mod host;
pub mod ops;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
