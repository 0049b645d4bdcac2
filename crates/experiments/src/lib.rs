//! # experiments — regenerating every table and figure of the paper
//!
//! One module per experiment in the DESIGN.md index:
//!
//! | module | experiment |
//! |---|---|
//! | [`fig6`] | **E1**: Figure 6 — error vs shots for six entanglement levels |
//! | [`overhead`] | **E2**: Theorem 1/Corollary 1 — γ theory vs construction vs measurement |
//! | [`tables`] | **E3/E4/E6/E7**: closed-form verification tables |
//! | [`teleport_channel`] | **E5**: Eq. 22/59 channel tomography |
//! | [`allocation`] | **E8**: shot-allocation ablation |
//! | [`multicut`] | **E9**: multi-wire scaling extension |
//! | [`werner`] | **E10**: mixed (Werner) resource extension |
//! | [`joint_cut`] | **E11**: joint multi-wire cutting (κ = 2^{n+1}−1) |
//! | [`noise`] | **E12**: wire cutting under gate-level depolarising noise |
//! | [`joint_scaling`] | **E13**: joint-vs-independent κ crossover map + NME joint exploration |
//! | [`werner_sweep`] | **E15**: full Werner p-sweep with confidence bands vs the Theorem 1 bound |
//! | [`distill_cut`] | **E16**: distill-then-cut (p, m) map — where recurrence distillation closes the κ-vs-γ gap |
//! | [`plan_cut`] | **E17**: arbitrary-circuit cut-planner sweep — multi-fragment plans vs uncut statevector |
//! | [`service_load`] | **E18**: cutting-as-a-service load — plan-cache reuse + sequential vs static allocation variance |
//!
//! Infrastructure: [`grid`] (the configuration-grid sharding engine:
//! work-stealing over whole configurations with per-shard counter-based
//! RNG streams and deterministic grid-order output), [`par`] (item-level
//! work-stealing map), [`stats`] (Welford accumulators, Wilson
//! intervals), [`csvout`] (CSV/pretty tables into `results/`).
//!
//! [`registry`] lists every experiment once, with its quick and full
//! config. Two binaries iterate over it: `run_all [--quick] [--threads N]`
//! runs every entry, and `experiment <id> [--quick] [--threads N]` runs
//! one. Each experiment also has a criterion bench in the `bench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod csvout;
pub mod distill_cut;
pub mod fig6;
pub mod grid;
pub mod joint_cut;
pub mod joint_scaling;
pub mod multicut;
pub mod noise;
pub mod overhead;
pub mod par;
pub mod plan_cut;
pub mod registry;
pub mod service_load;
pub mod stats;
pub mod tables;
pub mod teleport_channel;
pub mod werner;
pub mod werner_sweep;

pub use csvout::{results_dir, Table};
pub use grid::{keyed_stream, GridKey, KeyHasher, ShardCtx, ShardResult, ShardedGrid};
pub use par::{default_threads, item_seed, parallel_map_indexed};
pub use stats::RunningStats;
