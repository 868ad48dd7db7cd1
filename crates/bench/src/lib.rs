#![warn(missing_docs)]
//! # doct-bench — the experiment harness
//!
//! The paper (ICDCS 1993) is a design paper: its only table is the §5.3
//! addressing/blocking matrix and it reports no measurements. The
//! experiments here therefore come in two kinds (see DESIGN.md §4):
//!
//! * **E1** reproduces the paper's table as a *conformance* experiment —
//!   the same six calls, with measured recipient sets and blocking
//!   behaviour;
//! * **E2–E11** are *designed* experiments, each quantifying a specific
//!   qualitative claim the paper makes, with the claim quoted in the
//!   module docs.
//!
//! Each experiment is a function returning printable rows; the
//! `experiments` binary runs them (`cargo run -p doct-bench --release
//! --bin experiments -- all`) and EXPERIMENTS.md records the output.
//! Criterion microbenches for the timing-sensitive pieces live in
//! `benches/`.

pub mod e10_interest_lists;
pub mod e11_partition_heal;
pub mod e12_fanout_batch;
pub mod e13_overload;
pub mod e15_zero_copy;
pub mod e1_raise_table;
pub mod e2_thread_location;
pub mod e3_master_thread;
pub mod e4_event_vs_invocation;
pub mod e5_chain_unwind;
pub mod e6_distributed_ctrl_c;
pub mod e7_external_pager;
pub mod e8_rpc_vs_dsm;
pub mod e9_monitor_overhead;

mod table;
pub mod telemetry_out;
pub mod workloads;

pub use table::Table;
