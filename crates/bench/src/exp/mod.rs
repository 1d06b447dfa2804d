//! One module per table/figure of the paper's evaluation (§6).
//!
//! Each module exposes a `run_*` function returning plain rows plus a
//! `print_*` helper; the `repro` binary wires them to subcommands, named
//! after the table or figure of the paper's §6 each one reproduces.
//! Engineering measurements (throughput, serving, snapshots, tracing
//! overhead) are not here: `benchmark/` (`trajbench`) is the one timing
//! harness and `crates/core/tests/counter_golden.rs` the one counter gate.

pub mod candidates;
pub mod enum_baselines;
pub mod eta;
pub mod naturalness;
pub mod query_time;
pub mod table2;
pub mod table6;
pub mod temporal;
pub mod travel_time;
pub mod verification;
