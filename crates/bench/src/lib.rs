//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§6) on synthetic datasets (the README section "Reproducing
//! the paper's experiments" names the substitutions; `repro --help` is the
//! experiment index).
//!
//! * [`data`] — the four synthetic datasets standing in for Beijing, Porto,
//!   Singapore and San Francisco, plus query sampling and model defaults.
//! * [`methods`] — a uniform runner over OSF/DISON/Torch (×SW/BT), q-gram
//!   and Plain-SW.
//! * [`exp`] — one module per table/figure; each returns plain data rows and
//!   the `repro` binary prints them in the paper's layout.

pub mod data;
pub mod exp;
pub mod methods;
pub mod table;

pub use data::{Dataset, FuncKind, Scale};
pub use methods::MethodKind;
