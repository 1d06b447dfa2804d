//! `repro` — regenerates every table and figure of the paper's §6.
//!
//! ```text
//! repro <experiment|all> [--scale S] [--queries N]
//! ```
//!
//! `EXPERIMENTS` is the one list of experiments: `--help`, dispatch, `all`
//! and the unknown-name exit all read it, and so does the tier-1 smoke test
//! (`tests/integration_pipeline.rs` includes this file as a module, which
//! is what the `pub(crate)`s are for).
//!
//! Defaults are laptop-scale; `--scale 1.0` roughly doubles the default
//! workload, `--scale 0.05` is a quick run of any experiment (CI runs
//! `table5 --scale 0.05`, whose ablation covers all three verify modes).

use trajsearch_bench::data::{FuncKind, Scale};
use trajsearch_bench::exp::*;
use trajsearch_bench::methods::MethodKind;

pub(crate) struct Args {
    pub(crate) experiment: String,
    pub(crate) scale: Scale,
    pub(crate) queries: usize,
}

/// Name, one-line description, runner.
pub(crate) type Experiment = (&'static str, &'static str, fn(&Args));

/// Every experiment, in the paper's order.
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    ("table2", "dataset statistics", table2),
    ("fig4", "travel-time estimation RMSE", fig4),
    ("table3", "subtrajectory vs whole matching RMSE", table3),
    ("fig5", "alternative-route naturalness", fig5),
    ("fig6", "query time vs tau-ratio", fig6),
    ("fig7", "query time vs |Q|", fig7),
    ("fig8", "query time vs dataset size", fig8),
    ("fig9", "vs DITA / ERP-index, varying tau-ratio", fig9),
    ("fig10", "vs DITA / ERP-index, varying #trajectories", fig10),
    ("table4", "OSF-BT running-time breakdown", table4),
    (
        "table5",
        "verification pruning (UPR/CMR/TUR), SW/Local/Trie",
        table5,
    ),
    ("table6", "index construction time / size", table6),
    ("fig11", "candidate counts", fig11),
    ("fig12", "temporal filtering", fig12),
    ("fig13", "eta sweep (ERP / NetERP)", fig13),
];

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: Scale::default_repro(),
        queries: 20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                args.scale = Scale(v.parse().expect("scale must be a number"));
            }
            "--queries" => {
                let v = it.next().expect("--queries needs a value");
                args.queries = v.parse().expect("queries must be an integer");
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => panic!("unexpected argument {other:?}"),
        }
    }
    if args.experiment.is_empty() {
        print_usage();
        std::process::exit(1);
    }
    args
}

fn print_usage() {
    eprintln!("usage: repro <experiment> [--scale S] [--queries N]\n\nexperiments:");
    for (name, what, _) in EXPERIMENTS {
        eprintln!("  {name:<8} {what}");
    }
    eprintln!("  {:<8} everything above", "all");
}

// Core sweep parameters mirroring §6 (figures list the same axes).
const TAU_RATIOS: [f64; 3] = [0.1, 0.2, 0.3];
const QLENS: [usize; 4] = [20, 40, 60, 80];
const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const DATASETS: [&str; 4] = ["beijing", "porto", "singapore", "sanfran"];

// The Figure 6 method set (Plain-SW included; the paper restricts it to
// fewer queries for the same cost reasons — use --queries to match).
const METHODS: [MethodKind; 8] = [
    MethodKind::OsfBt,
    MethodKind::OsfSw,
    MethodKind::DisonBt,
    MethodKind::DisonSw,
    MethodKind::TorchBt,
    MethodKind::TorchSw,
    MethodKind::QGram,
    MethodKind::PlainSw,
];

fn main() {
    let args = parse_args();
    let all = args.experiment == "all";
    let mut ran = false;
    for (name, _, run) in EXPERIMENTS {
        if all || args.experiment == *name {
            run(&args);
            ran = true;
        }
    }
    if !ran {
        print_usage();
        std::process::exit(1);
    }
}

fn table2(args: &Args) {
    table2::print(&table2::run(args.scale));
}

fn fig4(args: &Args) {
    let taus = [0.02, 0.06, 0.1, 0.14, 0.2];
    travel_time::print_fig4(&travel_time::run_fig4(30, args.queries, &taus, args.scale));
}

fn table3(args: &Args) {
    let ks = [5, 10, 15, 20, 25];
    travel_time::print_table3(&travel_time::run_table3(30, args.queries, &ks, args.scale));
}

fn fig5(args: &Args) {
    let (qlens, taus) = ([40, 50, 60], [0.05, 0.1, 0.2, 0.3]);
    let (nq, scale) = (args.queries, args.scale);
    let mut rows = naturalness::run(&qlens, &taus, nq, scale);
    rows.extend(naturalness::run_nonwed(&qlens, &taus, nq, scale));
    naturalness::print(&rows);
}

fn fig6(args: &Args) {
    let rows = query_time::run_fig6(
        &DATASETS,
        &FuncKind::ALL,
        &METHODS,
        &TAU_RATIOS,
        60,
        args.queries,
        args.scale,
    );
    query_time::print_rows(
        "Figure 6: query time vs tau-ratio (|Q|=60)",
        "tau-ratio",
        &rows,
    );
}

fn fig7(args: &Args) {
    let rows = query_time::run_fig7(
        &DATASETS,
        &[FuncKind::Edr, FuncKind::Erp, FuncKind::Surs],
        &METHODS,
        &QLENS,
        args.queries,
        args.scale,
    );
    query_time::print_rows("Figure 7: query time vs |Q| (tau-ratio=0.1)", "|Q|", &rows);
}

fn fig8(args: &Args) {
    let rows = query_time::run_fig8(
        &DATASETS,
        &[FuncKind::Edr, FuncKind::Erp, FuncKind::Surs],
        &METHODS,
        &FRACTIONS,
        60,
        args.queries,
        args.scale,
    );
    query_time::print_rows(
        "Figure 8: query time vs dataset size (tau-ratio=0.1)",
        "fraction",
        &rows,
    );
}

fn fig9(args: &Args) {
    let ntraj = ((600.0 * args.scale.0).round() as usize).max(50);
    let taus = [0.05, 0.1, 0.15, 0.2];
    let rows = enum_baselines::run(&taus, true, ntraj, 20, args.queries, args.scale);
    enum_baselines::print(&rows, "tau-ratio");
}

fn fig10(args: &Args) {
    let base = (600.0 * args.scale.0).round().max(50.0);
    let counts = [(base * 0.33).round(), (base * 0.66).round(), base];
    let rows = enum_baselines::run(&counts, false, 0, 20, args.queries, args.scale);
    enum_baselines::print(&rows, "#traj");
}

fn table4(args: &Args) {
    query_time::print_table4(&query_time::run_table4(args.scale));
}

fn table5(args: &Args) {
    verification::print(&verification::run(args.scale));
    verification::print_ablation(&verification::run_ablation(args.scale));
}

fn table6(args: &Args) {
    table6::print(&table6::run(args.scale));
}

fn fig11(args: &Args) {
    let (nq, scale) = (args.queries, args.scale);
    let rows = candidates::run("beijing", &FuncKind::ALL, &TAU_RATIOS, true, 60, nq, scale);
    candidates::print(&rows, "tau-ratio");
    let qlens = [20.0, 40.0, 60.0];
    let rows = candidates::run("beijing", &FuncKind::ALL, &qlens, false, 60, nq, scale);
    candidates::print(&rows, "|Q|");
}

fn fig12(args: &Args) {
    let rows = temporal::run(
        &["beijing", "porto", "sanfran"],
        &[0.01, 0.02, 0.05, 0.1],
        60,
        args.queries,
        args.scale,
    );
    temporal::print(&rows);
}

fn fig13(args: &Args) {
    // The paper sweeps eta up to 1e2 x the natural scale; the largest
    // point makes B(q) cover whole districts and is only tractable on
    // tiny workloads, so the default sweep stops at 10x (the blow-up
    // trend is already visible from 1e-2 -> 1 -> 10).
    let rows = eta::run(
        &["beijing"],
        &[1e-4, 1e-2, 1.0, 10.0],
        &[(0.1, 40), (0.2, 40)],
        args.queries,
        args.scale,
    );
    eta::print(&rows);
}
