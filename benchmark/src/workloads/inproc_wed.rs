//! `inproc_wed` — the paper's own experiment: one thread calls
//! `SearchEngine::run` on 740 WED threshold queries across
//! {EDR, ERP, NetEDR} × |Q| ∈ {20, 40, 80} × τ-ratio ∈ {0.1, 0.2, 0.3},
//! patterns cut plainly from random trajectories, single-list index, trie
//! verification. Verification and the DP kernel do
//! nearly all the work; serving, sharding, snapshots and JSON do none.

use super::{oracle_sample, report, Report};
use crate::data::{self, Dataset};
use crate::harness::{self, Cfg, Lane};
use crate::ledger;
use crate::metrics::Values;
use crate::oracle::{self, CELL_BUDGET};
use crate::spans::Recorder;
use trajsearch_core::{EngineBuilder, InvertedIndex, Query, Response, SearchEngine};
use wed::models::{Edr, Erp, Memo, NetEdr};
use wed::WedInstance;

pub const NAME: &str = "inproc_wed";

const LENS: [usize; 3] = [20, 40, 80];
const RATIOS: [f64; 3] = [0.1, 0.2, 0.3];
/// Queries per class, `[model][|Q|][τ-ratio]`, 740 in all. Mean cost per
/// query spans 0.3 ms to 52 ms across the classes (its spread within a
/// class is about 0.45 of the mean), so counts fall as cost rises and no
/// class takes more than a fifth of a pass. The cap: a class whose mean
/// query costs over 100 ms is left out — NetEDR at |Q| = 80 with τ-ratio
/// 0.2 and 0.3, 200 ms and 580 ms a query; two and one of them would be a
/// quarter of a pass and a twelfth of its seed-to-seed spread each. The 45
/// queries of the three costliest classes put the 90th percentile (74 from
/// the top) in the middle of the next 52, not between two classes.
const COUNTS: [[[usize; 3]; 3]; 3] = [
    [[47, 48, 41], [33, 26, 21], [26, 26, 11]],
    [[47, 48, 37], [33, 26, 26], [26, 21, 21]],
    [[41, 33, 21], [21, 26, 16], [18, 0, 0]],
];
const MODELS: [&str; 3] = ["EDR", "ERP", "NetEDR"];
/// A memoised NetEDR substitution is a hash lookup, ten times the other
/// models' cost per DP cell, so the oracle sweeps a tenth as many.
const NET_EDR_CELLS: u64 = CELL_BUDGET / 10;

struct Op {
    model: usize,
    query: Query,
}

struct Engines<'a> {
    edr: SearchEngine<'a, &'a Edr, InvertedIndex>,
    erp: SearchEngine<'a, &'a Erp, InvertedIndex>,
    net_edr: SearchEngine<'a, &'a Memo<NetEdr>, InvertedIndex>,
}

struct Caller<'a> {
    engines: &'a Engines<'a>,
    ops: &'a [Op],
}

fn answer<M: WedInstance + Sync>(
    engine: &SearchEngine<'_, M, InvertedIndex>,
    query: &Query,
    rec: Option<&mut Recorder>,
) -> Result<Response, String> {
    match rec {
        Some(rec) => ledger::decomposed(engine, query, rec),
        None => engine.run(query).map_err(|e| e.to_string()),
    }
}

impl Lane for Caller<'_> {
    fn exec(&mut self, op: usize, rec: Option<&mut Recorder>) -> Result<Vec<Response>, String> {
        let Op { model, query } = &self.ops[op];
        let response = match model {
            0 => answer(&self.engines.edr, query, rec),
            1 => answer(&self.engines.erp, query, rec),
            _ => answer(&self.engines.net_edr, query, rec),
        }?;
        Ok(vec![response])
    }
}

/// The class's queries: `count` patterns of `len` symbols cut from random
/// trajectories, each with τ = `ratio` × Σ c(q).
fn class_queries<M: WedInstance>(
    ds: &Dataset,
    model: &M,
    (len, ratio, count): (usize, f64, usize),
    salt: u64,
) -> Vec<Query> {
    ds.sample_patterns(len, count, salt)
        .into_iter()
        .map(|q| {
            let tau = data::tau_for(model, &q, ratio);
            Query::threshold(q, tau)
                .build()
                .expect("a sampled pattern with a positive τ is a valid query")
        })
        .collect()
}

pub fn run(ds: &Dataset, cfg: &Cfg) -> Report {
    let (edr, erp, net_edr) = (ds.edr(), ds.erp(), ds.net_edr());

    let mut ops: Vec<Op> = Vec::new();
    for (m, counts) in COUNTS.iter().enumerate() {
        for (l, &len) in LENS.iter().enumerate() {
            for (r, &ratio) in RATIOS.iter().enumerate() {
                let class = (len, ratio, cfg.ops(counts[l][r], counts[l][r].min(1)));
                let salt = 0x100 + (m * 9 + l * 3 + r) as u64;
                let queries = match m {
                    0 => class_queries(ds, &edr, class, salt),
                    1 => class_queries(ds, &erp, class, salt),
                    _ => class_queries(ds, &net_edr, class, salt),
                };
                ops.extend(queries.into_iter().map(|query| Op { model: m, query }));
            }
        }
    }
    // Interleave the classes, so a pass is a mix at every moment.
    data::shuffle(&mut ops, &mut data::rng(ds.seed, 0x1FF));

    let index = InvertedIndex::build(&ds.store, ds.alphabet);
    let engines = Engines {
        edr: EngineBuilder::new(&edr, &ds.store, ds.alphabet).build_with(index.clone()),
        erp: EngineBuilder::new(&erp, &ds.store, ds.alphabet).build_with(index.clone()),
        net_edr: EngineBuilder::new(&net_edr, &ds.store, ds.alphabet).build_with(index),
    };
    let index_bytes = engines.edr.index().size_bytes()
        + engines.erp.index().size_bytes()
        + engines.net_edr.index().size_bytes();

    let mut caller = Caller {
        engines: &engines,
        ops: &ops,
    };
    let m = harness::measure(&mut [&mut caller], ops.len(), cfg);

    let oracle = oracle_sample(ds, ops.iter().map(|op| &op.query), |i, rng| {
        let (query, response) = (&ops[i].query, &m.reference[i][0]);
        match ops[i].model {
            0 => oracle::check(&edr, ds, CELL_BUDGET, query, response, rng),
            1 => oracle::check(&erp, ds, CELL_BUDGET, query, response, rng),
            _ => oracle::check(&net_edr, ds, NET_EDR_CELLS, query, response, rng),
        }
    });

    let mut layers = Values::default();
    ledger::counters(m.reference.iter().map(|a| &a[0]), &mut layers);
    if cfg.traced {
        let cases = || {
            ops.iter()
                .zip(&m.reference)
                .map(|(op, a)| (&op.query, &a[0]))
        };
        ledger::timings(&m.recorders, &mut layers);
        ledger::json_probe(cases(), &mut layers);
    }
    let mut report = report(NAME, cfg, m, 1, index_bytes, oracle, layers, Vec::new());
    report.info.push(("models", MODELS.join(",")));
    report
}
