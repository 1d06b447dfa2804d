//! Uniform method runner for the §6.3 comparisons.
//!
//! Wraps the OSF engine and every index-based baseline behind one interface
//! so sweeps (Figures 6–8, 11) are a single loop over [`MethodKind`].

use baselines::{plain_sw_search, Dison, QGramIndex, Torch};
use std::time::{Duration, Instant};
use traj::TrajectoryStore;
use trajsearch_core::{
    AnyIndex, EngineBuilder, MatchResult, Query, SearchEngine, SearchStats, VerifyMode,
};
use wed::{Sym, WedInstance};

/// The eight methods of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    OsfBt,
    OsfSw,
    DisonBt,
    DisonSw,
    TorchBt,
    TorchSw,
    QGram,
    PlainSw,
}

impl MethodKind {
    pub const ALL: [MethodKind; 8] = [
        MethodKind::OsfBt,
        MethodKind::OsfSw,
        MethodKind::DisonBt,
        MethodKind::DisonSw,
        MethodKind::TorchBt,
        MethodKind::TorchSw,
        MethodKind::QGram,
        MethodKind::PlainSw,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::OsfBt => "OSF-BT",
            MethodKind::OsfSw => "OSF-SW",
            MethodKind::DisonBt => "DISON-BT",
            MethodKind::DisonSw => "DISON-SW",
            MethodKind::TorchBt => "Torch-BT",
            MethodKind::TorchSw => "Torch-SW",
            MethodKind::QGram => "q-gram",
            MethodKind::PlainSw => "Plain-SW",
        }
    }
}

/// Pre-built indexes for one `(model, store)` pair; query methods reuse them
/// (index construction is excluded from query-time measurements, §6.3).
/// q-gram filtering needs unit costs (Appendix C), so under any other model
/// the set has no q-gram index and does not [`run`](MethodSet::runs) it.
pub(crate) struct MethodSet<'a, M: WedInstance + Copy + Sync> {
    model: M,
    store: &'a TrajectoryStore,
    engine: SearchEngine<'a, M, AnyIndex>,
    dison_bt: Dison<'a, M>,
    dison_sw: Dison<'a, M>,
    torch_bt: Torch<'a, M>,
    torch_sw: Torch<'a, M>,
    qgram: Option<QGramIndex<'a, M>>,
}

/// Outcome of running one method on one query.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub elapsed: Duration,
    pub matches: Vec<MatchResult>,
    pub stats: SearchStats,
}

impl<'a, M: WedInstance + Copy + Sync> MethodSet<'a, M> {
    pub fn new(model: M, store: &'a TrajectoryStore, alphabet_size: usize) -> Self {
        MethodSet {
            model,
            store,
            engine: EngineBuilder::new(model, store, alphabet_size).build(),
            dison_bt: Dison::new(model, store, alphabet_size, VerifyMode::Trie),
            dison_sw: Dison::new(model, store, alphabet_size, VerifyMode::Sw),
            torch_bt: Torch::new(model, store, alphabet_size, VerifyMode::Trie),
            torch_sw: Torch::new(model, store, alphabet_size, VerifyMode::Sw),
            qgram: model.unit_costs().then(|| QGramIndex::new(model, store, 3)),
        }
    }

    /// Whether this set can run `kind`: every method but q-gram, which
    /// only under unit costs.
    pub fn runs(&self, kind: MethodKind) -> bool {
        kind != MethodKind::QGram || self.qgram.is_some()
    }

    pub fn engine(&self) -> &SearchEngine<'a, M, AnyIndex> {
        &self.engine
    }

    /// Runs one method on one query, measuring wall-clock time.
    ///
    /// # Panics
    /// Panics if the set does not [`run`](MethodSet::runs) `kind`.
    pub fn run(&self, kind: MethodKind, q: &[Sym], tau: f64) -> RunResult {
        let t0 = Instant::now();
        let osf = |mode: VerifyMode| {
            let query = Query::threshold(q, tau)
                .verify(mode)
                .build()
                .expect("workload queries are valid");
            let out = self.engine.run(&query).expect("run");
            (out.matches, out.stats)
        };
        let (matches, stats) = match kind {
            MethodKind::OsfBt => osf(VerifyMode::Trie),
            MethodKind::OsfSw => osf(VerifyMode::Sw),
            MethodKind::DisonBt => self.dison_bt.search(q, tau),
            MethodKind::DisonSw => self.dison_sw.search(q, tau),
            MethodKind::TorchBt => self.torch_bt.search(q, tau),
            MethodKind::TorchSw => self.torch_sw.search(q, tau),
            MethodKind::QGram => self
                .qgram
                .as_ref()
                .expect("q-gram runs only under unit costs")
                .search(q, tau),
            MethodKind::PlainSw => plain_sw_search(&self.model, self.store, q, tau),
        };
        RunResult {
            elapsed: t0.elapsed(),
            matches,
            stats,
        }
    }

    /// Average per-query time (ms) and merged stats over a workload.
    pub fn run_workload(
        &self,
        kind: MethodKind,
        queries: &[(Vec<Sym>, f64)],
    ) -> (f64, SearchStats) {
        let mut total = Duration::ZERO;
        let mut stats = SearchStats::default();
        for (q, tau) in queries {
            let r = self.run(kind, q, *tau);
            total += r.elapsed;
            stats.merge(&r.stats);
        }
        let ms = total.as_secs_f64() * 1e3 / queries.len().max(1) as f64;
        (ms, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, FuncKind};

    #[test]
    fn all_methods_agree_on_results() {
        let d = Dataset::test_tiny();
        for kind in [FuncKind::Lev, FuncKind::Edr, FuncKind::Surs] {
            let model = d.model(kind);
            let (store, alphabet) = d.store_for(kind);
            let set = MethodSet::new(&*model, store, alphabet);
            assert_eq!(set.runs(MethodKind::QGram), kind != FuncKind::Surs);
            for q in d.sample_queries(kind, 6, 3, 5) {
                let tau = d.tau_for(&*model, &q, 0.2);
                let reference = set.run(MethodKind::PlainSw, &q, tau);
                for m in MethodKind::ALL.into_iter().filter(|&m| set.runs(m)) {
                    let r = set.run(m, &q, tau);
                    let got: Vec<_> = r.matches.iter().map(|x| (x.id, x.start, x.end)).collect();
                    let want: Vec<_> = reference
                        .matches
                        .iter()
                        .map(|x| (x.id, x.start, x.end))
                        .collect();
                    assert_eq!(
                        got,
                        want,
                        "{} vs Plain-SW ({}, tau={tau})",
                        m.name(),
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn workload_runner_averages() {
        let d = Dataset::test_tiny();
        let model = d.model(FuncKind::Lev);
        let (store, alphabet) = d.store_for(FuncKind::Lev);
        let set = MethodSet::new(&*model, store, alphabet);
        let queries: Vec<(Vec<wed::Sym>, f64)> = d
            .sample_queries(FuncKind::Lev, 5, 4, 9)
            .into_iter()
            .map(|q| {
                let tau = d.tau_for(&*model, &q, 0.2);
                (q, tau)
            })
            .collect();
        let (ms, stats) = set.run_workload(MethodKind::OsfBt, &queries);
        assert!(ms >= 0.0);
        assert!(stats.candidates > 0);
    }
}
