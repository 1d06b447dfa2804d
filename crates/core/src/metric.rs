//! Distance-metric selection and the whole-trajectory scan verifier.
//!
//! The engine defaults to the paper's weighted edit distance, but a
//! [`Query`](crate::Query) may select DTW, LCSS(ε) or discrete Fréchet
//! instead — all grounded in the active cost model's substitution cost (see
//! [`wed::metric`]). The front half of the pipeline is shared; what changes
//! per metric is **which filter bound is sound** and which scan verifies a
//! candidate trajectory:
//!
//! | metric  | filter front half                  | why |
//! |---------|------------------------------------|-----|
//! | WED     | MinCand τ-subsequence (Theorem 1)  | costs add over edits |
//! | DTW     | MinCand τ-subsequence              | costs add over couplings; every chosen `q` couples with ≥ 1 subtrajectory symbol, so a subtrajectory disjoint from `B(Q')` costs `≥ Σ c(q) ≥ τ` |
//! | Fréchet | single symbol with `c(q) ≥ τ` | the bottleneck does not add, but one sufficiently expensive symbol prunes alone |
//! | LCSS(ε) | none — exact fallback scan         | the ε-match predicate is unrelated to the lower costs `c(q)`, so no neighborhood bound applies |
//!
//! The scan verifier here is the engine's one **whole-trajectory scan**: one
//! exact scan per distinct candidate trajectory, for every metric. It
//! verifies every non-WED query, a WED query in
//! [`VerifyMode::Sw`](crate::VerifyMode::Sw) (the `OSF-SW` baseline), and
//! every trajectory of the exact fallback scan. WED's Local and Trie modes
//! are the one other verifier, the bidirectional tries of
//! [`crate::verify`].
//!
//! A WED scan is Smith–Waterman ([`wed::sw_scan_all`]) and charges a column
//! per trajectory position to `sw_columns` and to the metric-neutral
//! `SearchStats::verify_cost`. The other metrics charge their DP rows to
//! `verify_cost` alone, leaving the WED-specific counters at zero. Under
//! DTW and Fréchet a scan is not a row per position: the kernel opens a
//! start `s` only when its first cell `sub(P[s], Q[0])` is below `τ` (every
//! later cell of that start is at least that one, §5.1's rule of never
//! extending a DP whose lower bound reached `τ`), so a start that cannot
//! match costs one `sub` call and **no row** — `verify_cost` counts rows
//! *evaluated*.

use crate::json::{write_str, ObjectWriter, Reader, Slot, Wire};
use crate::query::QueryError;
use crate::results::ResultSet;
use crate::stats::SearchStats;
use crate::verify::{Candidate, Verifier};
use traj::TrajId;
use wed::{CostModel, Sym};

/// Which distance the query's threshold `τ` ranges over. `Wed` is the
/// default and the only metric older peers understand; see the module docs
/// for the per-metric filter bounds and the README "Metrics" section for
/// the wire form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Metric {
    /// Weighted edit distance (the paper's metric; Definition 1).
    #[default]
    Wed,
    /// Dynamic time warping: minimum over monotone couplings of the *sum*
    /// of `sub` costs.
    Dtw,
    /// LCSS distance `|Q| − L` under the ε-match `sub(a, b) ≤ eps`; `τ`
    /// therefore counts unmatched query symbols (integral distances).
    Lcss {
        /// Ground-distance tolerance for a symbol match; must be finite
        /// and non-negative.
        eps: f64,
    },
    /// Discrete Fréchet: minimum over monotone couplings of the *maximum*
    /// `sub` cost.
    Frechet,
}

impl Metric {
    /// The wire name (also the capability token advertised by servers).
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Wed => "wed",
            Metric::Dtw => "dtw",
            Metric::Lcss { .. } => "lcss",
            Metric::Frechet => "frechet",
        }
    }

    pub fn is_wed(&self) -> bool {
        matches!(self, Metric::Wed)
    }

    /// Shape validation shared by the builder and the wire decoder.
    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        if let Metric::Lcss { eps } = self {
            if !(eps.is_finite() && *eps >= 0.0) {
                return Err(QueryError::InvalidEps(*eps));
            }
        }
        Ok(())
    }
}

/// `{"name":…}`, plus a numeric `"eps"` for LCSS. WED is the absent key:
/// omitted on encode, so pre-metric query JSON stays byte-identical, and
/// what an absent (or `null`) `metric` decodes to. An unknown name is an
/// error — never a silent fall-back to WED, which would answer under the
/// wrong metric.
impl Wire for Metric {
    fn write_wire(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        write_str(o.key("name"), self.name());
        if let Metric::Lcss { eps } = self {
            o.field("eps", eps);
        }
        o.end();
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut name, mut eps) = (Slot::<String>::new(), Slot::<f64>::new());
        r.object(|r, key| match key {
            "name" => name.read(r),
            "eps" => eps.read(r),
            _ => r.skip_member(key),
        })?;
        match name.take("name")?.as_str() {
            "wed" => Ok(Metric::Wed),
            "dtw" => Ok(Metric::Dtw),
            "frechet" => Ok(Metric::Frechet),
            "lcss" => Ok(Metric::Lcss {
                eps: eps.take("eps")?,
            }),
            other => Err(format!("unknown metric {other:?}")),
        }
    }

    fn absent() -> Option<Self> {
        Some(Metric::Wed)
    }

    fn omitted(&self) -> bool {
        self.is_wed()
    }
}

/// The engine's one whole-trajectory scan: every substring of a trajectory
/// within `τ` of the query under the query's metric, by
/// [`wed::sw_scan_all`] for WED (the SW verify mode and the exact fallback)
/// and by [`dtw_scan_all`](wed::metric::dtw_scan_all),
/// [`lcss_scan_all`](wed::metric::lcss_scan_all) or
/// [`frechet_scan_all`](wed::metric::frechet_scan_all) for the others.
///
/// A WED scan charges `sw_columns` and `verify_cost` one column per
/// position of the trajectory; the other metrics charge the rows their scan
/// evaluated to `verify_cost` alone. As a verifier it scans each distinct
/// candidate trajectory once, whatever the number of anchors its group
/// carries. In the current pipeline LCSS always takes the fallback scan (no
/// sound filter bound exists), but the verifier serves it too, for custom
/// candidate sets.
pub(crate) struct ScanVerifier<'a, M: CostModel> {
    model: &'a M,
    q: &'a [Sym],
    tau: f64,
    metric: Metric,
}

impl<'a, M: CostModel> ScanVerifier<'a, M> {
    pub(crate) fn new(model: &'a M, q: &'a [Sym], tau: f64, metric: Metric) -> Self {
        ScanVerifier {
            model,
            q,
            tau,
            metric,
        }
    }

    /// Scans trajectory `id`, whose symbols are `path`, into `results`.
    pub(crate) fn scan(
        &self,
        id: TrajId,
        path: &[Sym],
        results: &mut ResultSet,
        stats: &mut SearchStats,
    ) {
        let (model, q, tau) = (self.model, self.q, self.tau);
        let (matches, rows) = match self.metric {
            Metric::Wed => {
                stats.sw_columns += path.len() as u64;
                (wed::sw_scan_all(model, path, q, tau), path.len() as u64)
            }
            Metric::Dtw => wed::metric::dtw_scan_all(model, path, q, tau),
            Metric::Lcss { eps } => wed::metric::lcss_scan_all(model, path, q, tau, eps),
            Metric::Frechet => wed::metric::frechet_scan_all(model, path, q, tau),
        };
        stats.verify_cost += rows;
        for m in matches {
            results.push(id, m.start, m.end, m.dist);
        }
    }
}

impl<M: CostModel> Verifier for ScanVerifier<'_, M> {
    fn verify_group(
        &mut self,
        path: &[Sym],
        group: &[Candidate],
        results: &mut ResultSet,
        stats: &mut SearchStats,
    ) {
        self.scan(group[0].id, path, results, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_and_default() {
        assert_eq!(Metric::default(), Metric::Wed);
        assert!(Metric::Wed.is_wed());
        assert_eq!(Metric::Dtw.name(), "dtw");
        assert_eq!(Metric::Lcss { eps: 0.5 }.name(), "lcss");
        assert_eq!(Metric::Frechet.name(), "frechet");
    }

    #[test]
    fn wed_is_omitted_on_the_wire() {
        assert!(Metric::Wed.omitted());
        assert_eq!(Metric::absent().unwrap(), Metric::Wed);
        let mut slot = Slot::<Metric>::new();
        slot.read(&mut Reader::new("null")).unwrap();
        assert_eq!(slot.take("metric").unwrap(), Metric::Wed);
    }

    #[test]
    fn non_wed_metrics_round_trip() {
        for m in [Metric::Dtw, Metric::Frechet, Metric::Lcss { eps: 0.25 }] {
            assert!(!m.omitted(), "non-WED metrics are encoded");
            let back: Metric = json::decode(&json::encode(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn unknown_metric_is_a_typed_error() {
        for text in [
            r#"{"name":"hausdorff"}"#,
            r#"{"eps":1}"#,
            r#"{"name":"lcss"}"#,
        ] {
            assert!(matches!(
                json::decode::<Metric>(text).map_err(QueryError::Parse),
                Err(QueryError::Parse(_))
            ));
        }
    }

    #[test]
    fn wed_scan_is_sw_once_per_trajectory() {
        use crate::deadline::Deadline;
        use crate::search::ExecCtx;
        use crate::verify::verify_all;
        use traj::{Trajectory, TrajectoryStore};
        use trajsearch_obs::Tracer;
        use wed::models::Lev;

        let store: TrajectoryStore = [&[0, 1, 2, 3, 4][..], &[3, 1, 5, 1, 2], &[9, 8, 7]]
            .iter()
            .map(|p| Trajectory::untimed(p.to_vec()))
            .collect();
        let (q, tau) = ([1, 5, 2], 2.5);
        // Two anchors in every trajectory: each is still scanned once.
        let cands: Vec<Candidate> = store
            .iter()
            .flat_map(|(id, _)| [0, 1].map(|j| Candidate { id, j, iq: 0 }))
            .collect();
        let ctx = ExecCtx {
            deadline: Deadline::NONE,
            tracer: Tracer::disabled(),
            cache: None,
        };
        let mut stats = SearchStats::default();
        let got = verify_all(
            &store,
            |id| store.get(id).span(),
            &cands,
            &mut ScanVerifier::new(&Lev, &q, tau, Metric::Wed),
            None,
            false,
            ctx,
            &mut stats,
        )
        .unwrap();
        let got: Vec<_> = got
            .iter()
            .map(|m| (m.id, m.start, m.end, m.dist.to_bits()))
            .collect();
        let mut want = Vec::new();
        for (id, t) in store.iter() {
            for m in wed::sw_scan_all(&Lev, t.path(), &q, tau) {
                want.push((id, m.start, m.end, m.dist.to_bits()));
            }
        }
        assert!(!want.is_empty());
        assert_eq!(got, want);
        let columns: u64 = store.iter().map(|(_, t)| t.len() as u64).sum();
        assert_eq!((stats.sw_columns, stats.verify_cost), (columns, columns));
        assert_eq!(stats.columns_passed + stats.stepdp_calls, 0);
    }

    #[test]
    fn lcss_eps_is_validated() {
        for eps in [f64::NAN, f64::INFINITY, -0.5] {
            assert!(matches!(
                Metric::Lcss { eps }.validate().unwrap_err(),
                QueryError::InvalidEps(_)
            ));
        }
        assert!(Metric::Lcss { eps: 0.0 }.validate().is_ok());
        assert!(Metric::Dtw.validate().is_ok());
    }
}
