//! Distance-metric selection and the non-WED verifier back half.
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
//! | Fréchet | single symbol with `c(q) ≥ τ` ([`FilterPlan::build_single`](crate::filter::FilterPlan::build_single)) | the bottleneck does not add, but one sufficiently expensive symbol prunes alone |
//! | LCSS(ε) | none — exact fallback scan         | the ε-match predicate is unrelated to the lower costs `c(q)`, so no neighborhood bound applies |
//!
//! [`ScanVerifier`] scores **whole candidate trajectories** (one scan per
//! distinct id, like the WED SW strategy) and charges its DP rows to the
//! metric-neutral `SearchStats::verify_cost`, leaving the WED-specific
//! counters at zero. Under DTW and Fréchet a scan is not a row per
//! position: the kernel opens a start `s` only when its first cell
//! `sub(P[s], Q[0])` is below `τ` (every later cell of that start is at
//! least that one, §5.1's rule of never extending a DP whose lower bound
//! reached `τ`), so a start that cannot match costs one `sub` call and
//! **no row** — `verify_cost` counts rows *evaluated*.

use crate::json::{write_str, ObjectWriter, Reader, Slot, Wire};
use crate::query::QueryError;
use crate::results::ResultSet;
use crate::stats::SearchStats;
use crate::verify::{Candidate, Verifier};
use wed::{CostModel, SubMatch, Sym};

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

/// One scan of a whole data sequence under a non-WED metric: all matching
/// substrings plus the DP rows evaluated (none for a DTW/Fréchet start the
/// kernel's first-cell gate skips). Shared by [`ScanVerifier`] and the
/// metric fallback scan.
pub(crate) fn metric_scan_all<M: CostModel>(
    model: &M,
    metric: Metric,
    path: &[Sym],
    q: &[Sym],
    tau: f64,
) -> (Vec<SubMatch>, u64) {
    match metric {
        Metric::Wed => unreachable!("WED verification goes through WedVerifier"),
        Metric::Dtw => wed::metric::dtw_scan_all(model, path, q, tau),
        Metric::Lcss { eps } => wed::metric::lcss_scan_all(model, path, q, tau, eps),
        Metric::Frechet => wed::metric::frechet_scan_all(model, path, q, tau),
    }
}

/// The back half of every non-WED metric: one exact scan
/// ([`wed::metric::dtw_scan_all`], [`lcss_scan_all`](wed::metric::lcss_scan_all)
/// or [`frechet_scan_all`](wed::metric::frechet_scan_all)) per candidate
/// trajectory, charging the rows that scan evaluated to `verify_cost`. In
/// the current pipeline LCSS always takes the fallback scan (no sound
/// filter bound exists), but the verifier serves it too, for custom
/// candidate sets. [`Metric::Wed`] is not a scan metric — verifying under
/// it panics; use [`WedVerifier`](crate::verify::WedVerifier).
pub struct ScanVerifier<'a, M: CostModel> {
    model: &'a M,
    q: &'a [Sym],
    tau: f64,
    metric: Metric,
}

impl<'a, M: CostModel> ScanVerifier<'a, M> {
    pub fn new(model: &'a M, q: &'a [Sym], tau: f64, metric: Metric) -> Self {
        ScanVerifier {
            model,
            q,
            tau,
            metric,
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
        // One exact scan per distinct candidate trajectory, whatever the
        // number of anchors the group carries.
        let id = group[0].id;
        let (matches, rows) = metric_scan_all(self.model, self.metric, path, self.q, self.tau);
        stats.verify_cost += rows;
        for m in matches {
            results.push(id, m.start, m.end, m.dist);
        }
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
