//! The unified, validated, serializable query type.
//!
//! Every search path of the engine — threshold and top-k objectives, all
//! three verification strategies, temporal constraints with the TF
//! pre-filter and the §4.3 by-departure postings, deadlines — is described
//! by one [`Query`] value, built through
//! [`QueryBuilder`] and answered by
//! [`SearchEngine::run`](crate::SearchEngine::run) /
//! [`run_batch`](crate::SearchEngine::run_batch). This mirrors the paper's
//! headline property (one filter-and-verify engine for every WED workload,
//! §1) at the API layer: adding a constraint is a builder call, not a new
//! entry point.
//!
//! A `Query` is **validated at construction** ([`QueryBuilder::build`]
//! returns a typed [`QueryError`] instead of panicking deep inside the
//! engine) and **wire-ready**: [`Query::to_json`] / [`Query::from_json`]
//! round-trip losslessly, so the exact same type serves as the request
//! format for a serving front-end or a remote shard protocol.

use crate::json::{self, write_str, ObjectWriter, Reader, Slot, Wire};
use crate::metric::Metric;
use crate::search::SearchOptions;
use crate::temporal::{TemporalConstraint, TemporalPredicate, TimeInterval};
use crate::verify::VerifyMode;
use std::fmt;
use wed::Sym;

crate::wire_enum! {
    /// What the query asks for.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Objective {
        /// Every subtrajectory with `wed < tau` (Definition 3).
        Threshold as "threshold" { tau: f64 },
        /// The `k` trajectories whose best-matching subtrajectory is closest to
        /// the pattern (Table 3 setting), found by geometric threshold growth
        /// from `initial_tau` up to at most `max_tau`.
        TopK as "top_k" {
            k: usize,
            initial_tau: f64,
            max_tau: f64,
        },
    }
}

/// Why a query was rejected — at [`QueryBuilder::build`] for
/// shape errors, at [`SearchEngine::run`](crate::SearchEngine::run) for
/// engine-dependent ones, or at [`Query::from_json`] for wire errors.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The pattern must be non-empty.
    EmptyPattern,
    /// `tau` must be finite and positive.
    InvalidTau(f64),
    /// Top-k needs `k >= 1`.
    InvalidK,
    /// Top-k needs `0 < initial_tau <= max_tau`, both finite.
    InvalidTauRange { initial_tau: f64, max_tau: f64 },
    /// Temporal interval bounds must be finite and ordered.
    InvalidTemporalInterval { start: f64, end: f64 },
    /// `temporal_postings(true)` without a temporal constraint to serve.
    TemporalPostingsWithoutConstraint,
    /// The engine's index has no by-departure orderings; build it with
    /// temporal postings enabled (this used to be a silent fallback).
    TemporalPostingsUnavailable,
    /// The pattern names a symbol at or past the index's `alphabet_size`,
    /// which no trajectory of the store can contain.
    SymbolOutsideAlphabet { symbol: Sym, alphabet_size: usize },
    /// `deadline_ms` must be at least 1 (a zero budget can never be met).
    InvalidDeadline,
    /// LCSS's ε must be finite and non-negative.
    InvalidEps(f64),
    /// The query's deadline passed before execution finished; the engine
    /// stopped at a cooperative checkpoint (see [`crate::deadline`]) and
    /// returned no partial results.
    DeadlineExceeded,
    /// The JSON document could not be decoded into a query/response.
    Parse(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyPattern => write!(f, "query pattern must be non-empty"),
            QueryError::InvalidTau(tau) => {
                write!(f, "threshold must be finite and positive, got {tau}")
            }
            QueryError::InvalidK => write!(f, "top-k requires k >= 1"),
            QueryError::InvalidTauRange {
                initial_tau,
                max_tau,
            } => write!(
                f,
                "top-k requires 0 < initial_tau <= max_tau (both finite), \
                 got initial_tau={initial_tau}, max_tau={max_tau}"
            ),
            QueryError::InvalidTemporalInterval { start, end } => write!(
                f,
                "temporal interval must have finite ordered bounds, got [{start}, {end}]"
            ),
            QueryError::TemporalPostingsWithoutConstraint => write!(
                f,
                "temporal postings requested without a temporal constraint"
            ),
            QueryError::TemporalPostingsUnavailable => write!(
                f,
                "temporal postings requested but the index has no by-departure \
                 orderings (enable temporal postings when building the engine)"
            ),
            QueryError::SymbolOutsideAlphabet {
                symbol,
                alphabet_size,
            } => write!(
                f,
                "query symbol {symbol} is outside the index alphabet of {alphabet_size} symbols"
            ),
            QueryError::InvalidDeadline => write!(f, "deadline_ms must be at least 1"),
            QueryError::InvalidEps(eps) => {
                write!(f, "lcss eps must be finite and non-negative, got {eps}")
            }
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryError::Parse(msg) => write!(f, "malformed query/response JSON: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated subtrajectory similarity query. Construct via
/// [`Query::threshold`] / [`Query::top_k`]; decode from the wire via
/// [`Query::from_json`]. Fields are private — a `Query` in hand is always
/// valid (engine-dependent checks excepted, which `run` performs).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pattern: Vec<Sym>,
    objective: Objective,
    verify: VerifyMode,
    metric: Metric,
    temporal: Option<TemporalConstraint>,
    temporal_filter: bool,
    temporal_postings: bool,
    deadline_ms: Option<u64>,
}

impl Query {
    /// Starts a threshold query: all subtrajectories with `wed < tau`.
    pub fn threshold(pattern: impl Into<Vec<Sym>>, tau: f64) -> QueryBuilder {
        QueryBuilder::new(pattern.into(), Objective::Threshold { tau })
    }

    /// Starts a top-k query: the `k` trajectories with the best-matching
    /// subtrajectory, via threshold growth from `initial_tau` to `max_tau`
    /// (e.g. 10% and 100% of `Σ c(q)`).
    pub fn top_k(
        pattern: impl Into<Vec<Sym>>,
        k: usize,
        initial_tau: f64,
        max_tau: f64,
    ) -> QueryBuilder {
        QueryBuilder::new(
            pattern.into(),
            Objective::TopK {
                k,
                initial_tau,
                max_tau,
            },
        )
    }

    pub fn pattern(&self) -> &[Sym] {
        &self.pattern
    }

    pub fn objective(&self) -> Objective {
        self.objective
    }

    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// The distance the threshold ranges over (default
    /// [`Metric::Wed`]).
    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn temporal(&self) -> Option<TemporalConstraint> {
        self.temporal
    }

    pub fn temporal_filter(&self) -> bool {
        self.temporal_filter
    }

    pub fn temporal_postings(&self) -> bool {
        self.temporal_postings
    }

    /// The query's latency budget in milliseconds, if any. The clock starts
    /// when execution begins — at [`run`](crate::SearchEngine::run) entry
    /// in-process, at *admission* in a serving layer (so queue time counts;
    /// see [`crate::deadline`]). Expiry is the typed
    /// [`QueryError::DeadlineExceeded`], never a late answer.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// The per-query options of the internal pipeline.
    pub(crate) fn search_options(&self) -> SearchOptions {
        SearchOptions {
            verify: self.verify,
            metric: self.metric,
            temporal: self.temporal,
            temporal_filter: self.temporal_filter,
            use_temporal_postings: self.temporal_postings,
        }
    }

    /// Encodes the query as its wire format. [`Query::from_json`] inverts
    /// this losslessly: `from_json(to_json()) == self`. `metric` is omitted
    /// for WED and `temporal`/`deadline_ms` when unset, so pre-metric,
    /// untimed query JSON stays byte-identical.
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Decodes and **validates** a wire query — the result went through the
    /// same [`QueryBuilder::build`] checks as a locally built one, so a
    /// deserialized `Query` is as trustworthy as any other. Only `pattern`
    /// and `objective` are required; every other key decodes to the
    /// builder's default when absent.
    pub fn from_json(text: &str) -> Result<Query, QueryError> {
        let mut r = Reader::new(text);
        Query::decode(&mut r)
            .and_then(|query| r.finish().map(|()| query).map_err(QueryError::Parse))
            .map_err(|e| json::check(text).err().map_or(e, QueryError::Parse))
    }

    /// The one query decoder, at the reader's position.
    fn decode(r: &mut Reader<'_>) -> Result<Query, QueryError> {
        let start = r.clone();
        let mut pattern = Slot::new();
        let mut objective = Slot::new();
        let mut verify = Slot::<Option<_>>::new();
        let mut metric = Slot::new();
        let mut temporal = Slot::new();
        let mut temporal_filter = Slot::<Option<_>>::new();
        let mut temporal_postings = Slot::<Option<_>>::new();
        let mut deadline_ms = Slot::new();
        let decoded = r
            .object(|r, key| match key {
                "pattern" => pattern.read(r),
                "objective" => objective.read(r),
                "verify" => verify.read(r),
                "metric" => metric.read(r),
                "temporal" => temporal.read(r),
                "temporal_filter" => temporal_filter.read(r),
                "temporal_postings" => temporal_postings.read(r),
                "deadline_ms" => deadline_ms.read(r),
                _ => r.skip_member(key),
            })
            .and_then(|()| {
                Ok(QueryBuilder {
                    pattern: pattern.take("pattern")?,
                    objective: objective.take("objective")?,
                    verify: verify.take("verify")?.unwrap_or_default(),
                    metric: metric.take("metric")?,
                    temporal: temporal.take("temporal")?,
                    temporal_filter: temporal_filter.take("temporal_filter")?.unwrap_or_default(),
                    temporal_postings: temporal_postings
                        .take("temporal_postings")?
                        .unwrap_or_default(),
                    deadline_ms: deadline_ms.take("deadline_ms")?,
                })
            });
        match decoded {
            Ok(builder) => builder.build(),
            // A threshold token that overflows `f64` (`1e999`) is not a
            // syntax error: report it as the invalid threshold it is.
            Err(msg) => Err(start
                .member("objective")
                .and_then(|objective| Reader::new(objective).member("tau"))
                .and_then(|tau| tau.parse::<f64>().ok())
                .filter(|tau| tau.is_infinite())
                .map_or(QueryError::Parse(msg), QueryError::InvalidTau)),
        }
    }
}

impl Wire for Query {
    fn write_wire(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("pattern", &self.pattern);
        o.field("objective", &self.objective);
        o.field("verify", &self.verify);
        o.field("metric", &self.metric);
        o.field("temporal", &self.temporal);
        o.field("temporal_filter", &self.temporal_filter);
        o.field("temporal_postings", &self.temporal_postings);
        o.field("deadline_ms", &self.deadline_ms);
        o.end();
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        Query::decode(r).map_err(|e| e.to_string())
    }
}

/// Decodes a value written as one of `names`; anything else is an error
/// showing the value, `unknown <what> <value>`.
fn read_name<T: Copy>(r: &mut Reader<'_>, names: &[(&str, T)], what: &str) -> Result<T, String> {
    let at = r.clone();
    let name = r.string()?;
    match names.iter().find(|(n, _)| Some(*n) == name.as_deref()) {
        Some(&(_, value)) => Ok(value),
        None => Err(format!("unknown {what} {}", at.canonical()?)),
    }
}

const VERIFY_MODES: [(&str, VerifyMode); 3] = [
    ("trie", VerifyMode::Trie),
    ("local", VerifyMode::Local),
    ("sw", VerifyMode::Sw),
];

impl Wire for VerifyMode {
    fn write_wire(&self, out: &mut String) {
        let name = VERIFY_MODES.iter().find(|(_, mode)| mode == self);
        write_str(out, name.expect("every mode has a wire name").0);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        read_name(r, &VERIFY_MODES, "verify mode")
    }
}

const TEMPORAL_PREDICATES: [(&str, TemporalPredicate); 2] = [
    ("overlaps", TemporalPredicate::Overlaps),
    ("within", TemporalPredicate::Within),
];

impl Wire for TemporalPredicate {
    fn write_wire(&self, out: &mut String) {
        let name = TEMPORAL_PREDICATES.iter().find(|(_, p)| p == self);
        write_str(out, name.expect("every predicate has a wire name").0);
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        read_name(r, &TEMPORAL_PREDICATES, "temporal predicate")
    }
}

/// `{"predicate":…,"start":…,"end":…}` — the interval's bounds sit inline,
/// and an absent predicate means `overlaps`.
impl Wire for TemporalConstraint {
    fn write_wire(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("predicate", &self.predicate);
        o.field("start", &self.interval.start);
        o.field("end", &self.interval.end);
        o.end();
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut start, mut end) = (Slot::new(), Slot::new());
        let mut predicate = Slot::<Option<_>>::new();
        r.object(|r, key| match key {
            "predicate" => predicate.read(r),
            "start" => start.read(r),
            "end" => end.read(r),
            _ => r.skip_member(key),
        })?;
        Ok(TemporalConstraint {
            // Not `TimeInterval::new`, which asserts the ordering: an
            // unordered wire interval is `build()`'s typed error to report.
            interval: TimeInterval {
                start: start.take("start")?,
                end: end.take("end")?,
            },
            predicate: predicate
                .take("predicate")?
                .unwrap_or(TemporalPredicate::Overlaps),
        })
    }
}

/// Builder for [`Query`]; see [`Query::threshold`] / [`Query::top_k`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    pattern: Vec<Sym>,
    objective: Objective,
    verify: VerifyMode,
    metric: Metric,
    temporal: Option<TemporalConstraint>,
    temporal_filter: bool,
    temporal_postings: bool,
    deadline_ms: Option<u64>,
}

impl QueryBuilder {
    fn new(pattern: Vec<Sym>, objective: Objective) -> Self {
        QueryBuilder {
            pattern,
            objective,
            verify: VerifyMode::default(),
            metric: Metric::default(),
            temporal: None,
            temporal_filter: false,
            temporal_postings: false,
            deadline_ms: None,
        }
    }

    /// Verification strategy (default: the paper's bidirectional tries).
    /// Only WED distinguishes strategies; non-WED metrics verify by one
    /// exact scan per candidate trajectory regardless of this setting.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }

    /// Distance metric the threshold ranges over (default
    /// [`Metric::Wed`]; see [`crate::metric`] for the alternatives and
    /// their filter bounds).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Restricts matched spans to a temporal constraint (§2.3).
    pub fn temporal(mut self, constraint: TemporalConstraint) -> Self {
        self.temporal = Some(constraint);
        self
    }

    /// Applies the TF candidate pre-filter (§4.3) when a temporal
    /// constraint is set.
    pub fn temporal_filter(mut self, on: bool) -> Self {
        self.temporal_filter = on;
        self
    }

    /// Generates candidates by binary search on by-departure-sorted
    /// postings (§4.3). Requires a temporal constraint *and* an engine
    /// whose index was built with temporal postings —
    /// [`run`](crate::SearchEngine::run) rejects it otherwise instead of
    /// silently falling back.
    pub fn temporal_postings(mut self, on: bool) -> Self {
        self.temporal_postings = on;
        self
    }

    /// Latency budget in milliseconds (default: none). Must be at least 1;
    /// see [`Query::deadline_ms`] for when the clock starts and
    /// [`crate::deadline`] for the enforcement points.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Validates and freezes the query.
    pub fn build(self) -> Result<Query, QueryError> {
        if self.pattern.is_empty() {
            return Err(QueryError::EmptyPattern);
        }
        match self.objective {
            Objective::Threshold { tau } => {
                if !(tau.is_finite() && tau > 0.0) {
                    return Err(QueryError::InvalidTau(tau));
                }
            }
            Objective::TopK {
                k,
                initial_tau,
                max_tau,
            } => {
                if k == 0 {
                    return Err(QueryError::InvalidK);
                }
                if !(initial_tau.is_finite()
                    && max_tau.is_finite()
                    && initial_tau > 0.0
                    && initial_tau <= max_tau)
                {
                    return Err(QueryError::InvalidTauRange {
                        initial_tau,
                        max_tau,
                    });
                }
            }
        }
        self.metric.validate()?;
        if let Some(c) = &self.temporal {
            // `TimeInterval`'s fields are public, so an unordered interval
            // can be constructed without `TimeInterval::new`; validate the
            // same `start <= end` invariant `from_json` enforces, keeping
            // the to_json/from_json round-trip total over built queries.
            let (start, end) = (c.interval.start, c.interval.end);
            if !(start.is_finite() && end.is_finite() && start <= end) {
                return Err(QueryError::InvalidTemporalInterval { start, end });
            }
        }
        if self.temporal_postings && self.temporal.is_none() {
            return Err(QueryError::TemporalPostingsWithoutConstraint);
        }
        if self.deadline_ms == Some(0) {
            return Err(QueryError::InvalidDeadline);
        }
        Ok(Query {
            pattern: self.pattern,
            objective: self.objective,
            verify: self.verify,
            metric: self.metric,
            temporal: self.temporal,
            temporal_filter: self.temporal_filter,
            temporal_postings: self.temporal_postings,
            deadline_ms: self.deadline_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_pattern() {
        assert_eq!(
            Query::threshold(Vec::new(), 1.0).build().unwrap_err(),
            QueryError::EmptyPattern
        );
    }

    #[test]
    fn build_rejects_bad_tau() {
        for tau in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Query::threshold(vec![1, 2], tau).build().unwrap_err();
            assert!(matches!(err, QueryError::InvalidTau(_)), "tau={tau}: {err}");
        }
    }

    #[test]
    fn build_rejects_zero_k_and_bad_ranges() {
        assert_eq!(
            Query::top_k(vec![1], 0, 0.5, 2.0).build().unwrap_err(),
            QueryError::InvalidK
        );
        for (lo, hi) in [(0.0, 1.0), (2.0, 1.0), (f64::NAN, 1.0), (0.5, f64::NAN)] {
            let err = Query::top_k(vec![1], 3, lo, hi).build().unwrap_err();
            assert!(
                matches!(err, QueryError::InvalidTauRange { .. }),
                "({lo},{hi}): {err}"
            );
        }
    }

    #[test]
    fn build_rejects_postings_without_constraint() {
        assert_eq!(
            Query::threshold(vec![1], 1.0)
                .temporal_postings(true)
                .build()
                .unwrap_err(),
            QueryError::TemporalPostingsWithoutConstraint
        );
    }

    #[test]
    fn build_rejects_non_finite_interval() {
        let c = TemporalConstraint::overlaps(TimeInterval::new(0.0, f64::INFINITY));
        assert!(matches!(
            Query::threshold(vec![1], 1.0).temporal(c).build(),
            Err(QueryError::InvalidTemporalInterval { .. })
        ));
    }

    #[test]
    fn build_rejects_unordered_interval() {
        // `TimeInterval`'s fields are pub, so `new`'s ordering assert can
        // be bypassed; `build()` must enforce the same `start <= end`
        // invariant `from_json` does, or round-trips would not be total.
        let c = TemporalConstraint::overlaps(TimeInterval {
            start: 5.0,
            end: 1.0,
        });
        assert_eq!(
            Query::threshold(vec![1], 1.0)
                .temporal(c)
                .build()
                .unwrap_err(),
            QueryError::InvalidTemporalInterval {
                start: 5.0,
                end: 1.0
            }
        );
    }

    #[test]
    fn build_rejects_zero_deadline() {
        assert_eq!(
            Query::threshold(vec![1], 1.0)
                .deadline_ms(0)
                .build()
                .unwrap_err(),
            QueryError::InvalidDeadline
        );
        let q = Query::threshold(vec![1], 1.0)
            .deadline_ms(250)
            .build()
            .unwrap();
        assert_eq!(q.deadline_ms(), Some(250));
    }

    #[test]
    fn deadline_round_trips_and_revalidates() {
        let q = Query::threshold(vec![1, 2], 1.0)
            .deadline_ms(1500)
            .build()
            .unwrap();
        let text = q.to_json();
        assert!(text.contains("\"deadline_ms\":1500"));
        assert_eq!(Query::from_json(&text).unwrap(), q);
        // Absent on the wire means no deadline.
        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        assert!(!q.to_json().contains("deadline_ms"));
        assert_eq!(Query::from_json(&q.to_json()).unwrap().deadline_ms(), None);
        // A zero wire deadline is re-validated, not silently accepted.
        let err = Query::from_json(
            r#"{"pattern":[1],"objective":{"type":"threshold","tau":1},"deadline_ms":0}"#,
        )
        .unwrap_err();
        assert_eq!(err, QueryError::InvalidDeadline);
        // Non-integer deadlines are a parse error.
        let err = Query::from_json(
            r#"{"pattern":[1],"objective":{"type":"threshold","tau":1},"deadline_ms":"soon"}"#,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Parse(_)));
    }

    #[test]
    fn json_round_trip_exact() {
        let q = Query::top_k(vec![3, 1, 4, 1, 5], 7, 0.1, 1.0 / 3.0)
            .verify(VerifyMode::Local)
            .temporal(TemporalConstraint::within(TimeInterval::new(-1.5, 9e9)))
            .temporal_filter(true)
            .temporal_postings(true)
            .deadline_ms(2000)
            .build()
            .unwrap();
        let text = q.to_json();
        assert_eq!(Query::from_json(&text).unwrap(), q);
        // Defaults round-trip too (temporal omitted entirely).
        let q = Query::threshold(vec![0], 2.5).build().unwrap();
        let text = q.to_json();
        assert!(!text.contains("temporal\":{"));
        assert_eq!(Query::from_json(&text).unwrap(), q);
    }

    #[test]
    fn from_json_revalidates() {
        // Structurally valid JSON, semantically invalid query.
        let err = Query::from_json(r#"{"pattern":[],"objective":{"type":"threshold","tau":1}}"#)
            .unwrap_err();
        assert_eq!(err, QueryError::EmptyPattern);
        let err = Query::from_json(
            r#"{"pattern":[1],"objective":{"type":"top_k","k":0,"initial_tau":1,"max_tau":2}}"#,
        )
        .unwrap_err();
        assert_eq!(err, QueryError::InvalidK);
    }

    #[test]
    fn from_json_rejects_malformed() {
        for bad in [
            "",
            "{}",
            r#"{"pattern":[1]}"#,
            r#"{"pattern":[1],"objective":{"type":"nope"}}"#,
            r#"{"pattern":["x"],"objective":{"type":"threshold","tau":1}}"#,
            r#"{"pattern":[1],"objective":{"type":"threshold","tau":1},"verify":"fast"}"#,
        ] {
            assert!(
                matches!(Query::from_json(bad), Err(QueryError::Parse(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn metric_round_trips_and_wed_stays_byte_identical() {
        // WED queries never carry a "metric" key — pre-metric peers keep
        // decoding them, and pre-metric wire bytes keep decoding here.
        let q = Query::threshold(vec![1, 2], 1.5).build().unwrap();
        assert!(!q.to_json().contains("metric"));
        assert_eq!(
            Query::from_json(&q.to_json()).unwrap().metric(),
            Metric::Wed
        );

        for metric in [Metric::Dtw, Metric::Frechet, Metric::Lcss { eps: 0.25 }] {
            let q = Query::threshold(vec![1, 2], 1.5)
                .metric(metric)
                .build()
                .unwrap();
            let text = q.to_json();
            assert!(text.contains("\"metric\":{\"name\":"), "{text}");
            assert_eq!(Query::from_json(&text).unwrap(), q);
        }
    }

    #[test]
    fn metric_wire_errors_are_typed() {
        let base = r#""objective":{"type":"threshold","tau":1}"#;
        let err = Query::from_json(&format!(
            r#"{{"pattern":[1],{base},"metric":{{"name":"hausdorff"}}}}"#
        ))
        .unwrap_err();
        assert!(matches!(err, QueryError::Parse(_)));
        // A wire eps is re-validated like a builder eps.
        let err = Query::from_json(&format!(
            r#"{{"pattern":[1],{base},"metric":{{"name":"lcss","eps":-1}}}}"#
        ))
        .unwrap_err();
        assert_eq!(err, QueryError::InvalidEps(-1.0));
        let err = Query::threshold(vec![1], 1.0)
            .metric(Metric::Lcss { eps: f64::NAN })
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidEps(eps) if eps.is_nan()));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = QueryError::InvalidTau(f64::NAN);
        assert!(e.to_string().contains("finite and positive"));
        let e = QueryError::TemporalPostingsUnavailable;
        assert!(e.to_string().contains("by-departure"));
    }
}
