//! The benchmark's own spans: recorded from outside the crates, around the
//! calls into each layer's public functions. Kept in memory during the run
//! and written as JSONL when it ends.
//!
//! One [`Recorder`] belongs to one caller thread, so spans of a recorder
//! nest strictly and a span's self time is its duration minus its
//! children's.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the root span the harness opens around every operation.
pub const OP: &str = "op";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Operation id: `pass * ops_per_pass + op`, shared by every span of
    /// one operation.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    lane: usize,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// All recorders of a run share `epoch`, so their clocks line up.
    pub fn new(epoch: Instant, lane: usize) -> Recorder {
        Recorder {
            epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`; spans `f` records become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }
}

/// Runs `f` inside a span when there is a recorder, bare when there is
/// none: one body serves the traced and the untraced pass.
pub fn in_span<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, |_| f()),
        None => f(),
    }
}

/// Mean duration in microseconds of the spans called `name` across
/// `recorders`; zero when there is none.
pub fn mean_us(recorders: &[Recorder], name: &str) -> f64 {
    let (ns, n) = recorders
        .iter()
        .map(|r| r.total(name))
        .fold((0, 0), |(a, b), (ns, n)| (a + ns, b + n));
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

/// Operation time not covered by any child span, as a share of operation
/// time: the ledger's residual.
pub fn residual_ratio(recorders: &[Recorder]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for r in recorders {
        for (s, self_ns) in r.spans.iter().zip(r.self_ns()) {
            if s.name == OP {
                own += self_ns;
                total += s.dur_ns();
            }
        }
    }
    own as f64 / total.max(1) as f64
}

/// One JSON object per span: `name`, `lane`, `id` and `parent` (indices
/// within the lane), `op`, `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, recorders: &[Recorder]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for r in recorders {
        for (id, (s, self_ns)) in r.spans.iter().zip(r.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"lane\":{},\"id\":{id},\"parent\":{parent},\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, r.lane, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
