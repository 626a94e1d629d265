//! Spans recorded by the traced pass, kept in memory and written as
//! JSON lines when the workload ends.
//!
//! Every operation of the closed loop is one `op` span. Its children
//! come from two places the benchmark can reach without touching the
//! engine: stage durations the engine already returns in
//! `QueryMetrics` (`source: "metrics"`; only the duration is measured,
//! so they are laid end to end from the op's start), and replays of a
//! public call on the same input (`source: "replay"`: parse, logical
//! plan, physical plan, delta apply). A span's self time is what its
//! children do not cover.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Where a span's duration was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed around the call itself.
    Timed,
    /// A stage duration reported by the engine for this very call.
    Metrics,
    /// Timed around a second call with the same input.
    Replay,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Timed => "timed",
            Source::Metrics => "metrics",
            Source::Replay => "replay",
        }
    }
}

/// One recorded span. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    /// Id of the span that caused this one; `None` for the op itself.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub source: Source,
}

/// A span's duration minus the part of it its children cover, and the
/// amount by which the children overran it (children are measured
/// separately, so their sum can exceed the parent by timer noise; the
/// overrun is reported, never folded into a negative self time).
pub fn self_time_ns(span_ns: u64, children_ns: &[u64]) -> (u64, u64) {
    let covered: u64 = children_ns.iter().sum();
    (
        span_ns.saturating_sub(covered),
        covered.saturating_sub(span_ns),
    )
}

/// In-memory span store for one workload.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    next_op: u32,
}

impl Recorder {
    /// Records an op span with its children (`(name, duration, source)`)
    /// and returns the op's self time and overrun.
    pub fn record_op(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        children: &[(&'static str, u64, Source)],
    ) -> (u64, u64) {
        let op = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            op,
            id: 0,
            parent: None,
            name,
            start_ns,
            end_ns,
            source: Source::Timed,
        });
        let mut at = start_ns;
        for (i, &(child, dur, source)) in children.iter().enumerate() {
            self.spans.push(Span {
                op,
                id: i as u32 + 1,
                parent: Some(0),
                name: child,
                start_ns: at,
                end_ns: at + dur,
                source,
            });
            at += dur;
        }
        let durations: Vec<u64> = children.iter().map(|c| c.1).collect();
        self_time_ns(end_ns - start_ns, &durations)
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"source\":\"{}\"}}",
                s.op,
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.source.label()
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_time_ns(100, &[30, 20]), (50, 0));
        assert_eq!(self_time_ns(100, &[]), (100, 0));
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_time_ns(100, &[70, 45]), (0, 15));
    }

    #[test]
    fn recorder_lays_children_inside_their_op() {
        let mut r = Recorder::default();
        let (own, over) = r.record_op(
            "op.query",
            1_000,
            2_000,
            &[
                ("sql.parse", 100, Source::Replay),
                ("er.kernel.resolution", 600, Source::Metrics),
            ],
        );
        assert_eq!((own, over), (300, 0));
        r.record_op("op.write", 2_000, 2_500, &[]);
        assert_eq!(r.spans.len(), 4);
        let s = &r.spans;
        assert_eq!(
            (s[1].op, s[1].parent, s[1].start_ns, s[1].end_ns),
            (0, Some(0), 1_000, 1_100)
        );
        assert_eq!((s[2].start_ns, s[2].end_ns), (1_100, 1_700));
        assert_eq!((s[3].op, s[3].parent), (1, None));
    }
}
