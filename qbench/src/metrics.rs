//! The benchmark's metrics by name: what `BENCHMARK.json` lists, what a
//! run prints, and the one-line JSON result a run ends with.

use std::fmt::Write as _;

/// A metric's name and unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the engine sees; reported by an untraced run.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s"),
    def("query_p50_ms", "ms"),
    def("query_p95_ms", "ms"),
    def("queries_per_s", "1/s"),
    def("ingest_p50_ms", "ms"),
    def("ingest_p95_ms", "ms"),
    def("peak_rss_mb", "MiB"),
];

/// Single layers, named after this repository's modules; reported by a
/// traced run. A `_ms` metric is a total over the traced operations, a
/// `_share` its part of their summed span, a `.count` a sum over the
/// first pass that must repeat exactly for a seed.
pub const PER_LAYER: [MetricDef; 64] = [
    def("datagen.generate_ms", "ms"),
    def("core.engine.register_ms", "ms"),
    def("core.planner.table_stats_ms", "ms"),
    def("er.index.build_ms", "ms"),
    def("er.index.blocks.count", "count"),
    def("er.index.unpurged_blocks.count", "count"),
    def("er.index.total_comparisons.count", "count"),
    def("er.index.rss_mb", "MiB"),
    def("er.index.bytes_per_record", "B"),
    def("er.edge_pruning.bulk_thresholds_ms", "ms"),
    def("er.snapshot.write_ms", "ms"),
    def("er.snapshot.open_ms", "ms"),
    def("er.snapshot.file_mb", "MiB"),
    def("sql.parse_us", "us"),
    def("sql.parse_share", "share"),
    def("sql.logical_plan_us", "us"),
    def("sql.logical_plan_share", "share"),
    def("core.planner.physical_plan_us", "us"),
    def("core.planner.physical_plan_share", "share"),
    def("core.planner.estimate_ratio", "ratio"),
    def("core.operators.scan_filter_project_ms", "ms"),
    def("core.operators.scan_filter_project_share", "share"),
    def("core.operators.plain_sql_ms", "ms"),
    def("core.operators.group_entities_ms", "ms"),
    def("core.operators.group_entities_share", "share"),
    def("core.operators.join_ms", "ms"),
    def("core.operators.join_share", "share"),
    def("core.operators.rows_out.count", "count"),
    def("core.operators.qe_entities.count", "count"),
    def("core.operators.dr_entities.count", "count"),
    def("er.resolver.total_ms", "ms"),
    def("er.resolver.total_share", "share"),
    def("er.blocking.query_blocking_ms", "ms"),
    def("er.blocking.query_blocking_share", "share"),
    def("er.edge_pruning.ms", "ms"),
    def("er.edge_pruning.share", "share"),
    def("er.edge_pruning.candidate_pairs.count", "count"),
    def("er.kernel.resolution_ms", "ms"),
    def("er.kernel.resolution_share", "share"),
    def("er.kernel.ns_per_comparison", "ns"),
    def("er.kernel.comparisons.count", "count"),
    def("er.kernel.matches.count", "count"),
    def("er.cache.ep_hit_ratio", "ratio"),
    def("er.cache.decision_hit_ratio", "ratio"),
    def("er.cache.entries.count", "count"),
    def("er.link_index.served_ratio", "ratio"),
    def("er.link_index.links.count", "count"),
    def("er.link_index.resolved.count", "count"),
    def("er.link_index.lock_wait_ms", "ms"),
    def("er.delta.apply_ms", "ms"),
    def("er.delta.apply_share", "share"),
    def("er.delta.compact_ms", "ms"),
    def("er.delta.affected_ids.count", "count"),
    def("er.delta.affected_all.count", "count"),
    def("er.delta.pending_ops.count", "count"),
    def("core.engine.ingest_overhead_ms", "ms"),
    def("core.engine.ingest_overhead_share", "share"),
    def("core.engine.write_time_share", "share"),
    def("host.calib_ms", "ms"),
    def("host.calib_drift", "share"),
    def("alloc.count_per_query", "count"),
    def("alloc.bytes_per_query", "B"),
    def("trace.overhead_share", "share"),
    def("trace.overrun_share", "share"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// One measured value of a registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Sample {
    /// Panics on a name the registry does not hold: every metric a run
    /// prints must be one `BENCHMARK.json` can list.
    pub fn new(name: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            // JSON has no NaN or infinity; a degenerate ratio reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit_of(name).to_string(),
        }
    }
}

/// What a run ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Sample>,
}

impl RunResult {
    /// The one-line JSON object a run prints last. Values keep every
    /// digit `f64` formatting gives them.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Reads back a line [`RunResult::to_json_line`] wrote (the `--all`
    /// parent reads its children's results this way; it is not a
    /// general JSON parser).
    pub fn from_json_line(line: &str) -> Option<Self> {
        fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
            Some(&s[s.find(key)? + key.len()..])
        }
        fn until<'a>(s: &'a str, ends: &[char]) -> &'a str {
            &s[..s.find(ends).unwrap_or(s.len())]
        }
        let correct = until(after(line, "\"correct\": ")?, &[',']).parse().ok()?;
        let attempted = until(after(line, "\"attempted\": ")?, &[','])
            .parse()
            .ok()?;
        let failed = until(after(line, "\"failed\": ")?, &[',']).parse().ok()?;
        let mut rest = after(line, "\"metrics\": {")?;
        let mut metrics = Vec::new();
        while let Some(at) = rest.find("\": {\"value\": ") {
            let name = &rest[rest[..at].rfind('"')? + 1..at];
            let tail = &rest[at + "\": {\"value\": ".len()..];
            let value = until(tail, &[',']).parse().ok()?;
            let unit = until(after(tail, "\"unit\": \"")?, &['"']);
            metrics.push(Sample {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            });
            rest = after(tail, "}")?;
        }
        Some(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1464,
            failed: 0,
            metrics: vec![
                Sample::new("query_p50_ms", 1.203_456_789_012),
                Sample::new("queries_per_s", 6.5e-7),
                Sample::new("er.kernel.comparisons.count", 21384.0),
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1464, \"failed\": 0,"));
        assert_eq!(RunResult::from_json_line(&line), Some(r));
        assert_eq!(RunResult::from_json_line("not a result"), None);
    }

    #[test]
    fn non_finite_values_read_zero() {
        assert_eq!(Sample::new("er.cache.ep_hit_ratio", f64::NAN).value, 0.0);
    }

    /// `BENCHMARK.json` is what the driver trusts; it must list exactly
    /// the metrics and workloads the binary knows.
    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let from = json.find(&format!("\"{key}\"")).expect(key);
            let to = json[from..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |t| from + t);
            &json[from..to]
        };
        let names_in = |s: &str| s.matches("\"name\"").count();
        let e2e = section("end_to_end", "per_layer");
        for d in &END_TO_END {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(e2e.contains(&entry), "end_to_end lacks {entry}");
        }
        assert_eq!(names_in(e2e), END_TO_END.len());
        let layers = section("per_layer", "\u{0}");
        for d in &PER_LAYER {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(layers.contains(&entry), "per_layer lacks {entry}");
        }
        assert_eq!(names_in(layers), PER_LAYER.len());
        let workloads = section("workloads", "end_to_end");
        for w in crate::stream::Workload::ALL {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name(), w.why());
            assert!(workloads.contains(&entry), "workloads lacks {entry}");
        }
        assert_eq!(names_in(workloads), crate::stream::Workload::ALL.len());
    }
}
