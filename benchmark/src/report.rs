//! Metric definitions, the printed table, the result file, and
//! `compare`.
//!
//! The metric tables here are the binary's copy of `BENCHMARK.json`
//! (names, units, directions, bounds); `tests/benchmark_smoke.rs` fails
//! when the two disagree.

use crate::layers::Profile;
use crate::stats::{Host, Summary};
use crate::workloads::EndToEnd;
use serde::Value;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricSpec; 4] = [
    end_to_end("servers_per_s", "1/s", Higher, 0.25),
    end_to_end("cpu_s_per_rep", "s", Lower, 0.25),
    end_to_end("identified_accuracy", "ratio", Higher, 0.25),
    end_to_end("setup_s", "s", Lower, 0.25),
];

/// Failed ÷ attempted operations of a workload's timed repetitions. Kept
/// out of [`END_TO_END`] because the driver takes no metric that reads 0;
/// there it is the `failed` and `attempted` of the result line. A result
/// file carries it beside the end-to-end metrics, and [`compare`] lets it
/// rise by nothing.
pub const FAILED_SHARE: MetricSpec = end_to_end("failed_share", "ratio", Lower, 0.0);

/// Metrics that repeat exactly for a seed. [`compare`], which takes two
/// files of one seed, lets them worsen by nothing, whatever bound the
/// driver (which sets them against the spread over ten seeds) is given.
pub const REPEATS_EXACTLY: [&str; 2] = ["identified_accuracy", FAILED_SHARE.name];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: [MetricSpec; 59] = [
    layer("congestion.ack_ns.RENO", "ns", Lower),
    layer("congestion.ack_ns.CUBIC_v2", "ns", Lower),
    layer("congestion.ack_ns_max", "ns", Lower),
    layer("tcpsim.round_us", "us", Lower),
    layer("tcpsim.segments_per_s", "1/s", Higher),
    layer("webmodel.generate_us_per_server", "us", Lower),
    layer("netem.condition_sample_ns", "ns", Lower),
    layer("core.training_set_s", "s", Lower),
    layer("core.probe_us_mean", "us", Lower),
    layer("core.probe_us_p50", "us", Lower),
    layer("core.probe_us_p99", "us", Lower),
    layer("core.gather_us_mean", "us", Lower),
    layer("core.verdict_us_mean", "us", Lower),
    layer("core.extract_ns", "ns", Lower),
    layer("core.gather_us.RENO", "us", Lower),
    layer("core.gather_us.CUBIC_v2", "us", Lower),
    layer("core.valid_share", "ratio", Higher),
    layer("core.rungs_per_probe", "count", Lower),
    layer("ml.forest_fit_s", "s", Lower),
    layer("ml.classify_ns", "ns", Lower),
    layer("engine.overhead_share", "ratio", Lower),
    layer("engine.null_transport_records_per_s", "1/s", Higher),
    layer("engine.sink_emit_us", "us", Lower),
    layer("engine.sink_bytes_per_record", "B", Lower),
    layer("engine.checkpoint_save_ms", "ms", Lower),
    layer("engine.speedup_w2", "ratio", Higher),
    layer("capture.reader_ns_per_packet", "ns", Lower),
    layer("capture.decode_ns_per_packet", "ns", Lower),
    layer("capture.reassemble_ns_per_packet", "ns", Lower),
    layer("capture.identify_us_per_session", "us", Lower),
    layer("capture.reassembly_rss_mb", "MB", Lower),
    layer("capture.render_mb_per_s", "MB/s", Higher),
    layer("capture.offline_mb_per_s", "MB/s", Higher),
    layer("stream.source_ns_per_frame", "ns", Lower),
    layer("stream.pcapng_source_ns_per_frame", "ns", Lower),
    layer("stream.follow_mb_per_s", "MB/s", Higher),
    layer("stream.offline_ratio", "ratio", Lower),
    layer("stream.speedup_w2", "ratio", Higher),
    layer("stream.peak_live_flows", "count", Lower),
    layer("net.frame_codec_ns", "ns", Lower),
    layer("net.core_probe_us", "us", Lower),
    layer("net.probe_ms_p50", "ms", Lower),
    layer("net.probe_ms_p99", "ms", Lower),
    layer("net.io_share", "ratio", Lower),
    layer("net.speedup_s2", "ratio", Higher),
    layer("net.connections_per_probe", "count", Lower),
    layer("net.retries", "count", Lower),
    layer("net.timeouts", "count", Lower),
    layer("mem.peak_rss_mb.census_sim", "MB", Lower),
    layer("mem.peak_rss_mb.census_live", "MB", Lower),
    layer("mem.peak_rss_mb.identify_offline", "MB", Lower),
    layer("mem.peak_rss_mb.identify_follow", "MB", Lower),
    layer("obs.trace_overhead_share.census_sim", "ratio", Lower),
    layer("obs.trace_overhead_share.census_live", "ratio", Lower),
    layer("obs.trace_overhead_share.identify_offline", "ratio", Lower),
    layer("obs.trace_overhead_share.identify_follow", "ratio", Lower),
    layer("span.gather_share", "ratio", Higher),
    layer("span.queue_wait_share", "ratio", Lower),
    layer("span.reactor_tick_share", "ratio", Lower),
];

/// One workload's end-to-end metrics, in [`END_TO_END`] order.
pub fn end_to_end_values(run: &EndToEnd) -> [Summary; 4] {
    let accuracy = Summary {
        n: run.walls.len(),
        ..Summary::single(run.identified_accuracy())
    };
    [
        run.servers_per_s(),
        run.cpu_s_per_rep,
        accuracy,
        run.setup_s,
    ]
}

/// One traced run's per-layer metrics, in [`PER_LAYER`] order.
pub fn per_layer_values(profile: &Profile) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|spec| {
            *profile
                .rows
                .get(spec.name)
                .unwrap_or_else(|| panic!("the traced pass did not take {}", spec.name))
        })
        .collect()
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn metric_value(spec: &MetricSpec, summary: &Summary) -> Value {
    let mut entries = vec![
        ("unit", text(spec.unit)),
        ("better", text(spec.better.name())),
        ("n", Value::U64(summary.n as u64)),
        ("median", Value::F64(summary.median)),
        ("q1", Value::F64(summary.q1)),
        ("q3", Value::F64(summary.q3)),
        ("min", Value::F64(summary.min)),
        ("max", Value::F64(summary.max)),
    ];
    if let Some(bound) = spec.bound {
        entries.push(("bound", Value::F64(bound)));
    }
    map(entries)
}

/// A per-layer row: taken once per traced run, so one value.
fn layer_value(spec: &MetricSpec, value: f64) -> Value {
    map(vec![
        ("unit", text(spec.unit)),
        ("better", text(spec.better.name())),
        ("value", Value::F64(value)),
    ])
}

fn check_entries(correct: bool, attempted: u64, failed: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
    ]
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric as measured.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (MetricSpec, f64)>,
) -> String {
    let metrics = metrics
        .map(|(spec, value)| {
            let entry = map(vec![
                ("value", Value::F64(value)),
                ("unit", text(spec.unit)),
            ]);
            (spec.name.to_owned(), entry)
        })
        .collect();
    let mut entries = check_entries(correct, attempted, failed);
    entries.push(("metrics", Value::Map(metrics)));
    serde_json::to_string(&map(entries)).expect("a value tree serializes")
}

/// One workload's entry in a result file.
pub fn end_to_end_detail(run: &EndToEnd) -> Value {
    let shape = run
        .shape
        .iter()
        .map(|(key, value)| (*key, Value::U64(*value)))
        .chain([("repetitions", Value::U64(run.walls.len() as u64))])
        .collect();
    let failed_share = Summary {
        n: run.walls.len(),
        ..Summary::single(run.score.failed as f64 / run.score.attempted.max(1) as f64)
    };
    let metrics = END_TO_END
        .iter()
        .zip(end_to_end_values(run))
        .chain([(&FAILED_SHARE, failed_share)])
        .map(|(spec, summary)| (spec.name, metric_value(spec, &summary)))
        .collect();
    let mut entries = vec![("name", text(run.workload)), ("shape", map(shape))];
    entries.extend(check_entries(
        run.correct(),
        run.score.attempted,
        run.score.failed,
    ));
    // Not an end-to-end metric (see the README), but worth a look.
    entries.push(("peak_rss_mb", Value::F64(run.peak_rss_mb)));
    entries.push((
        "repetition_wall_s",
        Value::Seq(run.walls.iter().map(|wall| Value::F64(*wall)).collect()),
    ));
    entries.push(("end_to_end", map(metrics)));
    map(entries)
}

/// The traced pass's entry in a result file.
pub fn per_layer_detail(profile: &Profile) -> Value {
    let metrics = PER_LAYER
        .iter()
        .zip(per_layer_values(profile))
        .map(|(spec, value)| (spec.name.to_owned(), layer_value(spec, value)))
        .collect();
    let mut entries = check_entries(
        profile.score.failed == 0,
        profile.score.attempted,
        profile.score.failed,
    );
    entries.push((
        "congestion.ack_ns_max.algorithm",
        text(profile.slowest_ack.name()),
    ));
    entries.push(("core_sum_gap", Value::F64(profile.core_sum_gap)));
    entries.push(("core_sum_holds", Value::Bool(profile.core_sum_holds())));
    entries.push(("per_layer", Value::Map(metrics)));
    map(entries)
}

/// A whole result file.
pub fn result_file(
    host: &Host,
    seed: u64,
    seconds: f64,
    scale: &str,
    workloads: Vec<Value>,
    traced: Value,
) -> Value {
    let host = map(vec![
        ("nproc", Value::U64(host.nproc as u64)),
        ("cpu_model", text(&host.cpu_model)),
        ("git_rev", text(&host.git_rev)),
        ("git_dirty", Value::Bool(host.git_dirty)),
        ("rustc", text(&host.rustc)),
        ("profile", text(host.profile)),
    ]);
    map(vec![
        ("schema", text("caai-benchmark-v1")),
        ("host", host),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("scale", text(scale)),
        ("workloads", Value::Seq(workloads)),
        ("traced", traced),
    ])
}

/// The entry `name` of a JSON object.
pub fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    serde::get_field(value.as_map()?, name)
}

/// A JSON number of any kind.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Renders the table of one record's metric map: `end_to_end` rows with
/// their sample count and summary, `per_layer` rows with their value.
pub fn render_metrics(title: &str, metrics: &Value) -> String {
    let mut out = format!("{title:<44} {:>6} {:>7}", "unit", "better");
    let rows = metrics.as_map().unwrap_or_default();
    let summarized = rows.iter().any(|(_, row)| field(row, "median").is_some());
    let columns: &[&str] = if summarized {
        &["n", "median", "q1", "q3", "min", "max"]
    } else {
        &["value"]
    };
    for column in columns {
        let _ = write!(out, " {column:>15}");
    }
    out.push('\n');
    for (name, row) in rows {
        let word = |key| field(row, key).and_then(Value::as_str).unwrap_or("?");
        let _ = write!(
            out,
            "  {name:<42} {:>6} {:>7}",
            word("unit"),
            word("better")
        );
        for column in columns {
            let cell = field(row, column).and_then(number).unwrap_or(f64::NAN);
            let decimals = if *column == "n" { 0 } else { 6 };
            let _ = write!(out, " {cell:>15.decimals$}");
        }
        out.push('\n');
    }
    out
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median in the first file.
    pub before: f64,
    /// Median in the second file.
    pub after: f64,
    /// How much worse the second median is (negative when it is better):
    /// as a share of the first, or, for the [`REPEATS_EXACTLY`] ratios,
    /// as the plain difference.
    pub worse_by: f64,
    /// The metric's bound; 0 for the [`REPEATS_EXACTLY`] metrics.
    pub bound: f64,
}

impl Comparison {
    /// Whether the second file is worse by more than the bound.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compares two result files of the same seed and scale: per workload
/// and metric, how much worse the second median is, against the
/// metric's bound. The error names what makes the files incomparable
/// (another seed or scale, a workload or metric missing from one).
pub fn compare(before: &Value, after: &Value) -> Result<Vec<Comparison>, String> {
    for key in ["seed", "scale"] {
        let show = |file| {
            field(file, key).map_or("none".to_owned(), |value| {
                serde_json::to_string(value).expect("a value tree serializes")
            })
        };
        if field(before, key) != field(after, key) {
            return Err(format!(
                "`{key}` is {} in the first file and {} in the second: not the same inputs",
                show(before),
                show(after)
            ));
        }
    }
    let workloads = |file: &'_ Value| -> Result<Vec<Value>, String> {
        field(file, "workloads")
            .and_then(Value::as_seq)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "no `workloads` array: not a caai-benchmark result file".to_owned())
    };
    let after_workloads = workloads(after)?;
    let mut rows = Vec::new();
    for old in workloads(before)? {
        let name = field(&old, "name").and_then(Value::as_str).unwrap_or("?");
        let new = after_workloads
            .iter()
            .find(|w| field(w, "name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        let old_metrics = field(&old, "end_to_end").and_then(Value::as_map);
        for (metric, old_entry) in old_metrics.unwrap_or_default() {
            let read = |entry: &Value, key: &str| {
                field(entry, key)
                    .and_then(number)
                    .ok_or_else(|| format!("{name}.{metric} has no `{key}`"))
            };
            let new_entry = field(new, "end_to_end")
                .and_then(|m| field(m, metric))
                .ok_or_else(|| format!("{name}.{metric} is missing from the second file"))?;
            let better = field(old_entry, "better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}.{metric} has no direction"))?;
            let (before, after) = (read(old_entry, "median")?, read(new_entry, "median")?);
            let exact = REPEATS_EXACTLY.contains(&metric.as_str());
            let change = if exact {
                after - before
            } else {
                (after - before) / before.abs().max(f64::MIN_POSITIVE)
            };
            rows.push(Comparison {
                workload: name.to_owned(),
                metric: metric.clone(),
                before,
                after,
                worse_by: match better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                bound: if exact {
                    0.0
                } else {
                    read(old_entry, "bound")?
                },
            });
        }
    }
    Ok(rows)
}

/// Renders a comparison, one row per workload and metric.
pub fn render_comparison(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
            row.workload,
            row.metric,
            row.before,
            row.after,
            row.worse_by * 100.0 + 0.0, // no "-0.00"
            row.bound * 100.0,
            if row.regressed() { "WORSE" } else { "ok" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file of seed 1 with one workload that attempted 100
    /// operations.
    fn file(servers_per_s: f64, setup_s: f64, accuracy: f64, failed: u64) -> Value {
        let metric = |spec: &MetricSpec, median: f64| {
            (spec.name, metric_value(spec, &Summary::single(median)))
        };
        let mut workload = vec![("name", text("census_sim"))];
        workload.extend(check_entries(failed == 0, 100, failed));
        workload.push((
            "end_to_end",
            map(vec![
                metric(&END_TO_END[0], servers_per_s),
                metric(&END_TO_END[3], setup_s),
                metric(&END_TO_END[2], accuracy),
                metric(&FAILED_SHARE, failed as f64 / 100.0),
            ]),
        ));
        map(vec![
            ("seed", Value::U64(1)),
            ("scale", text("full")),
            ("workloads", Value::Seq(vec![map(workload)])),
        ])
    }

    #[test]
    fn compare_is_direction_aware_and_bounded() {
        let rows = compare(&file(1000.0, 1.0, 0.9, 0), &file(950.0, 1.2, 0.9, 0)).unwrap();
        assert_eq!(rows.len(), 4);
        // 5 % fewer servers per second: worse, but inside the bound.
        assert!((rows[0].worse_by - 0.05).abs() < 1e-12 && !rows[0].regressed());
        // 20 % slower set-up: inside the bound too.
        assert!((rows[1].worse_by - 0.2).abs() < 1e-12 && !rows[1].regressed());
        assert!(!rows[2].regressed() && !rows[3].regressed());

        let rows = compare(&file(1000.0, 1.0, 0.9, 0), &file(700.0, 0.5, 0.9, 0)).unwrap();
        assert!(rows[0].regressed(), "30 % fewer servers per second");
        assert!(rows[1].worse_by < 0.0, "a faster set-up is not worse");
        assert!(render_comparison(&rows).contains("WORSE"));
    }

    #[test]
    fn compare_lets_what_repeats_exactly_worsen_by_nothing() {
        let first = file(1000.0, 1.0, 0.9, 0);
        // One identification in a thousand lost: far inside the driver's
        // bound for accuracy, and still a change of verdicts.
        let rows = compare(&first, &file(1000.0, 1.0, 0.899, 0)).unwrap();
        assert!(rows[2].regressed() && rows[2].bound == 0.0, "{rows:?}");
        assert!(!rows[3].regressed());
        let rows = compare(&first, &file(1000.0, 1.0, 0.95, 0)).unwrap();
        assert!(!rows[2].regressed(), "better accuracy is not worse");
        // One failed operation in a hundred, up from none.
        let rows = compare(&first, &file(1000.0, 1.0, 0.9, 1)).unwrap();
        assert!(rows[3].regressed() && (rows[3].worse_by - 0.01).abs() < 1e-12);
    }

    #[test]
    fn compare_refuses_files_that_are_not_comparable() {
        let first = file(1000.0, 1.0, 0.9, 0);
        let with = |key: &str, value: Value| {
            let mut entries = first.as_map().expect("a map").to_vec();
            entries.retain(|(name, _)| name != key);
            entries.push((key.to_owned(), value));
            Value::Map(entries)
        };
        assert!(compare(&first, &with("seed", Value::U64(2))).is_err());
        assert!(compare(&first, &with("scale", text("smoke"))).is_err());
        let empty = with("workloads", Value::Seq(Vec::new()));
        assert!(compare(&first, &empty).is_err(), "a workload is missing");
        assert!(compare(&empty, &first).unwrap().is_empty());
        assert!(compare(&first, &Value::Null).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16, "{spec:?}");
            // The driver sets a bound against the spread over ten seeds,
            // so even what repeats exactly for one seed needs room there.
            assert!(spec.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{spec:?}");
        }
    }
}
