//! Offline trace analysis: the engine behind `caai trace-report`.
//!
//! Reads a Chrome trace-event JSON file (as written by
//! [`TraceSubscriber`](crate::TraceSubscriber), but tolerant of
//! anything shaped like the format) and computes per-stage self-time
//! attribution: where the wall clock actually went, stage by stage,
//! with p50/p95/p99 per stage, the gather breakdown by rung and round,
//! reactor tick vs session time for live probing, and a slow-outlier
//! table naming the worst server ids.
//!
//! The reader is a *salvage* parser, same contract as the capture
//! parsers: a file truncated by SIGKILL, a record mangled by a proxy,
//! or outright hostile bytes are skipped and reported, never panicked
//! on. The fuzz harness (`caai-fuzz`, target `trace-report`) holds it
//! to that.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::span::SpanKind;
use serde::{get_field, Value};

/// One reconstructed span (a complete `"X"` event or a matched
/// `"b"`/`"e"` pair).
#[derive(Debug, Clone)]
pub struct RawSpan {
    /// Span id (0 when the event carried none).
    pub id: u64,
    /// Parent span id (0 = root / unknown).
    pub parent: u64,
    /// The event's `name` field, verbatim.
    pub name: String,
    /// The name resolved to a known [`SpanKind`], when it is one.
    pub kind: Option<SpanKind>,
    /// Track (thread) id.
    pub tid: u32,
    /// Begin timestamp, microseconds.
    pub ts_us: f64,
    /// Wall duration, microseconds (clamped to `>= 0`).
    pub dur_us: f64,
    /// Kind-specific numeric args, `(name, value)`, parent excluded.
    pub args: Vec<(String, f64)>,
}

impl RawSpan {
    /// Looks up a numeric arg by name.
    pub fn arg(&self, name: &str) -> Option<f64> {
        self.args.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What a read pass recovered from a trace file.
#[derive(Debug, Default)]
pub struct TraceReadOutcome {
    /// Every span successfully reconstructed.
    pub spans: Vec<RawSpan>,
    /// Lines that looked like events but could not be used.
    pub skipped: u64,
    /// The first skip's diagnostic, for the report header.
    pub first_error: Option<String>,
    /// Async begins with no matching end (open at truncation).
    pub unmatched_begins: u64,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// The `id` field may be a decimal string (ours) or a bare number.
fn event_id(map: &[(String, Value)]) -> u64 {
    match get_field(map, "id") {
        Some(Value::Str(s)) => s.trim_start_matches("0x").parse().unwrap_or(0),
        Some(v) => as_f64(v).map(|f| f.max(0.0) as u64).unwrap_or(0),
        None => 0,
    }
}

fn numeric_args(map: &[(String, Value)]) -> (u64, Vec<(String, f64)>) {
    let mut parent = 0u64;
    let mut args = Vec::new();
    if let Some(a) = get_field(map, "args").and_then(Value::as_map) {
        for (k, v) in a {
            let Some(n) = as_f64(v) else { continue };
            if k == "parent" {
                parent = n.max(0.0) as u64;
            } else {
                args.push((k.clone(), n));
            }
        }
    }
    (parent, args)
}

/// Parses trace-event JSON text, salvage-style: each event line stands
/// alone, malformed ones are skipped and counted, truncation is fine.
pub fn read_str(text: &str) -> TraceReadOutcome {
    let mut out = TraceReadOutcome::default();
    // Open async ("b") events waiting for their "e", keyed by id.
    let mut open: HashMap<u64, RawSpan> = HashMap::new();
    let skip = |out: &mut TraceReadOutcome, lineno: usize, why: String| {
        out.skipped += 1;
        if out.first_error.is_none() {
            out.first_error = Some(format!("line {lineno}: {why}"));
        }
    };
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut line = line.trim();
        // Structural punctuation from the array framing.
        while let Some(rest) = line.strip_prefix('[').or_else(|| line.strip_prefix(',')) {
            line = rest.trim_start();
        }
        while let Some(rest) = line.strip_suffix(']').or_else(|| line.strip_suffix(',')) {
            line = rest.trim_end();
        }
        if line.is_empty() {
            continue;
        }
        let value = match serde_json::from_str::<Value>(line) {
            Ok(v) => v,
            Err(e) => {
                skip(&mut out, lineno, format!("unparseable event: {e}"));
                continue;
            }
        };
        let Some(map) = value.as_map() else {
            skip(&mut out, lineno, "event is not an object".into());
            continue;
        };
        let ph = get_field(map, "ph").and_then(Value::as_str).unwrap_or("");
        match ph {
            "X" | "b" | "e" => {}
            "M" => continue, // metadata: names, not work
            other => {
                skip(&mut out, lineno, format!("unknown phase {other:?}"));
                continue;
            }
        }
        let name = get_field(map, "name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let Some(ts_us) = get_field(map, "ts")
            .and_then(as_f64)
            .filter(|t| t.is_finite())
        else {
            skip(&mut out, lineno, "missing or non-finite ts".into());
            continue;
        };
        let tid = get_field(map, "tid")
            .and_then(as_f64)
            .map(|t| t.max(0.0) as u32)
            .unwrap_or(0);
        let id = event_id(map);
        match ph {
            "X" => {
                let dur = get_field(map, "dur")
                    .and_then(as_f64)
                    .filter(|d| d.is_finite())
                    .unwrap_or(0.0)
                    .max(0.0);
                let (parent, args) = numeric_args(map);
                out.spans.push(RawSpan {
                    id,
                    parent,
                    kind: SpanKind::from_name(&name),
                    name,
                    tid,
                    ts_us,
                    dur_us: dur,
                    args,
                });
            }
            "b" => {
                let (parent, args) = numeric_args(map);
                let span = RawSpan {
                    id,
                    parent,
                    kind: SpanKind::from_name(&name),
                    name,
                    tid,
                    ts_us,
                    dur_us: 0.0,
                    args,
                };
                if open.insert(id, span).is_some() {
                    // A reused id orphans the earlier begin.
                    out.unmatched_begins += 1;
                }
            }
            "e" => match open.remove(&id) {
                Some(mut span) => {
                    // Two finite timestamps can still differ by more than
                    // f64::MAX; keep the duration finite for the math.
                    span.dur_us = (ts_us - span.ts_us).clamp(0.0, f64::MAX);
                    out.spans.push(span);
                }
                None => skip(&mut out, lineno, format!("end without begin (id {id})")),
            },
            _ => unreachable!(),
        }
    }
    out.unmatched_begins += open.len() as u64;
    out
}

/// Reads and parses a trace file. IO errors are the only hard failure;
/// content problems come back as skip counts.
pub fn read_file(path: &Path) -> io::Result<TraceReadOutcome> {
    Ok(read_str(&std::fs::read_to_string(path)?))
}

/// Aggregate statistics for one stage (one span name).
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Span name (a [`SpanKind::name`] for our own files).
    pub name: String,
    /// Spans of this stage.
    pub count: u64,
    /// Summed inclusive wall time, µs.
    pub total_us: f64,
    /// Summed self time (inclusive minus direct children), µs.
    pub self_us: f64,
    /// Median inclusive duration, µs.
    pub p50_us: f64,
    /// 95th-percentile inclusive duration, µs.
    pub p95_us: f64,
    /// 99th-percentile inclusive duration, µs.
    pub p99_us: f64,
}

/// One row of the gather-rung breakdown.
#[derive(Debug, Clone)]
pub struct RungStats {
    /// The rung's `w_max` threshold.
    pub wmax: u64,
    /// Attempts at this rung.
    pub count: u64,
    /// Summed inclusive wall time, µs.
    pub total_us: f64,
}

/// One slow-outlier row: the servers the wall clock went to.
#[derive(Debug, Clone)]
pub struct Outlier {
    /// The gather span's server id (or live-target id).
    pub server_id: u64,
    /// Its inclusive duration, µs.
    pub dur_us: f64,
    /// The track it ran on.
    pub tid: u32,
}

/// Everything `trace-report` prints, as data.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    /// Per-stage rows, sorted by self time, descending.
    pub stages: Vec<StageStats>,
    /// Total self time across all stages, µs (the attribution base).
    pub total_self_us: f64,
    /// Gather-family (gather + rung + round) share of total self time,
    /// in [0, 1]. 0 when the trace has no self time at all.
    pub gather_share: f64,
    /// Rung breakdown of the gather stage, sorted by `wmax`.
    pub rungs: Vec<RungStats>,
    /// Congestion rounds observed, `(pre, post)` phase counts.
    pub rounds: (u64, u64),
    /// Always 0.0: nothing queues in the streaming loop. Goes when a
    /// `benchmark` PR drops the `span.queue_wait_share` row that reads it.
    pub queue_wait_us: f64,
    /// Summed reassembly-span time, µs.
    pub work_us: f64,
    /// Net path: summed reactor dispatch time, µs.
    pub reactor_tick_us: f64,
    /// Net path: summed live-session time, µs.
    pub net_session_us: f64,
    /// Slowest gathers, worst first.
    pub outliers: Vec<Outlier>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl TraceAnalysis {
    /// Computes the full attribution from reconstructed spans.
    pub fn from_spans(spans: &[RawSpan], max_outliers: usize) -> TraceAnalysis {
        // Self time = inclusive − direct children. Sum children per
        // parent id first; id 0 (roots/unknown) accumulates harmlessly.
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_us.entry(s.parent).or_insert(0.0) += s.dur_us;
            }
        }

        let mut by_name: HashMap<&str, (u64, f64, f64, Vec<f64>)> = HashMap::new();
        let mut rungs: HashMap<u64, (u64, f64)> = HashMap::new();
        let mut rounds = (0u64, 0u64);
        let mut analysis = TraceAnalysis::default();
        let mut gather_spans: Vec<&RawSpan> = Vec::new();

        for s in spans {
            let self_us = (s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            let entry = by_name
                .entry(s.name.as_str())
                .or_insert_with(|| (0, 0.0, 0.0, Vec::new()));
            entry.0 += 1;
            entry.1 += s.dur_us;
            entry.2 += self_us;
            entry.3.push(s.dur_us);

            match s.kind {
                Some(SpanKind::Gather) => gather_spans.push(s),
                Some(SpanKind::RungAttempt) => {
                    let wmax = s.arg("wmax").unwrap_or(0.0).max(0.0) as u64;
                    let r = rungs.entry(wmax).or_insert((0, 0.0));
                    r.0 += 1;
                    r.1 += s.dur_us;
                }
                Some(SpanKind::Round) => {
                    if s.arg("phase").unwrap_or(0.0) < 0.5 {
                        rounds.0 += 1;
                    } else {
                        rounds.1 += 1;
                    }
                }
                Some(SpanKind::Reassembly) => analysis.work_us += s.dur_us,
                Some(SpanKind::ReactorTick) => analysis.reactor_tick_us += s.dur_us,
                Some(SpanKind::NetSession) => analysis.net_session_us += s.dur_us,
                _ => {}
            }
        }

        let mut stages: Vec<StageStats> = by_name
            .into_iter()
            .map(|(name, (count, total, self_us, mut durs))| {
                durs.sort_by(f64::total_cmp);
                StageStats {
                    name: name.to_owned(),
                    count,
                    total_us: total,
                    self_us,
                    p50_us: percentile(&durs, 0.50),
                    p95_us: percentile(&durs, 0.95),
                    p99_us: percentile(&durs, 0.99),
                }
            })
            .collect();
        stages.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.name.cmp(&b.name)));

        let total_self: f64 = stages.iter().map(|s| s.self_us).sum();
        let gather_self: f64 = stages
            .iter()
            .filter(|s| {
                matches!(
                    SpanKind::from_name(&s.name),
                    Some(SpanKind::Gather | SpanKind::RungAttempt | SpanKind::Round)
                )
            })
            .map(|s| s.self_us)
            .sum();

        let mut rung_rows: Vec<RungStats> = rungs
            .into_iter()
            .map(|(wmax, (count, total_us))| RungStats {
                wmax,
                count,
                total_us,
            })
            .collect();
        rung_rows.sort_by_key(|r| r.wmax);

        gather_spans.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
        let outliers = gather_spans
            .iter()
            .take(max_outliers)
            .map(|s| Outlier {
                server_id: s.arg("server_id").unwrap_or(0.0).max(0.0) as u64,
                dur_us: s.dur_us,
                tid: s.tid,
            })
            .collect();

        analysis.stages = stages;
        analysis.total_self_us = total_self;
        analysis.gather_share = if total_self > 0.0 {
            gather_self / total_self
        } else {
            0.0
        };
        analysis.rungs = rung_rows;
        analysis.rounds = rounds;
        analysis.outliers = outliers;
        analysis
    }

    /// Renders the human-readable report `caai trace-report` prints.
    pub fn render(&self, read: &TraceReadOutcome) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace-report: {} spans ({} skipped, {} unmatched begins)",
            read.spans.len(),
            read.skipped,
            read.unmatched_begins
        );
        if let Some(err) = &read.first_error {
            let _ = writeln!(out, "  first skip: {err}");
        }
        if self.stages.is_empty() {
            let _ = writeln!(out, "no spans to attribute");
            return out;
        }

        let _ = writeln!(out, "\n== stage attribution (self time) ==");
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>12} {:>6} {:>10} {:>10} {:>10}",
            "stage", "count", "total(ms)", "self(ms)", "share", "p50(us)", "p95(us)", "p99(us)"
        );
        for s in &self.stages {
            let share = if self.total_self_us > 0.0 {
                100.0 * s.self_us / self.total_self_us
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.3} {:>12.3} {:>5.1}% {:>10.1} {:>10.1} {:>10.1}",
                s.name,
                s.count,
                s.total_us / 1e3,
                s.self_us / 1e3,
                share,
                s.p50_us,
                s.p95_us,
                s.p99_us
            );
        }
        let _ = writeln!(
            out,
            "gather self-time share: {:.1}% (gather + rung + round)",
            100.0 * self.gather_share
        );

        if !self.rungs.is_empty() {
            let _ = writeln!(out, "\n== gather breakdown by rung ==");
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>12} {:>12}",
                "wmax", "attempts", "total(ms)", "mean(us)"
            );
            for r in &self.rungs {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>12.3} {:>12.1}",
                    r.wmax,
                    r.count,
                    r.total_us / 1e3,
                    r.total_us / r.count.max(1) as f64
                );
            }
        }
        if self.rounds != (0, 0) {
            let _ = writeln!(
                out,
                "rounds: {} pre-timeout, {} post-timeout",
                self.rounds.0, self.rounds.1
            );
        }

        if self.reactor_tick_us > 0.0 || self.net_session_us > 0.0 {
            let _ = writeln!(out, "\n== net reactor ==");
            let _ = writeln!(
                out,
                "reactor dispatch {:.3} ms vs live-session time {:.3} ms",
                self.reactor_tick_us / 1e3,
                self.net_session_us / 1e3
            );
        }

        if !self.outliers.is_empty() {
            let _ = writeln!(out, "\n== slowest gathers ==");
            let _ = writeln!(out, "{:<12} {:>12} {:>6}", "server", "dur(us)", "tid");
            for o in &self.outliers {
                let _ = writeln!(out, "{:<12} {:>12.1} {:>6}", o.server_id, o.dur_us, o.tid);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(name: &str, id: u64, parent: u64, ts: f64, dur: f64, extra: &str) -> String {
        format!(
            "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":1,\"tid\":1,\"ts\":{ts},\
             \"dur\":{dur},\"id\":\"{id}\",\"args\":{{\"parent\":{parent}{extra}}}}}"
        )
    }

    fn sample_trace() -> String {
        let mut lines = vec!["[".to_owned()];
        // run(1) > gather(2) > rung(3) > round(4); classify(5) sibling.
        lines.push(x("gather.round", 4, 3, 30.0, 10.0, ",\"round\":1,\"phase\":0") + ",");
        lines.push(x("gather.rung", 3, 2, 20.0, 40.0, ",\"wmax\":512,\"env\":0") + ",");
        lines.push(x("gather", 2, 1, 10.0, 80.0, ",\"server_id\":7") + ",");
        lines.push(x("classify", 5, 1, 95.0, 2.0, ",\"server_id\":7") + ",");
        lines.push(x(
            "census.run",
            1,
            0,
            0.0,
            100.0,
            ",\"population\":1,\"workers\":1",
        ));
        lines.push("]".to_owned());
        lines.join("\n")
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let read = read_str(&sample_trace());
        assert_eq!(read.skipped, 0);
        assert_eq!(read.spans.len(), 5);
        let a = TraceAnalysis::from_spans(&read.spans, 10);
        let stage = |n: &str| a.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(stage("gather").self_us, 40.0); // 80 − rung 40
        assert_eq!(stage("gather.rung").self_us, 30.0); // 40 − round 10
        assert_eq!(stage("gather.round").self_us, 10.0);
        assert_eq!(stage("census.run").self_us, 18.0); // 100 − 80 − 2

        // gather family: (40 + 30 + 10) / (40+30+10+2+18)
        assert!((a.gather_share - 0.8).abs() < 1e-9, "{}", a.gather_share);
        assert_eq!(a.rungs.len(), 1);
        assert_eq!(a.rungs[0].wmax, 512);
        assert_eq!(a.rounds, (1, 0));
        assert_eq!(a.outliers[0].server_id, 7);
    }

    #[test]
    fn async_pairs_reconstruct_and_orphans_are_counted() {
        let text = concat!(
            "[\n",
            "{\"ph\":\"b\",\"cat\":\"caai\",\"id\":\"9\",\"name\":\"flow\",\"pid\":1,",
            "\"tid\":2,\"ts\":5.0,\"args\":{\"parent\":0,\"first_seq\":1}},\n",
            "{\"ph\":\"e\",\"cat\":\"caai\",\"id\":\"9\",\"name\":\"flow\",\"pid\":1,",
            "\"tid\":2,\"ts\":25.0},\n",
            "{\"ph\":\"b\",\"cat\":\"caai\",\"id\":\"10\",\"name\":\"flow\",\"pid\":1,",
            "\"tid\":2,\"ts\":6.0,\"args\":{\"parent\":0}}\n",
        );
        let read = read_str(text);
        assert_eq!(read.spans.len(), 1);
        assert_eq!(read.spans[0].dur_us, 20.0);
        assert_eq!(read.unmatched_begins, 1);
    }

    #[test]
    fn hostile_lines_are_skipped_never_fatal() {
        let text = "[\n{not json},\n{\"ph\":\"X\"},\n42,\n{\"ph\":\"??\",\"ts\":1}\n]";
        let read = read_str(text);
        assert!(read.spans.is_empty());
        assert_eq!(read.skipped, 4);
        assert!(read.first_error.is_some());
        // Rendering an empty analysis must hold too.
        let a = TraceAnalysis::from_spans(&read.spans, 5);
        let rendered = a.render(&read);
        assert!(rendered.contains("no spans to attribute"));
    }
}
