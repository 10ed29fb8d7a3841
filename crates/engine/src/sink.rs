//! Streaming result sinks.
//!
//! The seed census accumulated every [`CensusRecord`] in RAM and returned
//! them all at once. At Internet scale the engine instead *streams*
//! records to [`ResultSink`]s as workers complete them: a JSONL file for
//! offline analysis ([`JsonlSink`]), an in-memory record list
//! ([`AggregatingSink`]) when per-record drill-down is wanted, a
//! [`CensusReport`] when only the totals are, or any mix at once. Since
//! checkpoint v2 the engine itself retains no records — a sink is the
//! only place records survive a run.
//!
//! The engine writes sinks from the caller's thread, as it folds each
//! record (see [`crate::engine`]); a slow sink back-pressures the workers
//! once their one queue fills.

use crate::shard::ShardSpec;
use caai_core::census::{CensusRecord, CensusReport};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Receives census records as they complete.
///
/// The engine drives sinks from the caller's thread, in completion order —
/// which varies with worker interleaving. Consumers that need the
/// canonical order should sort by `server_id` (see [`read_jsonl`]).
pub trait ResultSink {
    /// Consumes one completed record.
    fn emit(&mut self, record: &CensusRecord) -> io::Result<()>;

    /// Flushes any buffered output (called before every checkpoint and at
    /// the end of a run).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The provenance header of a census JSONL file: which run produced it.
///
/// Serialized as the first line of the file, wrapped in a `{"meta": ...}`
/// object so it can never be confused with a record line. `caai
/// census-merge` uses it to validate that per-shard files belong to the
/// same `(seed, population)` run and together cover every shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JsonlMeta {
    /// The census seed.
    pub seed: u64,
    /// Population size.
    pub population: u64,
    /// Which shard of the population the writing run owned.
    pub shard: ShardSpec,
}

/// The on-disk wrapper distinguishing a meta line from a record line.
#[derive(Debug, Serialize, Deserialize)]
struct JsonlMetaLine {
    meta: JsonlMeta,
}

/// Streams records as one JSON object per line.
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens a JSONL file at `path` for appending (creating it if
    /// absent). This is the resume path: a v2 checkpoint cannot replay
    /// old records, so the file written before the interruption is kept
    /// and only new records are added.
    ///
    /// A non-empty file first gets a newline: if the previous run was
    /// SIGKILLed mid-write its last line may be partial, and the newline
    /// terminates it so new lines never concatenate onto the fragment
    /// (the fragment itself is skipped by [`read_jsonl_tagged`]).
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() > 0 {
            file.write_all(b"\n")?;
        }
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, written: 0 }
    }

    /// Writes a provenance meta line (conventionally first in the file).
    /// Meta lines do not count toward [`written`](JsonlSink::written).
    pub fn write_meta(&mut self, meta: &JsonlMeta) -> io::Result<()> {
        let line = serde_json::to_string(&JsonlMetaLine { meta: *meta })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Number of records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner writer (flushing first is the caller's job).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> ResultSink for JsonlSink<W> {
    fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
        let json = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(json.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A census JSONL file, parsed: its meta lines (one per writing run) and
/// its records in canonical `server_id` order (deduplicated, last wins).
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlFile {
    /// Every meta line found, in file order.
    pub metas: Vec<JsonlMeta>,
    /// Records sorted by `server_id`, deduplicated (last record wins).
    pub records: Vec<CensusRecord>,
    /// Unparseable lines, as `(line_number, parse_error)`. A SIGKILLed
    /// run legitimately leaves one partial line; anything here was never
    /// checkpointed (the engine flushes sinks before every checkpoint),
    /// so a resumed run re-probes and re-emits those records.
    pub corrupt: Vec<(usize, String)>,
}

/// Reads a JSONL stream back: meta lines and records, skipping (but
/// reporting) corrupt lines. Folding the records into a [`CensusReport`]
/// reproduces the run's report regardless of the completion order the
/// file was written in.
pub fn read_jsonl_tagged(path: impl AsRef<Path>) -> io::Result<JsonlFile> {
    let reader = BufReader::new(File::open(path)?);
    let mut metas = Vec::new();
    let mut records: Vec<CensusRecord> = Vec::new();
    let mut corrupt = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CensusRecord>(&line) {
            Ok(record) => records.push(record),
            Err(record_err) => match serde_json::from_str::<JsonlMetaLine>(&line) {
                Ok(meta) => metas.push(meta.meta),
                Err(_) => corrupt.push((lineno + 1, record_err.to_string())),
            },
        }
    }
    // Last record per server id wins (a resumed run's file may repeat
    // ids); BTreeMap insertion order implements that directly.
    let deduped: std::collections::BTreeMap<u32, CensusRecord> =
        records.into_iter().map(|r| (r.server_id, r)).collect();
    Ok(JsonlFile {
        metas,
        records: deduped.into_values().collect(),
        corrupt,
    })
}

/// Whether the file's first line looks like census JSONL (a record or a
/// meta line) rather than some other JSON document (e.g. a checkpoint).
/// Reads only one line, so sniffing a multi-gigabyte record stream is
/// O(one line), not O(file).
pub fn sniff_jsonl(path: impl AsRef<Path>) -> io::Result<bool> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut first = String::new();
    reader.read_line(&mut first)?;
    Ok(serde_json::from_str::<CensusRecord>(&first).is_ok()
        || serde_json::from_str::<JsonlMetaLine>(&first).is_ok())
}

/// Reads a JSONL record stream back, returning records sorted by
/// `server_id` (deduplicated, last record wins; meta lines skipped).
/// Unlike [`read_jsonl_tagged`], any corrupt line is an error.
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<CensusRecord>> {
    let file = read_jsonl_tagged(path)?;
    if let Some((lineno, err)) = file.corrupt.first() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {lineno}: {err}"),
        ));
    }
    Ok(file.records)
}

/// Keeps every record in memory.
///
/// This is the *opt-in* record-retention path: the engine itself keeps
/// only constant-size aggregates, so attach an `AggregatingSink` when a
/// run needs per-record drill-down (and accept the O(population) memory).
#[derive(Debug, Default)]
pub struct AggregatingSink {
    records: Vec<CensusRecord>,
}

impl AggregatingSink {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        AggregatingSink::default()
    }

    /// Records seen so far, in completion order.
    pub fn records(&self) -> &[CensusRecord] {
        &self.records
    }
}

impl ResultSink for AggregatingSink {
    fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
        self.records.push(*record);
        Ok(())
    }
}

/// The fold as a sink: a run's totals, in constant memory.
impl ResultSink for CensusReport {
    fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
        self.observe(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_congestion::AlgorithmId;
    use caai_core::census::Verdict;
    use caai_core::classes::ClassLabel;
    use caai_core::trace::InvalidReason;

    fn records() -> Vec<CensusRecord> {
        vec![
            CensusRecord {
                server_id: 2,
                truth: Some(AlgorithmId::CubicV2),
                verdict: Verdict::Identified(ClassLabel::Cubic1, 512),
            },
            CensusRecord {
                server_id: 0,
                truth: Some(AlgorithmId::Reno),
                verdict: Verdict::Invalid(InvalidReason::PageTooShort),
            },
            CensusRecord {
                server_id: 1,
                truth: Some(AlgorithmId::Htcp),
                verdict: Verdict::Unsure(128),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_out_of_order_records() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("caai-sink-test-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for r in records() {
                sink.emit(&r).unwrap();
            }
            ResultSink::flush(&mut sink).unwrap();
        }
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let ids: Vec<u32> = back.iter().map(|r| r.server_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let mut sorted = records();
        sorted.sort_by_key(|r| r.server_id);
        assert_eq!(back, sorted);
    }

    #[test]
    fn meta_lines_round_trip_and_do_not_pollute_records() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("caai-sink-meta-test-{}.jsonl", std::process::id()));
        let meta = JsonlMeta {
            seed: 7,
            population: 100,
            shard: "1/4".parse().unwrap(),
        };
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.write_meta(&meta).unwrap();
            for r in records() {
                sink.emit(&r).unwrap();
            }
            assert_eq!(sink.written(), 3, "meta must not count as a record");
            ResultSink::flush(&mut sink).unwrap();
        }
        let file = read_jsonl_tagged(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(file.metas, vec![meta]);
        assert_eq!(file.records.len(), 3);
    }

    #[test]
    fn append_mode_extends_an_existing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "caai-sink-append-test-{}.jsonl",
            std::process::id()
        ));
        let all = records();
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.emit(&all[0]).unwrap();
            ResultSink::flush(&mut sink).unwrap();
        }
        {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.emit(&all[1]).unwrap();
            sink.emit(&all[2]).unwrap();
            ResultSink::flush(&mut sink).unwrap();
        }
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 3, "append must keep the first run's record");
    }

    #[test]
    fn append_terminates_a_partial_line_from_a_killed_run() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "caai-sink-partial-test-{}.jsonl",
            std::process::id()
        ));
        let all = records();
        // Simulate a SIGKILL mid-write: a complete record, then a torn one.
        let full_line = serde_json::to_string(&all[0]).unwrap();
        let torn_line = &serde_json::to_string(&all[1]).unwrap()[..20];
        std::fs::write(&path, format!("{full_line}\n{torn_line}")).unwrap();
        {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.emit(&all[2]).unwrap();
            ResultSink::flush(&mut sink).unwrap();
        }
        let file = read_jsonl_tagged(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(file.records.len(), 2, "torn line skipped, new line intact");
        assert_eq!(file.corrupt.len(), 1);
        assert_eq!(file.corrupt[0].0, 2, "the torn line is line 2");
    }

    #[test]
    fn garbage_lines_are_rejected_with_a_line_number() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "caai-sink-garbage-test-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, "{\"not\": \"a record\"}\n").unwrap();
        let err = read_jsonl(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn aggregating_sink_builds_canonical_report() {
        let mut sink = AggregatingSink::new();
        let mut report = CensusReport::default();
        for r in records() {
            sink.emit(&r).unwrap();
            report.emit(&r).unwrap();
        }
        assert_eq!(report.total, 3);
        assert_eq!(report.valid_total(), 2);
        // The records stay in completion order; folded in id order they
        // make the same report.
        let mut kept = sink.records().to_vec();
        assert_eq!(kept, records());
        kept.sort_by_key(|r| r.server_id);
        let mut canonical = CensusReport::default();
        kept.iter().for_each(|r| canonical.observe(r));
        assert_eq!(canonical, report);
    }
}
