//! Census checkpoints (format v2: constant-size aggregates + bitmap).
//!
//! A v2 checkpoint snapshots a partially completed census as the
//! [`CensusReport`] fold of every completed record plus an
//! [`IdBitmap`] of the completed server ids — O(aggregates + bitmap)
//! bytes, independent of how many records have completed. The seed-v1
//! format stored every record instead, which made each periodic rewrite
//! O(completed) and total checkpoint I/O quadratic in population;
//! nothing has written it since PR 3 and [`Checkpoint::load`] refuses it
//! like any other unknown version (see `ARCHITECTURE.md` for the format
//! spec).
//!
//! Because each server's probe RNG is keyed on `(seed, server_id)`, a
//! resumed census only needs to know *which* servers are done — re-probing
//! the unset ids from the same seed reproduces exactly what an
//! uninterrupted run would have measured, and the final report is
//! byte-identical. Note that unlike v1, a v2 checkpoint cannot replay
//! individual records into sinks on resume; per-record retention is the
//! job of a JSONL sink (append mode) or the aggregating sink.
//!
//! Snapshots are written atomically (temp file + rename) so a kill
//! mid-write can never corrupt the previous checkpoint.
//!
//! ```
//! use caai_engine::{Checkpoint, ShardSpec};
//!
//! let ck = Checkpoint::new(42, 1000, ShardSpec::full());
//! assert_eq!(ck.completed_count(), 0);
//! assert!(ck.ensure_matches(42, 1000, ShardSpec::full()).is_ok());
//! assert!(ck.ensure_matches(43, 1000, ShardSpec::full()).is_err());
//! ```

use crate::bitmap::IdBitmap;
use crate::shard::ShardSpec;
use caai_core::census::{CensusRecord, CensusReport};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A resumable constant-size snapshot of a partially completed census.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The census seed; resuming under a different seed is refused.
    pub seed: u64,
    /// Population size; resuming against a different population is refused.
    pub population: u64,
    /// Which shard of the population this run owns (`0/1` when unsharded).
    pub shard: ShardSpec,
    /// Streaming fold of every completed record.
    pub aggregates: CensusReport,
    /// Which server ids have completed.
    pub completed: IdBitmap,
}

/// Just enough of any checkpoint to dispatch on its format version.
#[derive(Debug, Deserialize)]
struct CheckpointHeader {
    version: u32,
}

impl Checkpoint {
    /// Creates an empty checkpoint for a `(seed, population, shard)` run.
    pub fn new(seed: u64, population: u64, shard: ShardSpec) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            seed,
            population,
            shard,
            aggregates: CensusReport::default(),
            completed: IdBitmap::new(population),
        }
    }

    /// Builds a checkpoint by folding completed `records`.
    pub fn from_records<'a>(
        seed: u64,
        population: u64,
        shard: ShardSpec,
        records: impl IntoIterator<Item = &'a CensusRecord>,
    ) -> Self {
        let mut ck = Checkpoint::new(seed, population, shard);
        for r in records {
            ck.observe(r);
        }
        ck
    }

    /// Folds one completed record into the snapshot. Re-observing a
    /// server id is ignored (the first record wins), so replaying an
    /// at-least-once stream is safe.
    ///
    /// # Panics
    /// Panics if `record.server_id` is outside `0..population` — callers
    /// folding untrusted input must range-check first (the engine
    /// validates its population up front; file loaders validate before
    /// folding).
    pub fn observe(&mut self, record: &CensusRecord) {
        if self.completed.insert(record.server_id) {
            self.aggregates.observe(record);
        }
    }

    /// Number of completed servers.
    pub fn completed_count(&self) -> u64 {
        self.completed.count()
    }

    /// Servers completed out of the servers this shard owns.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.completed_count(),
            self.shard.owned_count(self.population),
        )
    }

    /// Whether every server this shard owns has completed.
    pub fn is_complete(&self) -> bool {
        let (done, owned) = self.progress();
        done == owned
    }

    /// Checks that this checkpoint belongs to a `(seed, population,
    /// shard)` run.
    pub fn ensure_matches(
        &self,
        seed: u64,
        population: u64,
        shard: ShardSpec,
    ) -> Result<(), String> {
        if self.seed != seed {
            return Err(format!("checkpoint seed {} != run seed {seed}", self.seed));
        }
        if self.population != population {
            return Err(format!(
                "checkpoint population {} != {population} servers",
                self.population
            ));
        }
        if self.shard != shard {
            return Err(format!(
                "checkpoint shard {} != run shard {shard}",
                self.shard
            ));
        }
        Ok(())
    }

    /// Serializes and atomically writes the checkpoint to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Append rather than replace the extension: `a.json` and `a.data`
        // in one directory must not share a temp file.
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Loads and validates a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let header: CheckpointHeader =
            serde_json::from_str(&json).map_err(|e| invalid(e.to_string()))?;
        if header.version != CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "unsupported checkpoint version {}",
                header.version
            )));
        }
        let ck: Checkpoint = serde_json::from_str(&json).map_err(|e| invalid(e.to_string()))?;
        ck.shard.validate().map_err(invalid)?;
        ck.completed.validate().map_err(invalid)?;
        if ck.completed.len() != ck.population {
            return Err(invalid(format!(
                "bitmap covers {} ids but population is {}",
                ck.completed.len(),
                ck.population
            )));
        }
        // Internal consistency: the aggregates must be the fold of
        // exactly the bitmap's servers, and every completed id must be
        // owned by the checkpoint's shard — a file violating either
        // would silently drop servers from a resumed or merged report.
        if ck.aggregates.total as u64 != ck.completed.count() {
            return Err(invalid(format!(
                "aggregates cover {} records but the bitmap has {} ids set",
                ck.aggregates.total,
                ck.completed.count()
            )));
        }
        if let Some(bad) = ck.completed.iter().find(|id| !ck.shard.owns(*id)) {
            return Err(invalid(format!(
                "completed id {bad} does not belong to shard {}",
                ck.shard
            )));
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_congestion::AlgorithmId;
    use caai_core::census::Verdict;
    use caai_core::classes::ClassLabel;
    use caai_core::trace::InvalidReason;

    fn record(server_id: u32, verdict: Verdict) -> CensusRecord {
        CensusRecord {
            server_id,
            truth: Some(AlgorithmId::Bic),
            verdict,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("caai-ck-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trips() {
        let mut ck = Checkpoint::new(42, 100, "1/4".parse().unwrap());
        ck.observe(&record(
            5,
            Verdict::Invalid(InvalidReason::NeverExceededThreshold),
        ));
        ck.observe(&record(9, Verdict::Identified(ClassLabel::Bic, 512)));
        let path = tmp("roundtrip.json");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck, back);
        assert!(back.completed.contains(5));
        assert_eq!(back.completed_count(), 2);
        assert_eq!(back.aggregates.total, 2);
    }

    #[test]
    fn checkpoint_size_is_independent_of_completed_records() {
        // The constant-memory contract, measured directly: 10× the
        // records must not grow the serialized checkpoint.
        let population = 100_000u64;
        let few = Checkpoint::from_records(
            1,
            population,
            ShardSpec::full(),
            &(0..100)
                .map(|id| record(id, Verdict::Identified(ClassLabel::Bic, 512)))
                .collect::<Vec<_>>(),
        );
        let many = Checkpoint::from_records(
            1,
            population,
            ShardSpec::full(),
            &(0..10_000)
                .map(|id| record(id, Verdict::Identified(ClassLabel::Bic, 512)))
                .collect::<Vec<_>>(),
        );
        let few_len = serde_json::to_string(&few).unwrap().len();
        let many_len = serde_json::to_string(&many).unwrap().len();
        // Only decimal digit counts (counters, bitmap words) may differ
        // between the two — never the ~100× a v1 record list would cost.
        assert!(
            many_len < few_len * 3,
            "checkpoint grew with record count: {few_len} -> {many_len}"
        );
        let v1_style_records = serde_json::to_string(
            &(0..10_000)
                .map(|id| record(id, Verdict::Identified(ClassLabel::Bic, 512)))
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .len();
        assert!(
            many_len * 10 < v1_style_records,
            "v2 checkpoint ({many_len} B) must undercut a v1 record list \
             ({v1_style_records} B) by at least 10x"
        );
    }

    #[test]
    fn duplicate_observations_are_ignored() {
        let mut ck = Checkpoint::new(1, 10, ShardSpec::full());
        let r = record(3, Verdict::Unsure(128));
        ck.observe(&r);
        ck.observe(&record(3, Verdict::Identified(ClassLabel::Bic, 512)));
        assert_eq!(ck.completed_count(), 1);
        assert_eq!(ck.aggregates.total, 1);
        assert_eq!(ck.aggregates.identified_total, 0, "first record wins");
    }

    #[test]
    fn v1_checkpoint_is_refused_with_a_clean_error() {
        // A v1 file as PR 2 wrote it: full records, no shard, no bitmap.
        let records = vec![record(5, Verdict::Invalid(InvalidReason::PageTooShort))];
        let v1_json = format!(
            r#"{{"version":1,"seed":42,"population":100,"records":{}}}"#,
            serde_json::to_string(&records).unwrap()
        );
        let path = tmp("v1-refused.json");
        std::fs::write(&path, v1_json).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported checkpoint version 1");
    }

    #[test]
    fn wrong_version_is_refused() {
        let path = tmp("bad-version.json");
        std::fs::write(&path, r#"{"version":999}"#).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn inconsistent_aggregates_or_foreign_ids_are_refused_on_load() {
        // Aggregates/bitmap disagreement: bitmap claims a server the
        // aggregates never folded.
        let mut ck = Checkpoint::new(1, 10, ShardSpec::full());
        ck.observe(&record(3, Verdict::Unsure(128)));
        let json = serde_json::to_string(&ck).unwrap();
        let forged = json.replace(r#""total":1"#, r#""total":0"#);
        let path = tmp("forged-total.json");
        std::fs::write(&path, forged).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("aggregates"), "{err}");

        // A completed id the checkpoint's shard does not own.
        let mut ck = Checkpoint::new(1, 10, ShardSpec::full());
        ck.observe(&record(2, Verdict::Unsure(128)));
        let json = serde_json::to_string(&ck).unwrap();
        let forged = json.replace(r#""0/1""#, r#""1/2""#);
        let path = tmp("forged-shard.json");
        std::fs::write(&path, forged).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("does not belong"), "{err}");
    }

    #[test]
    fn mismatches_are_refused() {
        let ck = Checkpoint::new(1, 50, ShardSpec::full());
        assert!(ck.ensure_matches(2, 50, ShardSpec::full()).is_err());
        assert!(ck.ensure_matches(1, 51, ShardSpec::full()).is_err());
        assert!(ck
            .ensure_matches(1, 50, "0/2".parse().unwrap())
            .unwrap_err()
            .contains("shard"));
        assert!(ck.ensure_matches(1, 50, ShardSpec::full()).is_ok());
    }

    #[test]
    fn is_complete_respects_the_shard() {
        let mut ck = Checkpoint::new(1, 10, "1/4".parse().unwrap());
        assert!(!ck.is_complete());
        for id in [1u32, 5, 9] {
            ck.observe(&record(id, Verdict::Unsure(128)));
        }
        assert!(ck.is_complete());
    }
}
