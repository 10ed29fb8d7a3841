//! Joining per-shard census outputs into one report.
//!
//! A census fanned out with `--shard k/N` produces N checkpoints (and/or
//! JSONL files). Because the aggregates are a commutative fold over
//! disjoint server sets, merging them reproduces the **byte-identical**
//! report an unsharded run of the same `(population, seed)` would have
//! printed. This module validates that the pieces actually form that
//! partition — same run parameters, every shard present exactly once,
//! every shard complete — before summing.
//!
//! ```
//! use caai_engine::{merge_pieces, Checkpoint, ShardSpec};
//! use caai_core::census::{CensusRecord, Verdict};
//! use caai_core::trace::InvalidReason;
//! use caai_congestion::AlgorithmId;
//!
//! // Two complete half-shards of a 4-server census ...
//! let record = |id: u32| CensusRecord {
//!     server_id: id,
//!     truth: Some(AlgorithmId::Reno),
//!     verdict: Verdict::Invalid(InvalidReason::PageTooShort),
//! };
//! let shard = |k: u32| -> Checkpoint {
//!     let spec = ShardSpec { index: k, count: 2 };
//!     let ids = (0..4).filter(|id| spec.owns(*id)).map(record).collect::<Vec<_>>();
//!     Checkpoint::from_records(1, 4, spec, &ids)
//! };
//! let merged = merge_pieces(vec![shard(0), shard(1)], false).unwrap();
//! assert_eq!(merged.report.total, 4);
//! ```

use crate::bitmap::IdBitmap;
use crate::checkpoint::Checkpoint;
use crate::shard::ShardSpec;
use crate::sink::JsonlFile;
use caai_core::census::CensusReport;
use std::fmt;

impl Checkpoint {
    /// Builds a shard's checkpoint from a parsed JSONL file, folding its
    /// records. The file must carry one provenance meta line (shard files
    /// written by `caai census --out` always do; a resumed run repeats it)
    /// and every record must belong to the declared shard.
    pub fn from_jsonl(file: &JsonlFile) -> Result<Self, MergeError> {
        let meta = match file.metas.as_slice() {
            [] => return Err(MergeError::MissingMeta),
            [first, rest @ ..] if rest.iter().any(|m| m != first) => {
                return Err(MergeError::ConflictingMeta)
            }
            [first, ..] => *first,
        };
        let mut ck = Checkpoint::new(meta.seed, meta.population, meta.shard);
        for record in &file.records {
            if u64::from(record.server_id) >= meta.population {
                return Err(MergeError::RecordOutOfRange {
                    server_id: record.server_id,
                    population: meta.population,
                });
            }
            if !meta.shard.owns(record.server_id) {
                return Err(MergeError::ForeignRecord {
                    server_id: record.server_id,
                    shard: meta.shard,
                });
            }
            ck.observe(record);
        }
        Ok(ck)
    }
}

/// A merged census: the joined report plus the run parameters it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCensus {
    /// The joined report — byte-identical to an unsharded run when every
    /// shard was present and complete.
    pub report: CensusReport,
    /// The census seed all pieces ran under.
    pub seed: u64,
    /// Population size of the whole census.
    pub population: u64,
    /// How many shards the census was split into.
    pub shards: u32,
    /// Whether every server of the population is covered.
    pub complete: bool,
}

/// Why a set of shard checkpoints cannot be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No input pieces.
    Empty,
    /// A JSONL input carried no provenance meta line.
    MissingMeta,
    /// A JSONL input carried meta lines from different runs.
    ConflictingMeta,
    /// A JSONL input held a record its declared shard does not own.
    ForeignRecord {
        /// The trespassing record's server id.
        server_id: u32,
        /// The shard the file claimed to be.
        shard: ShardSpec,
    },
    /// A JSONL input held a record outside its declared population.
    RecordOutOfRange {
        /// The out-of-range record's server id.
        server_id: u32,
        /// The population the file's meta line declared.
        population: u64,
    },
    /// Two pieces disagree on `(seed, population)` or shard count.
    ParameterMismatch(String),
    /// The same shard index appears twice.
    DuplicateShard(ShardSpec),
    /// Shard indices missing from the partition.
    MissingShards(Vec<u32>),
    /// A shard has not completed all the servers it owns.
    IncompleteShard {
        /// Which shard is short.
        shard: ShardSpec,
        /// Servers it completed.
        done: u64,
        /// Servers it owns.
        owned: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard inputs to merge"),
            MergeError::MissingMeta => write!(
                f,
                "JSONL input has no meta line; only files written by \
                 `caai census --out` can be merged"
            ),
            MergeError::ConflictingMeta => {
                write!(f, "JSONL input mixes meta lines from different runs")
            }
            MergeError::ForeignRecord { server_id, shard } => write!(
                f,
                "record for server {server_id} does not belong to shard {shard}"
            ),
            MergeError::RecordOutOfRange {
                server_id,
                population,
            } => write!(
                f,
                "record for server {server_id} is outside the declared \
                 population of {population}"
            ),
            MergeError::ParameterMismatch(msg) => write!(f, "shard mismatch: {msg}"),
            MergeError::DuplicateShard(spec) => {
                write!(f, "shard {spec} appears more than once")
            }
            MergeError::MissingShards(missing) => {
                let list: Vec<String> = missing.iter().map(ToString::to_string).collect();
                write!(f, "missing shard indices: {}", list.join(", "))
            }
            MergeError::IncompleteShard { shard, done, owned } => write!(
                f,
                "shard {shard} is incomplete ({done}/{owned} servers) — resume it \
                 first, or merge with --allow-partial"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Joins shard checkpoints into one census report.
///
/// Validates that all pieces share `(seed, population)` and shard count,
/// that each shard index appears exactly once, and — unless
/// `allow_partial` — that every piece completed all the servers it owns.
/// With `allow_partial`, missing shards and incomplete pieces are
/// tolerated and the merged report covers whatever was measured
/// (`complete` says whether that is the whole population).
pub fn merge_pieces(
    pieces: Vec<Checkpoint>,
    allow_partial: bool,
) -> Result<MergedCensus, MergeError> {
    let Some(first) = pieces.first() else {
        return Err(MergeError::Empty);
    };
    let (seed, population, shards) = (first.seed, first.population, first.shard.count);

    let mut seen = vec![false; shards as usize];
    let mut report = CensusReport::default();
    let mut completed = IdBitmap::new(population);
    for piece in &pieces {
        if piece.seed != seed {
            return Err(MergeError::ParameterMismatch(format!(
                "seed {} vs {seed}",
                piece.seed
            )));
        }
        if piece.population != population {
            return Err(MergeError::ParameterMismatch(format!(
                "population {} vs {population}",
                piece.population
            )));
        }
        if piece.shard.count != shards {
            return Err(MergeError::ParameterMismatch(format!(
                "shard count {} vs {shards}",
                piece.shard.count
            )));
        }
        let slot = &mut seen[piece.shard.index as usize];
        if *slot {
            return Err(MergeError::DuplicateShard(piece.shard));
        }
        *slot = true;
        let (done, owned) = piece.progress();
        if done < owned && !allow_partial {
            return Err(MergeError::IncompleteShard {
                shard: piece.shard,
                done,
                owned,
            });
        }
        report.merge(&piece.aggregates);
        completed.union_with(&piece.completed);
    }

    let missing: Vec<u32> = (0..shards).filter(|&k| !seen[k as usize]).collect();
    if !missing.is_empty() && !allow_partial {
        return Err(MergeError::MissingShards(missing));
    }

    Ok(MergedCensus {
        report,
        seed,
        population,
        shards,
        complete: completed.count() == population,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlMeta;
    use caai_congestion::AlgorithmId;
    use caai_core::census::{CensusRecord, Verdict};
    use caai_core::classes::ClassLabel;

    fn record(id: u32) -> CensusRecord {
        CensusRecord {
            server_id: id,
            truth: Some(AlgorithmId::Bic),
            verdict: Verdict::Identified(ClassLabel::Bic, 512),
        }
    }

    fn complete_shard(k: u32, n: u32, population: u64) -> Checkpoint {
        let spec = ShardSpec { index: k, count: n };
        let records: Vec<CensusRecord> = (0..population as u32)
            .filter(|id| spec.owns(*id))
            .map(record)
            .collect();
        Checkpoint::from_records(5, population, spec, &records)
    }

    #[test]
    fn complete_partition_merges_to_the_whole_population() {
        let pieces: Vec<Checkpoint> = (0..4).map(|k| complete_shard(k, 4, 22)).collect();
        let merged = merge_pieces(pieces, false).unwrap();
        assert!(merged.complete);
        assert_eq!(merged.report.total, 22);
        assert_eq!(merged.shards, 4);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let forward: Vec<Checkpoint> = (0..3).map(|k| complete_shard(k, 3, 17)).collect();
        let mut backward = forward.clone();
        backward.reverse();
        assert_eq!(
            merge_pieces(forward, false).unwrap().report,
            merge_pieces(backward, false).unwrap().report
        );
    }

    #[test]
    fn mismatched_and_duplicate_pieces_are_refused() {
        assert_eq!(
            merge_pieces(Vec::new(), false).unwrap_err(),
            MergeError::Empty
        );

        let mut wrong_seed = complete_shard(1, 2, 10);
        wrong_seed.seed = 99;
        let err = merge_pieces(vec![complete_shard(0, 2, 10), wrong_seed], false).unwrap_err();
        assert!(matches!(err, MergeError::ParameterMismatch(_)), "{err}");

        let err = merge_pieces(
            vec![complete_shard(0, 2, 10), complete_shard(0, 2, 10)],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, MergeError::DuplicateShard(_)), "{err}");

        let err = merge_pieces(vec![complete_shard(0, 2, 10)], false).unwrap_err();
        assert_eq!(err, MergeError::MissingShards(vec![1]));
    }

    /// A JSONL file of shard 0/2 of a 10-server census, seed 5, with
    /// `metas` and `records`.
    fn jsonl(metas: &[JsonlMeta], records: &[u32]) -> JsonlFile {
        JsonlFile {
            metas: metas.to_vec(),
            records: records.iter().copied().map(record).collect(),
            corrupt: Vec::new(),
        }
    }

    const META: JsonlMeta = JsonlMeta {
        seed: 5,
        population: 10,
        shard: ShardSpec { index: 0, count: 2 },
    };

    #[test]
    fn jsonl_record_outside_population_is_an_error_not_a_panic() {
        // Owned by 0/2, but >= population.
        let err = Checkpoint::from_jsonl(&jsonl(&[META], &[10])).unwrap_err();
        assert!(
            matches!(err, MergeError::RecordOutOfRange { server_id: 10, .. }),
            "{err}"
        );
    }

    #[test]
    fn jsonl_without_a_meta_line_is_refused() {
        let err = Checkpoint::from_jsonl(&jsonl(&[], &[0, 2])).unwrap_err();
        assert_eq!(err, MergeError::MissingMeta);
    }

    #[test]
    fn jsonl_with_the_meta_lines_of_two_runs_is_refused() {
        let other = JsonlMeta { seed: 6, ..META };
        let err = Checkpoint::from_jsonl(&jsonl(&[META, other], &[0])).unwrap_err();
        assert_eq!(err, MergeError::ConflictingMeta);
    }

    #[test]
    fn jsonl_record_of_another_shard_is_refused() {
        let err = Checkpoint::from_jsonl(&jsonl(&[META], &[0, 3])).unwrap_err();
        assert_eq!(
            err,
            MergeError::ForeignRecord {
                server_id: 3,
                shard: META.shard
            }
        );
    }

    #[test]
    fn jsonl_with_a_repeated_meta_line_is_accepted() {
        // `--resume` appends the run's meta line to the file it extends.
        let ck = Checkpoint::from_jsonl(&jsonl(&[META, META], &[0, 2, 4, 6, 8])).unwrap();
        assert_eq!(ck, complete_shard(0, 2, 10));
    }

    #[test]
    fn incomplete_shards_need_allow_partial() {
        let full = complete_shard(0, 2, 10);
        let partial = Checkpoint::from_records(
            5,
            10,
            ShardSpec { index: 1, count: 2 },
            &[record(1)], // owns 1,3,5,7,9 but only finished server 1
        );
        let err = merge_pieces(vec![full.clone(), partial.clone()], false).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::IncompleteShard {
                    done: 1,
                    owned: 5,
                    ..
                }
            ),
            "{err}"
        );

        let merged = merge_pieces(vec![full, partial], true).unwrap();
        assert!(!merged.complete);
        assert_eq!(merged.report.total, 6);
    }
}
