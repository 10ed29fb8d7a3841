//! # caai-engine
//!
//! The Internet-scale census engine: turns `caai_core::census` from a
//! blocking batch call into a streaming probe scheduler in the spirit of
//! the paper's §VII-B campaign (and of follow-up censuses such as "The
//! Great Internet TCP Congestion Control Census").
//!
//! The engine adds six capabilities over [`caai_core::census::Census::run`]:
//!
//! 1. **Work-stealing scheduling** ([`scheduler`]): workers pull batches
//!    of servers from an atomic cursor instead of being handed fixed
//!    shards, so a slow server never idles the other workers. A
//!    transport that holds its probes (live sockets) runs no workers: the
//!    caller's thread keeps its capacity submitted.
//! 2. **Deterministic per-server randomness**: every probe's RNG is keyed
//!    on `(seed, server_id)` — any worker count and any interleaving
//!    produce the identical census report, byte for byte.
//! 3. **Constant memory**: the engine retains only a
//!    [`caai_core::census::CensusAggregates`] fold plus a completed-id
//!    bitmap ([`bitmap`]) — O(aggregates + bitmap), never O(records).
//!    Records stream from the workers through one bounded queue to the
//!    caller's thread, which folds them and writes them to
//!    [`sink::ResultSink`]s (a JSONL file, or the opt-in record-retaining
//!    [`sink::AggregatingSink`]); a stalled sink blocks the workers
//!    instead of growing a backlog.
//! 4. **Checkpoint/resume** ([`checkpoint`]): periodic constant-size v2
//!    snapshots (aggregates + bitmap, atomically renamed, never written
//!    ahead of the flushed sinks) let a census killed mid-flight — even
//!    with SIGKILL — restart and finish identical to an uninterrupted
//!    run.
//! 5. **Shard fan-out and merge** ([`shard`], [`merge`]): `--shard k/N`
//!    style specs split a census across machines by `id % N == k`, and
//!    [`merge::merge_pieces`] joins the per-shard checkpoints/JSONL back
//!    into the byte-identical unsharded report.
//! 6. **Budgets and census events** ([`budget`], [`CensusEngine::run_obs`]):
//!    wall-clock deadlines and max-probe budgets (a run with a budget of
//!    N probes exactly the first N servers it has left); the engine keeps
//!    no progress counters of its own but emits one event per folded
//!    record, per resume and per checkpoint to the caller's `caai_obs`
//!    subscriber, whose metrics are what a progress line renders.
//!
//! ## Example
//!
//! ```
//! use caai_engine::{CensusEngine, EngineConfig};
//! use caai_engine::sink::AggregatingSink;
//! use caai_core::census::Census;
//! use caai_core::classify::CaaiClassifier;
//! use caai_core::prober::ProberConfig;
//! use caai_core::training::{build_training_set, TrainingConfig};
//! use caai_netem::{rng, ConditionDb};
//! use caai_webmodel::PopulationConfig;
//!
//! let mut train_rng = rng::seeded(1);
//! let db = ConditionDb::paper_2011();
//! let data = build_training_set(&TrainingConfig::quick(2), &db, &mut train_rng);
//! let classifier = CaaiClassifier::train(&data, &mut train_rng);
//! let census = Census::new(classifier, db, ProberConfig::default());
//!
//! let servers = PopulationConfig::small(24).generate(&mut rng::seeded(2));
//! let engine = CensusEngine::new(census, EngineConfig { seed: 7, workers: 4, ..EngineConfig::default() });
//! let mut agg = AggregatingSink::new();
//! let outcome = engine.run(&servers, &mut [&mut agg], None).unwrap();
//! assert!(outcome.completed);
//! assert_eq!(outcome.report.total, 24);
//! // The engine itself is constant-memory: its report carries aggregates
//! // only. Per-record drill-down lives in the opt-in aggregating sink.
//! assert!(outcome.report.records.is_empty());
//! assert_eq!(agg.records().len(), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod budget;
pub mod checkpoint;
pub mod engine;
pub mod merge;
pub mod scheduler;
pub mod shard;
pub mod sink;

pub use bitmap::IdBitmap;
pub use budget::Budget;
pub use checkpoint::Checkpoint;
pub use engine::{
    run_transport, run_transport_obs, CensusEngine, EngineConfig, EngineError, EngineOutcome,
};
pub use merge::{merge_pieces, MergeError, MergedCensus, ShardPiece};
pub use scheduler::BatchScheduler;
pub use shard::ShardSpec;
pub use sink::{AggregatingSink, JsonlMeta, JsonlSink, ResultSink};
