//! Integration: the census engine's determinism contract.
//!
//! A census report must be a pure function of `(population, seed)`:
//! independent of worker count, batch size, and — via checkpoint/resume —
//! of how many times the run was interrupted. These tests interrupt a
//! census mid-run with a probe budget, resume it from the checkpoint, and
//! require the final report to equal an uninterrupted run's, byte for
//! byte; plus a JSONL round-trip back to the identical report.
//!
//! Since checkpoint v2 the engine retains no records: its reports carry
//! aggregates only, resume seeds those aggregates instead of replaying
//! records, and JSONL files are extended in append mode across resumes.

use caai::core::census::{assemble, Census, CensusReport};
use caai::core::classify::CaaiClassifier;
use caai::core::prober::ProberConfig;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::{
    AggregatingSink, Budget, CensusEngine, Checkpoint, EngineConfig, JsonlSink, ShardSpec,
};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::obs::MetricsSubscriber;
use caai::webmodel::{PopulationConfig, WebServer};
use std::path::PathBuf;
use std::sync::OnceLock;

const SEED: u64 = 77;

fn census() -> Census {
    static CENSUS: OnceLock<Census> = OnceLock::new();
    CENSUS
        .get_or_init(|| {
            let db = ConditionDb::paper_2011();
            let mut rng = seeded(500);
            let data = build_training_set(&TrainingConfig::quick(2), &db, &mut rng);
            let classifier = CaaiClassifier::train(&data, &mut rng);
            Census::new(classifier, db, ProberConfig::default())
        })
        .clone()
}

fn servers() -> Vec<WebServer> {
    PopulationConfig::small(60).generate(&mut seeded(501))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("caai-engine-test-{}-{name}", std::process::id()))
}

fn run_uninterrupted(workers: usize) -> CensusReport {
    let engine = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers,
            ..EngineConfig::default()
        },
    );
    let outcome = engine
        .run(&servers(), &mut [], None)
        .expect("no sinks, no I/O");
    assert!(outcome.completed);
    assert!(
        outcome.report.records.is_empty(),
        "the engine must not retain records"
    );
    outcome.report
}

#[test]
fn report_is_identical_across_worker_counts_and_batch_sizes() {
    let one = run_uninterrupted(1);
    let four = run_uninterrupted(4);
    let eight = run_uninterrupted(8);
    assert_eq!(one, four, "1 vs 4 workers");
    assert_eq!(four, eight, "4 vs 8 workers");
    // A pathological batch size must not matter either.
    let tiny_batches = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 3,
            batch_size: 1,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("no sinks, no I/O");
    assert_eq!(one, tiny_batches.report, "batch size 1");
}

#[test]
fn engine_report_matches_the_thin_core_wrapper() {
    let engine_report = run_uninterrupted(4);
    let core_report = census().run(&servers(), SEED, 4);
    // The thin wrapper retains records; the streaming engine by design
    // does not. Every aggregate must agree exactly.
    assert!(!core_report.records.is_empty());
    assert_eq!(engine_report, core_report.aggregates_only());
}

#[test]
fn interrupted_census_resumes_to_the_identical_report() {
    let baseline = run_uninterrupted(4);
    let ck_path = tmp("resume.json");

    // First run: a probe budget far below the population size interrupts
    // the census partway; completed work is checkpointed as aggregates.
    let interrupted = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            checkpoint_path: Some(ck_path.clone()),
            checkpoint_every: 5,
            budget: Budget::probes(20),
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("checkpointing must succeed");
    assert!(!interrupted.completed, "budget must interrupt the run");
    assert!(interrupted.report.total < 60, "partial report expected");

    // Second run: resume from the checkpoint, no budget.
    let ck = Checkpoint::load(&ck_path).expect("checkpoint must load");
    assert!(ck.completed_count() > 0, "checkpoint holds completed work");
    assert!(
        ck.completed_count() >= 20,
        "budget overshoot is allowed, undershoot is not"
    );
    let metrics = MetricsSubscriber::new();
    let resumed = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 2, // a different worker count must not matter
            checkpoint_path: Some(ck_path.clone()),
            ..EngineConfig::default()
        },
    )
    .run_obs(&servers(), &mut [], Some(ck), &metrics)
    .expect("resume must succeed");
    std::fs::remove_file(&ck_path).ok();

    assert!(resumed.completed);
    let counters = metrics.snapshot().counters;
    assert!(
        counters["census.resumed"] > 0,
        "resumed records must seed the census counters"
    );
    assert_eq!(counters["census.records"], 60);
    assert_eq!(
        counters["gather.runs"],
        60 - counters["census.resumed"],
        "resume must not re-probe completed servers"
    );
    assert_eq!(
        resumed.report, baseline,
        "resume must converge to the baseline report"
    );
}

#[test]
fn resume_is_refused_for_mismatched_parameters() {
    let wrong_seed = Checkpoint::new(SEED + 1, 60, ShardSpec::full());
    let engine = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let err = engine
        .run(&servers(), &mut [], Some(wrong_seed))
        .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    let wrong_population = Checkpoint::new(SEED, 61, ShardSpec::full());
    let err = engine
        .run(&servers(), &mut [], Some(wrong_population))
        .unwrap_err();
    assert!(err.to_string().contains("population"), "{err}");

    let wrong_shard = Checkpoint::new(SEED, 60, "1/2".parse().unwrap());
    let err = engine
        .run(&servers(), &mut [], Some(wrong_shard))
        .unwrap_err();
    assert!(err.to_string().contains("shard"), "{err}");
}

#[test]
fn jsonl_stream_round_trips_to_the_identical_report() {
    let baseline = run_uninterrupted(4);
    let out_path = tmp("report.jsonl");

    let mut jsonl = JsonlSink::create(&out_path).expect("create jsonl");
    let mut agg = AggregatingSink::new();
    let outcome = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [&mut jsonl, &mut agg], None)
    .expect("jsonl sink must succeed");
    assert!(outcome.completed);
    assert_eq!(jsonl.written(), 60);

    // The streamed file, re-read and canonicalized, reproduces the report.
    let records = caai::engine::sink::read_jsonl(&out_path).expect("read jsonl back");
    std::fs::remove_file(&out_path).ok();
    assert_eq!(records.len(), 60);
    assert_eq!(assemble(records).aggregates_only(), baseline);

    // And so does the aggregating sink that rode along — the opt-in
    // record-retention path.
    assert_eq!(agg.records().len(), 60);
    assert_eq!(agg.into_report().aggregates_only(), baseline);
}

#[test]
fn resumed_run_extends_the_jsonl_in_append_mode() {
    let ck_path = tmp("append-ck.json");
    let out_path = tmp("append.jsonl");

    // Interrupt with a streaming sink attached.
    let mut first_out = JsonlSink::create(&out_path).expect("create jsonl");
    CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            checkpoint_path: Some(ck_path.clone()),
            checkpoint_every: 4,
            budget: Budget::probes(15),
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [&mut first_out], None)
    .expect("interrupted run");
    drop(first_out);

    // A v2 checkpoint has no records to replay, so the engine guarantees
    // instead that the checkpoint never runs ahead of the flushed sinks:
    // everything in it is already durably in the file.
    let ck = Checkpoint::load(&ck_path).expect("load checkpoint");
    let on_disk = caai::engine::sink::read_jsonl(&out_path).expect("read jsonl");
    assert!(
        (on_disk.len() as u64) >= ck.completed_count(),
        "checkpoint ({}) must not claim records the sink has not written ({})",
        ck.completed_count(),
        on_disk.len()
    );

    // Resume appending to the *same* file: new records only.
    let mut second_out = JsonlSink::append(&out_path).expect("append jsonl");
    let resumed = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [&mut second_out], Some(ck))
    .expect("resumed run");
    assert!(resumed.completed);

    let records = caai::engine::sink::read_jsonl(&out_path).expect("read jsonl");
    std::fs::remove_file(&out_path).ok();
    std::fs::remove_file(&ck_path).ok();
    assert_eq!(records.len(), 60, "file must cover the whole population");
    assert_eq!(assemble(records).aggregates_only(), run_uninterrupted(4));
}

#[test]
fn idempotent_final_checkpoint_is_skipped() {
    // Population 60 with a cadence of 15 → periodic writes at 15, 30, 45,
    // 60; the final write would duplicate the one at 60 and must be
    // skipped. (The seed engine rewrote the full record set one extra
    // time at the end of every run.)
    let ck_path = tmp("skip-ck.json");
    let outcome = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            checkpoint_path: Some(ck_path.clone()),
            checkpoint_every: 15,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("checkpointed run");
    assert!(outcome.completed);
    assert_eq!(
        outcome.checkpoints_written, 4,
        "4 periodic writes, no redundant final write"
    );
    let ck = Checkpoint::load(&ck_path).expect("final checkpoint is current");
    assert_eq!(ck.completed_count(), 60);
    std::fs::remove_file(&ck_path).ok();

    // An off-cadence population still gets its final write.
    let ck_path = tmp("skip-ck-off.json");
    let outcome = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            checkpoint_path: Some(ck_path.clone()),
            checkpoint_every: 25,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("checkpointed run");
    assert_eq!(
        outcome.checkpoints_written, 3,
        "writes at 25 and 50, plus the catch-up final write"
    );
    let ck = Checkpoint::load(&ck_path).expect("final checkpoint is current");
    assert_eq!(ck.completed_count(), 60, "final write captured the tail");
    std::fs::remove_file(&ck_path).ok();
}

#[test]
fn a_probe_budget_probes_exactly_that_many_at_any_worker_count() {
    let baseline = run_uninterrupted(4);
    let budgeted = |workers: usize| {
        let ck_path = tmp(&format!("budget-w{workers}.json"));
        let outcome = CensusEngine::new(
            census(),
            EngineConfig {
                seed: SEED,
                workers,
                checkpoint_path: Some(ck_path.clone()),
                checkpoint_every: 7,
                budget: Budget::probes(20),
                ..EngineConfig::default()
            },
        )
        .run(&servers(), &mut [], None)
        .expect("checkpointing must succeed");
        assert!(!outcome.completed);
        assert_eq!(outcome.report.total, 20, "{workers} workers");
        let ck = Checkpoint::load(&ck_path).expect("checkpoint must load");
        std::fs::remove_file(&ck_path).ok();
        assert_eq!(ck.completed_count(), 20, "{workers} workers");
        (outcome.report, ck)
    };
    let runs = [budgeted(1), budgeted(4), budgeted(8)];
    assert_eq!(runs[0], runs[1], "1 vs 4 workers");
    assert_eq!(runs[0], runs[2], "1 vs 8 workers");

    for ((_, ck), workers) in runs.into_iter().zip([4, 8, 1]) {
        let resumed = CensusEngine::new(
            census(),
            EngineConfig {
                seed: SEED,
                workers,
                ..EngineConfig::default()
            },
        )
        .run(&servers(), &mut [], Some(ck))
        .expect("resume must succeed");
        assert!(resumed.completed);
        assert_eq!(resumed.report, baseline, "resumed at {workers} workers");
    }
}
