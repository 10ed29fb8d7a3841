//! Integration: shard fan-out and `census-merge` determinism.
//!
//! A census split into N `--shard k/N` runs must merge back into the
//! byte-identical report of one unsharded run — including when one shard
//! is SIGKILLed mid-flight and resumed from its checkpoint, and whether
//! the merge reads checkpoints or JSONL record streams. The CLI tests
//! drive the real `caai` binary (`CARGO_BIN_EXE_caai`); the library
//! tests exercise the same path in-process.

use caai::core::census::Census;
use caai::core::classify::CaaiClassifier;
use caai::core::prober::ProberConfig;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::{merge_pieces, CensusEngine, Checkpoint, EngineConfig, ShardSpec};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::webmodel::{PopulationConfig, WebServer};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const SEED: u64 = 33;

fn census() -> Census {
    static CENSUS: OnceLock<Census> = OnceLock::new();
    CENSUS
        .get_or_init(|| {
            let db = ConditionDb::paper_2011();
            let mut rng = seeded(600);
            let data = build_training_set(&TrainingConfig::quick(2), &db, &mut rng);
            let classifier = CaaiClassifier::train(&data, &mut rng);
            Census::new(classifier, db, ProberConfig::default())
        })
        .clone()
}

fn servers() -> Vec<WebServer> {
    PopulationConfig::small(64).generate(&mut seeded(601))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("caai-shard-test-{}-{name}", std::process::id()))
}

fn run_shard(shard: ShardSpec, checkpoint: &Path) -> caai::engine::EngineOutcome {
    CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 3,
            shard,
            checkpoint_path: Some(checkpoint.to_path_buf()),
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("shard run")
}

#[test]
fn four_shards_merge_to_the_unsharded_report() {
    let unsharded = CensusEngine::new(
        census(),
        EngineConfig {
            seed: SEED,
            workers: 4,
            ..EngineConfig::default()
        },
    )
    .run(&servers(), &mut [], None)
    .expect("unsharded run")
    .report;

    let mut pieces = Vec::new();
    let mut shard_total = 0usize;
    for k in 0..4 {
        let spec = ShardSpec { index: k, count: 4 };
        let ck_path = tmp(&format!("lib-ck{k}.json"));
        let outcome = run_shard(spec, &ck_path);
        assert!(outcome.completed);
        shard_total += outcome.report.total;
        let ck = Checkpoint::load(&ck_path).expect("load shard checkpoint");
        std::fs::remove_file(&ck_path).ok();
        assert!(ck.is_complete());
        pieces.push(ck);
    }
    assert_eq!(shard_total, 64, "shards partition the population");

    let merged = merge_pieces(pieces, false).expect("merge");
    assert!(merged.complete);
    assert_eq!(
        merged.report, unsharded,
        "merged shard reports must equal the unsharded report"
    );
}

// ---- CLI tests against the real binary -------------------------------

fn caai(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

/// Common census flags: every run must agree on these for shard runs and
/// the unsharded baseline to describe the same census.
const POP: &str = "600";
fn census_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "census",
        "--servers",
        POP,
        "--conditions",
        "2",
        "--seed",
        "21",
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn cli_sharded_census_with_sigkill_resume_merges_byte_identical() {
    let dir = std::env::temp_dir().join(format!("caai-cli-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // Unsharded baseline.
    let baseline = caai(&census_args(&["--json"]));
    assert!(baseline.status.success(), "{baseline:?}");

    // Shards 0, 2, 3 run to completion; shard 1 is SIGKILLed mid-run
    // (kill as soon as its first checkpoint appears) and then resumed.
    for k in [0u32, 2, 3] {
        let ck = p(&format!("ck{k}.json"));
        let out = p(&format!("s{k}.jsonl"));
        let shard = format!("{k}/4");
        let run = caai(&census_args(&[
            "--shard",
            &shard,
            "--checkpoint",
            &ck,
            "--out",
            &out,
        ]));
        assert!(run.status.success(), "shard {k}: {run:?}");
    }
    let ck1 = p("ck1.json");
    let out1 = p("s1.jsonl");
    let mut killed = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(census_args(&[
            "--shard",
            "1/4",
            "--checkpoint",
            &ck1,
            "--out",
            &out1,
            "--checkpoint-every",
            "1",
        ]))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn shard 1");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !Path::new(&ck1).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(Path::new(&ck1).exists(), "shard 1 never checkpointed");
    killed.kill().expect("SIGKILL shard 1"); // no-op if already exited
    killed.wait().expect("reap shard 1");

    let resume = caai(&census_args(&[
        "--shard",
        "1/4",
        "--checkpoint",
        &ck1,
        "--out",
        &out1,
        "--resume",
        &ck1,
    ]));
    assert!(resume.status.success(), "resume shard 1: {resume:?}");

    // Merge the four checkpoints: byte-identical to the unsharded run.
    let merged = caai(&[
        "census-merge",
        "--in",
        &p("ck0.json"),
        "--in",
        &ck1,
        "--in",
        &p("ck2.json"),
        "--in",
        &p("ck3.json"),
        "--json",
    ]);
    assert!(merged.status.success(), "{merged:?}");
    assert_eq!(
        String::from_utf8_lossy(&merged.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "checkpoint merge must be byte-identical to the unsharded report"
    );

    // Merge the four JSONL streams (shard 1's spans the kill + resume):
    // byte-identical too.
    let merged_jsonl = caai(&[
        "census-merge",
        "--in",
        &p("s0.jsonl"),
        "--in",
        &out1,
        "--in",
        &p("s2.jsonl"),
        "--in",
        &p("s3.jsonl"),
        "--json",
    ]);
    assert!(merged_jsonl.status.success(), "{merged_jsonl:?}");
    assert_eq!(
        String::from_utf8_lossy(&merged_jsonl.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "JSONL merge must be byte-identical to the unsharded report"
    );

    // Text output (no --json) goes through the same printer.
    let text_baseline = caai(&census_args(&[]));
    let text_merged = caai(&[
        "census-merge",
        "--in",
        &p("ck0.json"),
        "--in",
        &ck1,
        "--in",
        &p("ck2.json"),
        "--in",
        &p("ck3.json"),
    ]);
    assert_eq!(
        String::from_utf8_lossy(&text_merged.stdout),
        String::from_utf8_lossy(&text_baseline.stdout),
        "text-mode merge must match too"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_merge_refuses_holes_unless_allow_partial() {
    let dir = std::env::temp_dir().join(format!("caai-cli-partial-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ck0 = dir.join("ck0.json").to_string_lossy().into_owned();
    let run = caai(&census_args(&["--shard", "0/2", "--checkpoint", &ck0]));
    assert!(run.status.success(), "{run:?}");

    let missing = caai(&["census-merge", "--in", &ck0]);
    assert!(!missing.status.success(), "a hole must fail the merge");
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("missing shard"),
        "{missing:?}"
    );

    let partial = caai(&["census-merge", "--in", &ck0, "--allow-partial"]);
    assert!(partial.status.success(), "{partial:?}");
    assert!(
        String::from_utf8_lossy(&partial.stderr).contains("partial merge"),
        "{partial:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_census_with_a_batch_of_half_the_address_space_probes_each_server_once() {
    // The scheduler's cursor used to wrap on the second claim of 2^63:
    // 120 probes of 60 servers, and a report that called itself partial.
    let census = |batch| {
        let run = caai(&[
            "census",
            "--servers",
            "60",
            "--conditions",
            "2",
            "--workers",
            "2",
            "--batch",
            batch,
            "--json",
        ]);
        assert!(run.status.success(), "--batch {batch}: {run:?}");
        run
    };
    let huge = census("9223372036854775808");
    let stderr = String::from_utf8_lossy(&huge.stderr);
    assert!(
        stderr.contains("census: 60/60 servers (60 probed"),
        "{stderr}"
    );
    assert!(!stderr.contains("partial"), "{stderr}");
    assert_eq!(huge.stdout, census("16").stdout);
}
