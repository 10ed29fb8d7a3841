//! Integration: the live census CLI (`caai census --targets`) against a
//! fleet of `caai emulate` loopback servers.
//!
//! Everything stays on 127.0.0.1. The acceptance bar: a census over 51
//! emulated servers spanning three algorithms reaches the verdict the
//! simulator reaches for each algorithm, prints the byte-identical
//! report when run twice, and survives a SIGKILL mid-run — resuming
//! from its checkpoint to the byte-identical report of an
//! uninterrupted run.

use caai::core::census::{verdict_for_outcome, Verdict};
use caai::core::classify::CaaiClassifier;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::netem::rng::seeded;
use caai::netem::PathConfig;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("caai-net-census-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn caai(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

/// One shared model file: live runs, the resumed run, and the in-process
/// simulator baseline must all classify with the same forest.
fn model() -> String {
    static MODEL: OnceLock<String> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let path = dir().join("model.json").to_string_lossy().into_owned();
            let out = caai(&["train", "--conditions", "2", "--seed", "77", "--out", &path]);
            assert!(out.status.success(), "train failed: {out:?}");
            path
        })
        .clone()
}

/// A backgrounded `caai emulate` fleet, killed on drop.
struct Fleet {
    child: Child,
    targets: String,
}

impl Fleet {
    fn spawn(count: u32, algos: &str, name: &str) -> Fleet {
        Fleet::spawn_paced(count, algos, name, "0")
    }

    /// A fleet whose servers hold each reply `pace` real seconds per
    /// virtual second of its round (`caai emulate --pace`).
    fn spawn_paced(count: u32, algos: &str, name: &str, pace: &str) -> Fleet {
        let targets = dir().join(name).to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&targets);
        let child = Command::new(env!("CARGO_BIN_EXE_caai"))
            .args([
                "emulate",
                "--count",
                &count.to_string(),
                "--algos",
                algos,
                "--targets-out",
                &targets,
                "--pace",
                pace,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn caai emulate");
        // The file is written only after every listener is bound.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !Path::new(&targets).exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            Path::new(&targets).exists(),
            "emulate never wrote its target list"
        );
        Fleet { child, targets }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the *simulator* concludes for an ideal server running `algo`,
/// with the shared model.
fn simulator_verdict(classifier: &CaaiClassifier, algo: &str) -> Verdict {
    let algorithm = algo.parse().expect("algorithm name");
    let outcome = Prober::new(ProberConfig::default()).gather(
        &ServerUnderTest::ideal(algorithm),
        &PathConfig::clean(),
        &mut seeded(5),
    );
    let (verdict, _) = verdict_for_outcome(&outcome, classifier);
    verdict
}

/// Field lookup in the offline-compat JSON value (objects are ordered
/// `(key, value)` slices, not maps).
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_map()
        .expect("JSON object")
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("report field `{key}` missing"))
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("expected integer, got {other:?}"),
    }
}

#[test]
fn live_census_agrees_with_the_simulator_and_is_deterministic() {
    const ALGOS: [&str; 3] = ["RENO", "CUBIC", "HTCP"];
    let model = model();
    let fleet = Fleet::spawn(51, &ALGOS.join(","), "hosts-main.txt");

    let args = [
        "census",
        "--targets",
        &fleet.targets,
        "--model",
        &model,
        "--json",
    ];
    let first = caai(&args);
    assert!(first.status.success(), "live census failed: {first:?}");
    let second = caai(&args);
    assert!(
        second.status.success(),
        "second live census failed: {second:?}"
    );
    assert_eq!(
        first.stdout, second.stdout,
        "two live censuses over the same fleet must print byte-identical reports"
    );

    // Every algorithm's 17 servers must land exactly where the simulator
    // lands that algorithm.
    let classifier: CaaiClassifier =
        serde_json::from_str(&std::fs::read_to_string(&model).expect("read model"))
            .expect("parse model");
    let mut expected: BTreeMap<(u32, String), usize> = BTreeMap::new();
    for algo in ALGOS {
        match simulator_verdict(&classifier, algo) {
            Verdict::Identified(label, wmax) => {
                *expected.entry((wmax, label.to_string())).or_default() += 17;
            }
            other => panic!("simulator must identify ideal {algo}, got {other:?}"),
        }
    }

    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&first.stdout)).expect("report JSON");
    assert_eq!(as_u64(field(&report, "total")), 51);
    assert_eq!(
        field(&report, "invalid").as_map().map(<[_]>::len),
        Some(0),
        "no live probe of a healthy emulated fleet may come back invalid"
    );
    let mut observed: BTreeMap<(u32, String), usize> = BTreeMap::new();
    for (wmax, column) in field(&report, "columns").as_map().expect("columns") {
        for (label, n) in field(column, "identified").as_map().expect("identified") {
            *observed
                .entry((wmax.parse().expect("wmax key"), label.clone()))
                .or_default() += as_u64(n) as usize;
        }
        assert_eq!(as_u64(field(column, "unsure")), 0);
    }
    assert_eq!(
        observed, expected,
        "live verdict histogram diverged from the simulator's"
    );
}

#[test]
fn sigkilled_live_census_resumes_to_the_byte_identical_report() {
    let model = model();
    // Each probe of this fleet takes about a second of real time.
    let fleet = Fleet::spawn_paced(12, "RENO,CUBIC", "hosts-kill.txt", "0.02");
    let ck = dir().join("kill-ck.json").to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&ck);

    // Uninterrupted baseline over the same fleet.
    let baseline = caai(&[
        "census",
        "--targets",
        &fleet.targets,
        "--model",
        &model,
        "--json",
    ]);
    assert!(baseline.status.success(), "baseline failed: {baseline:?}");

    // Two probes in flight, checkpointing every record; SIGKILL as soon
    // as the first checkpoint lands.
    let mut killed = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args([
            "census",
            "--targets",
            &fleet.targets,
            "--model",
            &model,
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "1",
            "--max-sessions",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn census");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !Path::new(&ck).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(Path::new(&ck).exists(), "census never checkpointed");
    killed.kill().expect("SIGKILL census"); // no-op if already exited
    killed.wait().expect("reap census");

    let resumed = caai(&[
        "census",
        "--targets",
        &fleet.targets,
        "--model",
        &model,
        "--resume",
        &ck,
        "--json",
    ]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        baseline.stdout, resumed.stdout,
        "kill + resume must reproduce the uninterrupted report byte for byte"
    );
}

#[test]
fn malformed_target_lines_are_skipped_and_reported_with_their_index() {
    let fleet = Fleet::spawn(2, "RENO", "hosts-skip.txt");
    let good = std::fs::read_to_string(&fleet.targets).expect("read targets");
    let path = dir().join("hosts-dirty.txt").to_string_lossy().into_owned();
    std::fs::write(
        &path,
        format!("# a comment line\n{good}not a target!!\n\n127.0.0.1:0\nlate-colon:80:80\n"),
    )
    .expect("write dirty list");

    let out = caai(&["census", "--targets", &path, "--model", &model(), "--json"]);
    assert!(out.status.success(), "dirty-list census failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 4: skipped"),
        "bad host diagnostics missing: {stderr}"
    );
    assert!(
        stderr.contains("line 6: skipped"),
        "bad port diagnostics missing: {stderr}"
    );
    assert!(
        stderr.contains("line 7: skipped"),
        "IPv6-ish diagnostics missing: {stderr}"
    );
    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("report JSON");
    assert_eq!(
        as_u64(field(&report, "total")),
        2,
        "only the two well-formed targets probed"
    );
}

#[test]
fn each_census_mode_refuses_the_flags_of_the_other() {
    // A simulated census opens no sockets: the net flags are refused,
    // not silently ignored.
    for flag in [
        "--connect-timeout-ms",
        "--io-timeout-ms",
        "--retries",
        "--backoff-ms",
        "--probe-rate",
        "--net-rate",
        "--max-sessions",
    ] {
        let out = caai(&["census", "--servers", "4", flag, "5"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} applies only with --targets")),
            "{stderr}"
        );
    }
    // A live census runs no worker threads: --max-sessions is its one
    // setting for how many probes are in flight. Pacing is the fleet's.
    let targets = dir().join("hosts-refused.txt");
    let targets = targets.to_string_lossy();
    for flag in ["--workers", "--batch"] {
        let out = caai(&["census", "--targets", &targets, flag, "8"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} does not apply with --targets"))
                && stderr.contains("set --max-sessions instead"),
            "{stderr}"
        );
    }
    let out = caai(&["census", "--targets", &targets, "--pace", "0.02"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --pace for census"),
        "{stderr}"
    );
}

#[test]
fn a_live_census_refuses_zero_sessions_in_flight() {
    // No probe could ever run: a usage error before any target is read,
    // not a panic in the reactor.
    let targets = dir().join("hosts-refused.txt");
    let out = caai(&[
        "census",
        "--targets",
        &targets.to_string_lossy(),
        "--max-sessions",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--max-sessions must be at least 1"),
        "{stderr}"
    );
}
