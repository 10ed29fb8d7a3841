//! Integration: the observability layer end to end.
//!
//! The determinism contract under test: counters derived from pipeline
//! events are a pure function of the capture bytes — identical for every
//! worker count and (where the paths share semantics) identical between
//! the offline reader and the streaming pipeline, damage included. The
//! CLI side checks that `--metrics` files validate against the
//! `caai-metrics-v1` schema, that a SIGKILLed-and-resumed census lands
//! on the same verdict counters as an uninterrupted one, that a census's
//! `--progress` lines render those same counters, and that `--json`
//! stdout is never interleaved with diagnostics.

use caai::capture::CaptureRenderer;
use caai::congestion::AlgorithmId;
use caai::core::classify::CaaiClassifier;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::Checkpoint;
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};
use caai::obs::{Histogram, MetricsSubscriber};
use caai::stream::{identify_bytes_obs, run_obs, PcapStream, StallPolicy, StreamConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn classifier() -> &'static CaaiClassifier {
    static CLASSIFIER: OnceLock<CaaiClassifier> = OnceLock::new();
    CLASSIFIER.get_or_init(|| {
        let db = ConditionDb::paper_2011();
        let mut rng = seeded(3);
        let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
        CaaiClassifier::train(&data, &mut rng)
    })
}

/// A two-server capture with both skip-and-report damage modes injected:
/// one mid-capture frame's ethertype is clobbered (decode skip) and the
/// final record is chopped mid-frame (truncation).
fn damaged_capture() -> &'static [u8] {
    static CAPTURE: OnceLock<Vec<u8>> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let prober = Prober::new(ProberConfig::default());
        let mut renderer = CaptureRenderer::new();
        let mut rng = seeded(23);
        for (host, algo) in [AlgorithmId::Reno, AlgorithmId::CubicV2]
            .into_iter()
            .enumerate()
        {
            renderer
                .render_session(
                    [192, 0, 2, 1],
                    [198, 51, 100, host as u8 + 1],
                    &ServerUnderTest::ideal(algo),
                    &prober,
                    &PathConfig::clean(),
                    &mut rng,
                )
                .expect("in-memory render cannot fail");
        }
        let mut bytes = renderer.to_bytes();

        // Walk the classic-pcap framing (24-byte global header, 16-byte
        // record headers with incl_len at +8, little-endian) to the 10th
        // record and clobber its ethertype: one deterministic decode
        // failure mid-flow.
        let mut pos = 24usize;
        for _ in 0..10 {
            let incl =
                u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
            pos += 16 + incl;
        }
        bytes[pos + 16 + 12] = 0xAB;
        bytes[pos + 16 + 13] = 0xCD;

        // Chop mid-record: the tolerant reader reports a truncation and
        // keeps everything before the break.
        let keep = bytes.len() - 11;
        bytes.truncate(keep);
        bytes
    })
}

fn stream_counters(capture: &[u8], max_flow_events: usize) -> BTreeMap<String, u64> {
    let metrics = MetricsSubscriber::new();
    let mut source = PcapStream::new(std::io::Cursor::new(capture), StallPolicy::Eof);
    let config = StreamConfig {
        max_flow_events,
        ..StreamConfig::default()
    };
    run_obs(&mut source, classifier(), &config, |_r| {}, &metrics)
        .expect("mid-stream damage is tolerated");
    metrics.snapshot().counters
}

fn offline_counters(capture: &[u8]) -> BTreeMap<String, u64> {
    let metrics = MetricsSubscriber::new();
    identify_bytes_obs(capture, classifier(), None, &metrics)
        .expect("mid-capture damage is tolerated");
    metrics.snapshot().counters
}

const DEFAULT_FLOW_CAP: usize = 1 << 16;

#[test]
fn stream_counters_match_offline() {
    let capture = damaged_capture();
    let offline = offline_counters(capture);
    let w1 = stream_counters(capture, DEFAULT_FLOW_CAP);

    assert!(w1["capture.frames_decoded"] > 0);
    assert_eq!(w1["capture.packets_skipped"], 1, "the clobbered frame");
    assert_eq!(w1["capture.truncations"], 1, "the chopped tail");
    assert!(w1["identify.sessions"] >= 1, "verdicts still emitted");

    // The offline reader agrees on everything that does not depend on
    // eviction *timing* (offline drains at EOF; streaming also evicts on
    // capture-time idleness — causes differ, totals must not).
    for name in [
        "capture.frames_decoded",
        "capture.bytes",
        "capture.packets_skipped",
        "capture.truncations",
        "capture.flows_opened",
        "identify.sessions",
        "identify.verdicts_identified",
        "identify.verdicts_unsure",
        "identify.verdicts_special",
        "identify.verdicts_invalid",
    ] {
        assert_eq!(w1[name], offline[name], "offline vs stream `{name}`");
    }
    let evicted_total = |m: &BTreeMap<String, u64>| {
        m["capture.flows_evicted_idle"]
            + m["capture.flows_evicted_overflow"]
            + m["capture.flows_evicted_drain"]
    };
    assert_eq!(evicted_total(&w1), w1["capture.flows_opened"], "no leaks");
    assert_eq!(evicted_total(&offline), offline["capture.flows_opened"]);
}

/// The eviction accounting contract, pinned explicitly: every flow the
/// pipeline opens is evicted exactly once, so the per-cause counters
/// (idle, overflow, drain) partition `flows_opened`, whichever cause mix
/// a configuration produces. A flow counted under two causes (or leaked
/// under none) breaks this sum before it breaks anything visible in
/// verdicts.
#[test]
fn eviction_causes_partition_flows_opened_for_every_worker_count() {
    let capture = damaged_capture();
    let count = |m: &BTreeMap<String, u64>, name: &str| m.get(name).copied().unwrap_or(0);
    let causes = |c: &BTreeMap<String, u64>| {
        (
            count(c, "capture.flows_evicted_idle"),
            count(c, "capture.flows_evicted_overflow"),
            count(c, "capture.flows_evicted_drain"),
        )
    };

    // Two regimes: the default config (idle evictions from the prober's
    // 630 s inter-connection gaps, drain evictions at EOF) and a tiny
    // per-flow event cap that forces the overflow cause into the mix.
    let by_cap = [DEFAULT_FLOW_CAP, 96].map(|max_flow_events| {
        let c = stream_counters(capture, max_flow_events);
        let opened = count(&c, "capture.flows_opened");
        let (idle, overflow, drain) = causes(&c);
        assert!(opened > 0, "the capture must open flows");
        assert_eq!(
            idle + overflow + drain,
            opened,
            "cap {max_flow_events}: eviction causes (idle {idle} + overflow \
             {overflow} + drain {drain}) must partition flows_opened"
        );
        (idle, overflow, drain, opened)
    });

    // The offline reader opens the same flows as the default regime and
    // knows one cause only: everything drains at the end of the capture.
    let offline = offline_counters(capture);
    let opened = count(&offline, "capture.flows_opened");
    assert_eq!(causes(&offline), (0, 0, opened));
    assert_eq!(by_cap[0].3, opened, "offline vs stream flows_opened");

    // The small cap actually exercised the overflow cause; the default
    // cap exercised idle. Guard both so the partition check never
    // silently degenerates to a single-cause tautology.
    assert!(by_cap[0].0 > 0, "the default cap must see idle evictions");
    assert!(
        by_cap[1].1 > 0,
        "a 96-event cap must force overflow evictions on probe flows"
    );
}

/// Deterministic value generator spreading samples across histogram
/// bucket magnitudes (xorshift, then a variable right shift). Values
/// stay below 2^40 — the realistic range for recorded metrics, and far
/// from overflowing a merged `sum`.
fn bucket_spread_values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (24 + (x % 40) as u32)
        })
        .collect()
}

fn histogram_of(values: &[u64]) -> caai::obs::HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Histogram snapshots merge associatively and commutatively, and
    /// any merge order equals recording everything into one histogram —
    /// the property census-merge and per-worker fan-in rely on.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        seed in 0u64..10_000,
        na in 0usize..40,
        nb in 0usize..40,
        nc in 0usize..40,
    ) {
        let a = bucket_spread_values(seed, na);
        let b = bucket_spread_values(seed.wrapping_add(1), nb);
        let c = bucket_spread_values(seed.wrapping_add(2), nc);
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert!(ab == ba, "merge must commute");

        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb;
        bc.merge(&hc);
        let mut a_bc = ha;
        a_bc.merge(&bc);
        prop_assert!(ab_c == a_bc, "merge must associate");

        let mut all = Vec::new();
        all.extend_from_slice(&a);
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert!(ab_c == histogram_of(&all), "merge == one-shot record");
    }
}

// ---------------------------------------------------------------- CLI --

fn caai(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("caai-metrics-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// One rendered single-server capture shared by the CLI tests.
fn fixture_path() -> String {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = tmp("fixture.pcap");
        let render = caai(&[
            "render-pcap",
            "--out",
            &path,
            "--algo",
            "RENO",
            "--seed",
            "5",
        ]);
        assert!(render.status.success(), "{render:?}");
        path
    })
    .clone()
}

fn final_counters(metrics_path: &str) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(metrics_path).expect("metrics file exists");
    let lines = caai::obs::validate_jsonl(&text).expect("schema-valid metrics file");
    lines
        .last()
        .expect("validated files are non-empty")
        .snapshot
        .counters
        .clone()
}

#[test]
fn identify_json_stdout_is_pure_json_and_metrics_validate() {
    let fixture = fixture_path();
    let metrics_path = tmp("identify.metrics.jsonl");
    let out = caai(&[
        "identify",
        "--pcap",
        &fixture,
        "--conditions",
        "1",
        "--json",
        "--metrics",
        &metrics_path,
    ]);
    assert!(out.status.success(), "{out:?}");

    // stdout is exactly one JSON document — diagnostics and metrics went
    // elsewhere.
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let doc: serde::Value =
        serde_json::from_str(stdout.trim()).expect("stdout parses as a single JSON document");
    let flows = serde::get_field(doc.as_map().expect("doc is an object"), "flows")
        .and_then(serde::Value::as_seq)
        .expect("doc carries a flows array")
        .len();

    let counters = final_counters(&metrics_path);
    assert_eq!(counters["identify.sessions"], flows as u64);
    assert_eq!(counters["capture.truncations"], 0, "clean input");
    assert_eq!(counters["capture.packets_skipped"], 0, "clean input");
    assert!(counters["capture.frames_decoded"] > 0);

    // The CI assertion tool agrees with what we just checked by hand.
    let check = caai(&[
        "metrics-check",
        "--in",
        &metrics_path,
        "--expect",
        "capture.truncations=0",
        "--expect-min",
        "capture.frames_decoded=1",
        "--expect",
        &format!("identify.sessions={flows}"),
    ]);
    assert!(check.status.success(), "{check:?}");
    let bad = caai(&[
        "metrics-check",
        "--in",
        &metrics_path,
        "--expect",
        "capture.truncations=99",
    ]);
    assert!(!bad.status.success(), "wrong expectation must fail");
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn follow_metrics_emit_per_granule_snapshots_that_validate() {
    let fixture = fixture_path();
    let metrics_path = tmp("follow.metrics.jsonl");
    let out = caai(&[
        "identify",
        "--pcap",
        &fixture,
        "--follow",
        "--conditions",
        "1",
        "--idle-timeout",
        "1",
        "--flow-timeout",
        "5",
        "--json",
        "--metrics",
        &metrics_path,
        "--progress",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");

    // --json keeps stdout pure JSONL: every line one verdict object.
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let verdicts = stdout.lines().count();
    for line in stdout.lines() {
        serde_json::from_str::<serde::Value>(line).expect("stdout line is a JSON verdict");
    }

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file exists");
    let lines = caai::obs::validate_jsonl(&text).expect("schema-valid metrics file");
    assert!(
        lines.len() >= 2,
        "follow mode writes per-granule snapshots before the final one: {}",
        lines.len()
    );
    let last = lines.last().expect("non-empty");
    assert_eq!(last.source, "identify-follow");
    assert_eq!(last.snapshot.counters["identify.sessions"], verdicts as u64);
    assert!(last.snapshot.counters["stream.granules"] > 0);

    // --progress landed on stderr, never stdout.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("follow: granule"), "stderr: {stderr}");
    assert!(!stdout.contains("follow: granule"));

    // At --progress 1 every granule writes one metrics line and one
    // progress line, both from the same snapshot: their counts agree.
    let progress: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("follow: granule"))
        .collect();
    let per_granule: Vec<_> = lines.iter().filter(|l| !l.is_final).collect();
    assert_eq!(progress.len(), per_granule.len(), "stderr: {stderr}");
    for (line, metrics) in progress.iter().zip(per_granule) {
        let count = |name: &str| metrics.snapshot.counters[name];
        let evicted = count("capture.flows_evicted_idle")
            + count("capture.flows_evicted_overflow")
            + count("capture.flows_evicted_drain");
        let counts = format!(
            "| {} frames, {} live flows, {evicted} evicted, {} skipped, {} sessions |",
            count("capture.frames_decoded"),
            count("capture.flows_opened") - evicted,
            count("capture.packets_skipped"),
            count("identify.sessions"),
        );
        assert!(line.contains(&counts), "{line:?} against {counts:?}");
    }
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn census_metrics_match_between_sigkilled_resume_and_uninterrupted_runs() {
    let base = |extra: &[&str]| {
        let mut args = vec![
            "census",
            "--servers",
            "30",
            "--conditions",
            "1",
            "--seed",
            "11",
            "--workers",
            "2",
        ];
        args.extend_from_slice(extra);
        args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()
    };
    let full_metrics = tmp("census-full.metrics.jsonl");
    let full = caai(
        &base(&["--metrics", &full_metrics])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(full.status.success(), "{full:?}");

    // Kill a checkpointing run as soon as its first snapshot lands, then
    // resume it to completion with --metrics.
    let ck = tmp("census.ck.json");
    let resumed_metrics = tmp("census-resumed.metrics.jsonl");
    let mut killed = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(base(&["--checkpoint", &ck, "--checkpoint-every", "1"]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn census");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !Path::new(&ck).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(Path::new(&ck).exists(), "census never checkpointed");
    killed.kill().expect("SIGKILL census"); // no-op if already exited
    killed.wait().expect("reap census");

    let resume = caai(
        &base(&[
            "--checkpoint",
            &ck,
            "--resume",
            &ck,
            "--metrics",
            &resumed_metrics,
        ])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>(),
    );
    assert!(resume.status.success(), "{resume:?}");

    // Where determinism requires equality — the verdict census itself —
    // the resumed run's counters match the uninterrupted run's exactly.
    // (gather.* and census.resumed legitimately differ: the resumed run
    // re-probes only the remainder.)
    let full_c = final_counters(&full_metrics);
    let resumed_c = final_counters(&resumed_metrics);
    for name in [
        "census.records",
        "census.identified",
        "census.unsure",
        "census.special",
        "census.invalid",
    ] {
        assert_eq!(
            full_c[name], resumed_c[name],
            "`{name}` diverged across kill+resume"
        );
    }
    assert_eq!(full_c["census.records"], 30);
    assert_eq!(full_c["census.resumed"], 0);
    // The checkpoint existed before the kill, so the resumed run loaded
    // at least one record instead of re-probing it.
    assert!(resumed_c["census.resumed"] > 0, "resume loaded nothing");
    for path in [&full_metrics, &ck, &resumed_metrics] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn census_progress_lines_render_the_metrics_counters() {
    // Runs a 60-server census; returns its stdout and its `census:` lines.
    let census = |extra: &[&str]| {
        let mut args = vec!["census", "--servers", "60", "--conditions", "1", "--json"];
        args.extend_from_slice(extra);
        let out = caai(&args);
        assert!(out.status.success(), "{out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        let lines: Vec<String> = stderr
            .lines()
            .filter(|line| line.starts_with("census: "))
            .map(str::to_owned)
            .collect();
        (out.stdout, lines)
    };
    let metrics_path = tmp("progress.metrics.jsonl");
    let (quiet_stdout, quiet) = census(&[]);
    let (stdout, lines) = census(&["--progress", "20", "--metrics", &metrics_path]);
    assert_eq!(stdout, quiet_stdout, "--progress never touches stdout");
    assert_eq!(quiet.len(), 1, "a quiet run prints only its closing line");

    // A progress line and its stage line every 20 records, then the
    // closing line; the last two carry exactly the --metrics counters.
    let counters = final_counters(&metrics_path);
    let totals = format!(
        "| id {} special {} unsure {} invalid {}",
        counters["census.identified"],
        counters["census.special"],
        counters["census.unsure"],
        counters["census.invalid"],
    );
    assert_eq!(lines.len(), 7, "{lines:#?}");
    for (pair, done) in lines.chunks(2).zip([20, 40, 60]) {
        let progress = format!("census: {done}/60 servers ({done} probed, 0 resumed) | ");
        assert!(pair[0].starts_with(&progress), "{pair:#?}");
        assert!(
            pair[1].starts_with("census: stages | gather p50 "),
            "{pair:#?}"
        );
    }
    for line in [&lines[4], &lines[6]] {
        assert!(line.starts_with("census: 60/60 servers"), "{line}");
        assert!(line.ends_with(&totals), "{line} vs {totals}");
    }

    // Resumed: what the checkpoint held is counted apart from what this
    // run probed, on the progress lines and the closing line alike.
    let ck = tmp("progress.ck.json");
    let budget = "--budget 25 --workers 1 --batch 1 --checkpoint";
    census(&[budget.split(' ').collect(), vec![&ck[..]]].concat());
    let r = Checkpoint::load(&ck).expect("checkpoint").completed_count();
    assert!(r == 25, "{r} records checkpointed");
    let (_, resumed) = census(&["--resume", &ck, "--progress", "20"]);
    let progress: Vec<String> = resumed
        .iter()
        .filter(|line| !line.starts_with("census: stages"))
        .map(|line| line.split(" | ").next().expect("split").to_owned())
        .collect();
    let expected: Vec<String> = (r + 1..=60)
        .filter(|done| done % 20 == 0)
        .chain([60])
        .map(|done| {
            format!(
                "census: {done}/60 servers ({} probed, {r} resumed)",
                done - r
            )
        })
        .collect();
    assert_eq!(progress, expected);
    for path in [&metrics_path, &ck] {
        std::fs::remove_file(path).ok();
    }
}
