//! Integration: the span/tracing layer end to end.
//!
//! The determinism contract under test: span *structure* — which spans
//! exist, how they nest, and their kind-specific arguments — is a pure
//! function of `(seed, server id)` on the engine path, identical for
//! every worker count and across a SIGKILL + resume; only timestamps
//! vary. On top of that, the event stream itself is well-formed (every
//! `SpanEnd` matches exactly one `SpanBegin`, parents close only after
//! all their children), `--trace` files are valid Chrome trace-event
//! JSON that `trace-report` attributes correctly, and a file cut by
//! SIGKILL is still salvageable line by line.

use caai::core::census::Census;
use caai::core::classify::CaaiClassifier;
use caai::core::prober::ProberConfig;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::{CensusEngine, EngineConfig};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::obs::{Event, SpanBegin, SpanEnd, SpanKind, Subscriber};
use caai::stream::{identify_bytes_obs, run_obs, PcapStream, StallPolicy, StreamConfig};
use caai::webmodel::PopulationConfig;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Mutex, OnceLock};
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

#[derive(Debug, Clone, Copy)]
enum LogEvent {
    Begin(SpanBegin),
    End(SpanEnd),
}

/// Records every span event in arrival order. The mutex serializes the
/// log globally while preserving each thread's program order, which is
/// all the nesting invariants need: a parent and its children always
/// share a thread or synchronize through a join.
#[derive(Default)]
struct SpanLog {
    events: Mutex<Vec<LogEvent>>,
}

impl SpanLog {
    fn take(&self) -> Vec<LogEvent> {
        std::mem::take(&mut self.events.lock().expect("log poisoned"))
    }
}

impl Subscriber for SpanLog {
    fn on_event(&self, event: &Event<'_>) {
        let entry = match event {
            Event::SpanBegin(e) => LogEvent::Begin(*e),
            Event::SpanEnd(e) => LogEvent::End(*e),
            _ => return,
        };
        self.events.lock().expect("log poisoned").push(entry);
    }
}

/// Asserts the stream's well-formedness: unique begins, every end
/// matching exactly one live begin, every span ended by the time the run
/// finished, and no parent closing while a child is still open.
fn assert_well_formed(log: &[LogEvent]) {
    let mut open: HashMap<u64, u64> = HashMap::new(); // id -> parent
    let mut open_children: HashMap<u64, u64> = HashMap::new(); // id -> live child count
    let mut seen: HashSet<u64> = HashSet::new();
    for ev in log {
        match ev {
            LogEvent::Begin(b) => {
                assert!(b.id != 0, "span ids are never 0");
                assert!(seen.insert(b.id), "span {} began twice", b.id);
                if b.parent != 0 {
                    assert!(
                        open.contains_key(&b.parent),
                        "span {} begins under parent {} which is not open",
                        b.id,
                        b.parent
                    );
                    *open_children.entry(b.parent).or_default() += 1;
                }
                open.insert(b.id, b.parent);
            }
            LogEvent::End(e) => {
                let parent = open
                    .remove(&e.id)
                    .unwrap_or_else(|| panic!("span {} ended without a matching begin", e.id));
                assert_eq!(
                    open_children.remove(&e.id).unwrap_or(0),
                    0,
                    "span {} ended while children were still open",
                    e.id
                );
                if parent != 0 {
                    if let Some(n) = open_children.get_mut(&parent) {
                        *n -= 1;
                    }
                }
            }
        }
    }
    assert!(
        open.is_empty(),
        "{} spans never ended: {:?}",
        open.len(),
        open.keys().take(8).collect::<Vec<_>>()
    );
}

/// Per-server structural signature: every deterministic-kind span that
/// belongs to the server's probe, in begin order, with its kind-specific
/// arguments. Two runs agree on a server exactly when these strings are
/// byte-identical.
fn per_server_signatures(log: &[LogEvent]) -> BTreeMap<i64, String> {
    let mut server_of: HashMap<u64, Option<i64>> = HashMap::new();
    let mut sigs: BTreeMap<i64, String> = BTreeMap::new();
    for ev in log {
        let LogEvent::Begin(b) = ev else { continue };
        let server = match b.kind {
            // Gather roots a subtree; Classify is its sibling under the
            // batch span — both carry the server id in arg0.
            SpanKind::Gather | SpanKind::Classify => Some(b.arg0),
            _ => server_of.get(&b.parent).copied().flatten(),
        };
        server_of.insert(b.id, server);
        let Some(sid) = server else { continue };
        if b.kind.deterministic() {
            sigs.entry(sid).or_default().push_str(&format!(
                "{}({},{})|",
                b.kind.name(),
                b.arg0,
                b.arg1
            ));
        }
    }
    sigs
}

fn engine_span_log(seed: u64, servers: u32, workers: usize) -> Vec<LogEvent> {
    let census = Census::new(
        classifier().clone(),
        ConditionDb::paper_2011(),
        ProberConfig::default(),
    );
    let engine = CensusEngine::new(
        census,
        EngineConfig {
            seed,
            workers,
            batch_size: 4,
            ..EngineConfig::default()
        },
    );
    let population = PopulationConfig::small(servers).generate(&mut seeded(seed));
    let log = SpanLog::default();
    engine
        .run_obs(&population, &mut [], None, &log)
        .expect("engine run");
    log.take()
}

#[test]
fn engine_span_structure_is_worker_count_invariant() {
    let w1 = engine_span_log(7, 12, 1);
    let w2 = engine_span_log(7, 12, 2);
    let w4 = engine_span_log(7, 12, 4);
    assert_well_formed(&w1);
    assert_well_formed(&w2);
    assert_well_formed(&w4);

    let (s1, s2, s4) = (
        per_server_signatures(&w1),
        per_server_signatures(&w2),
        per_server_signatures(&w4),
    );
    assert_eq!(s1.len(), 12, "every server roots a gather subtree");
    assert_eq!(s1, s2, "1-worker vs 2-worker span structure diverges");
    assert_eq!(s1, s4, "1-worker vs 4-worker span structure diverges");

    // The signatures actually carry the ladder: at least one server
    // walked a rung with measured rounds.
    assert!(
        s1.values().any(|s| s.contains("gather.rung")),
        "no rung spans recorded: {s1:?}"
    );
    assert!(s1.values().any(|s| s.contains("gather.round")));
    assert!(s1.values().all(|s| s.contains("classify")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary seeds, the span stream stays well-formed and the
    /// per-server structure is identical between a serial and a
    /// parallel run — the proptest form of the determinism contract.
    #[test]
    fn span_stream_is_well_formed_and_deterministic(seed in 0u64..1000) {
        let a = engine_span_log(seed, 6, 1);
        let b = engine_span_log(seed, 6, 3);
        assert_well_formed(&a);
        assert_well_formed(&b);
        prop_assert!(per_server_signatures(&a) == per_server_signatures(&b));
    }
}

/// The streaming pipeline honors the same contract for its deterministic
/// kinds: a span stream that is well formed, and as many flow spans,
/// session replays and classifies as offline identification makes over
/// the same capture. Offline is the same pipeline run to EOF, so it opens
/// and closes one flow span per flow too.
#[test]
fn stream_deterministic_span_counts_match_offline() {
    let fixture = fixture_path();
    let capture = std::fs::read(&fixture).expect("fixture exists");
    let counts = |streaming: bool| -> BTreeMap<&'static str, usize> {
        let log = SpanLog::default();
        if streaming {
            let mut source = PcapStream::new(std::io::Cursor::new(&capture[..]), StallPolicy::Eof);
            run_obs(
                &mut source,
                classifier(),
                &StreamConfig::default(),
                |_r| {},
                &log,
            )
            .expect("stream run");
        } else {
            identify_bytes_obs(&capture, classifier(), None, &log).expect("offline run");
        }
        let log = log.take();
        assert_well_formed(&log);
        let mut out = BTreeMap::new();
        for ev in &log {
            if let LogEvent::Begin(b) = ev {
                if b.kind.deterministic() {
                    *out.entry(b.kind.name()).or_default() += 1;
                }
            }
        }
        out
    };
    let stream = counts(true);
    assert!(stream["session.replay"] > 0 && stream["classify"] > 0);
    assert!(stream["flow"] > 0);
    assert_eq!(stream, counts(false), "stream vs offline");
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
        .join(format!("caai-trace-{}-{name}", std::process::id()))
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

/// Per-server signature rebuilt from a trace *file* (post-order, since
/// complete events are written at span end): deterministic-kind spans
/// with their kind-specific args, excluding wall/virtual timestamps.
fn file_signatures(path: &str) -> BTreeMap<i64, String> {
    let read = caai::obs::report::read_file(Path::new(path)).expect("trace file readable");
    let by_id: HashMap<u64, &caai::obs::report::RawSpan> =
        read.spans.iter().map(|s| (s.id, s)).collect();
    let mut sigs: BTreeMap<i64, String> = BTreeMap::new();
    for span in &read.spans {
        let Some(kind) = span.kind else { continue };
        if !kind.deterministic() {
            continue;
        }
        // Walk parent links to the rooting gather/classify span.
        let mut cur = span;
        let server = loop {
            match cur.kind {
                Some(SpanKind::Gather) | Some(SpanKind::Classify) => {
                    break cur.arg("server_id").map(|v| v as i64)
                }
                _ => {}
            }
            match by_id.get(&cur.parent) {
                Some(p) if cur.parent != 0 => cur = p,
                _ => break None,
            }
        };
        let Some(sid) = server else { continue };
        let mut args: Vec<String> = span
            .args
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "parent" | "virt" | "virt_dur"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        args.sort();
        sigs.entry(sid)
            .or_default()
            .push_str(&format!("{}[{}]|", span.name, args.join(",")));
    }
    sigs
}

/// SIGKILL + resume on the engine path, at the CLI: the resumed run's
/// per-server span structure matches the uninterrupted run's exactly,
/// the killed run's cut-off trace file salvages without errors, and
/// between them the two traces cover every server.
#[test]
fn census_trace_structure_survives_sigkill_and_resume() {
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
    let full_trace = tmp("census-full.trace.json");
    let full = caai(
        &base(&["--trace", &full_trace])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(full.status.success(), "{full:?}");
    let full_sigs = file_signatures(&full_trace);
    assert_eq!(full_sigs.len(), 30, "every server traced");

    // Kill a checkpointing traced run as soon as its first snapshot
    // lands, then resume it to completion with a second trace file.
    let ck = tmp("census.ck.json");
    let killed_trace = tmp("census-killed.trace.json");
    let resumed_trace = tmp("census-resumed.trace.json");
    let mut killed = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(base(&[
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "1",
            "--trace",
            &killed_trace,
        ]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn census");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !Path::new(&ck).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(Path::new(&ck).exists(), "census never checkpointed");
    killed.kill().expect("SIGKILL census");
    killed.wait().expect("reap census");

    let resume = caai(
        &base(&[
            "--checkpoint",
            &ck,
            "--resume",
            &ck,
            "--trace",
            &resumed_trace,
        ])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>(),
    );
    assert!(resume.status.success(), "{resume:?}");

    // The killed run's file was cut mid-write, but the streamed format
    // salvages per line: no hard failure, and whatever gathers completed
    // before the kill carry the same structure as the full run's.
    let killed_sigs = file_signatures(&killed_trace);
    for (sid, sig) in &killed_sigs {
        if full_sigs.get(sid).is_some_and(|full| full == sig) {
            continue;
        }
        // A subtree cut by the SIGKILL mid-gather is allowed to be a
        // prefix-shaped fragment; it must never contain spans the full
        // run does not have.
        assert!(
            sig.split('|').all(|piece| full_sigs
                .get(sid)
                .is_some_and(|full| piece.is_empty() || full.contains(piece))),
            "server {sid}: killed-run spans not present in the full run"
        );
    }

    // The resumed run re-probes only incomplete servers, and every one
    // it touches reproduces the uninterrupted structure byte for byte.
    let resumed_sigs = file_signatures(&resumed_trace);
    assert!(!resumed_sigs.is_empty(), "resume re-probed nothing");
    for (sid, sig) in &resumed_sigs {
        assert_eq!(
            Some(sig),
            full_sigs.get(sid),
            "server {sid}: resumed span structure diverged from the full run"
        );
    }

    // Between them, the two runs traced the whole population.
    let covered: HashSet<i64> = killed_sigs
        .keys()
        .chain(resumed_sigs.keys())
        .copied()
        .collect();
    assert_eq!(covered.len(), 30, "killed + resumed must cover all servers");

    for path in [&full_trace, &ck, &killed_trace, &resumed_trace] {
        std::fs::remove_file(path).ok();
    }
}

/// `--trace` on offline identify produces a finished, strictly valid
/// JSON document whose span census `trace-report` attributes, and
/// `--trace-sample` drops gather subtrees wholesale.
#[test]
fn identify_trace_is_valid_json_and_trace_report_attributes_it() {
    let fixture = fixture_path();
    let trace_path = tmp("identify.trace.json");
    let out = caai(&[
        "identify",
        "--pcap",
        &fixture,
        "--conditions",
        "1",
        "--json",
        "--trace",
        &trace_path,
    ]);
    assert!(out.status.success(), "{out:?}");

    // Finished cleanly -> strictly valid JSON, not just salvageable.
    let text = std::fs::read_to_string(&trace_path).expect("trace file exists");
    let doc: serde::Value = serde_json::from_str(&text).expect("trace is strict JSON");
    let events = doc.as_seq().expect("trace is a JSON array");
    assert!(!events.is_empty());

    let read = caai::obs::report::read_str(&text);
    assert_eq!(read.skipped, 0, "clean file, nothing to salvage");
    assert_eq!(read.unmatched_begins, 0, "every span closed");
    assert!(read
        .spans
        .iter()
        .any(|s| s.kind == Some(SpanKind::Reassembly)));
    assert!(read
        .spans
        .iter()
        .any(|s| s.kind == Some(SpanKind::Classify)));

    let report = caai(&["trace-report", "--in", &trace_path]);
    assert!(report.status.success(), "{report:?}");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("stage attribution"), "{stdout}");
    assert!(stdout.contains("reassembly"), "{stdout}");

    // The offline capture path has no gather stage at all, so the CI
    // gather-dominance gate must fail here and pass on a census trace.
    let gate = caai(&[
        "trace-report",
        "--in",
        &trace_path,
        "--min-gather-share",
        "0.5",
    ]);
    assert!(!gate.status.success(), "no gather stage -> gate fails");
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn census_trace_sample_drops_gather_subtrees_and_passes_gather_gate() {
    let trace_all = tmp("census-all.trace.json");
    let trace_sampled = tmp("census-sampled.trace.json");
    for (path, sample) in [(&trace_all, "1"), (&trace_sampled, "5")] {
        let out = caai(&[
            "census",
            "--servers",
            "20",
            "--conditions",
            "1",
            "--seed",
            "9",
            "--trace",
            path,
            "--trace-sample",
            sample,
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    let count_gathers = |path: &str| {
        caai::obs::report::read_file(Path::new(path))
            .expect("readable")
            .spans
            .iter()
            .filter(|s| s.kind == Some(SpanKind::Gather))
            .count()
    };
    assert_eq!(count_gathers(&trace_all), 20);
    assert_eq!(count_gathers(&trace_sampled), 4, "ids 0,5,10,15 kept");

    // A census trace is gather-dominated; the CI gate passes.
    let gate = caai(&[
        "trace-report",
        "--in",
        &trace_all,
        "--min-gather-share",
        "0.5",
    ]);
    assert!(gate.status.success(), "{gate:?}");
    let stdout = String::from_utf8_lossy(&gate.stdout);
    assert!(stdout.contains("gather breakdown by rung"), "{stdout}");
    for path in [&trace_all, &trace_sampled] {
        std::fs::remove_file(path).ok();
    }
}
