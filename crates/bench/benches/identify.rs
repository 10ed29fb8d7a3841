//! The identification-pipeline benchmark suite behind `BENCH_identify.json`.
//!
//! Covers the stages a verdict costs: trace gathering (the emulated
//! probe), feature extraction + random-forest classification, pcap
//! ingestion (bytes → flows → window traces → verdicts), the streaming
//! pipeline, the live-socket transport
//! at 1/2/4 concurrent reactor sessions against loopback emulated
//! servers, and the observability overhead pair (null vs counting
//! subscriber through the same `_obs` entry points). Unlike the other benches this one has a hand-rolled
//! `main`: after running the groups it writes the measurements — each
//! tagged with its input shape (bytes/packets/flows) — to
//! `BENCH_identify.json` at the repository root, so the perf trajectory
//! of the identify path is recorded machine-readably run over run.

use caai_capture::{
    identify_reassembly, identify_reassembly_obs, reassemble, reassemble_obs, CaptureRenderer,
    DEFAULT_LADDER,
};
use caai_congestion::AlgorithmId;
use caai_core::classify::CaaiClassifier;
use caai_core::features::extract_pair;
use caai_core::prober::{NoopTap, Prober, ProberConfig};
use caai_core::server_under_test::ServerUnderTest;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_net::reactor::NetConfig;
use caai_net::{Behavior, EmulatedServer, NetTransport, ServerProfile};
use caai_netem::rng::seeded;
use caai_netem::{ConditionDb, PathConfig};
use caai_obs::{MetricsSubscriber, NullSubscriber};
use caai_stream::{run, PcapStream, StallPolicy, StreamConfig};
use criterion::{Criterion, InputMeta, Throughput};
use std::hint::black_box;

fn quick_classifier() -> CaaiClassifier {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(3);
    let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
    CaaiClassifier::train(&data, &mut rng)
}

fn bench_trace_gathering(c: &mut Criterion) {
    let mut group = c.benchmark_group("identify_trace_gathering");
    group.sample_size(10);
    // One full probe per iteration: rate_per_sec reads as probes/s.
    group.throughput(Throughput::Elements(1));
    let prober = Prober::new(ProberConfig::default());
    for algo in [AlgorithmId::Reno, AlgorithmId::CubicV2] {
        let server = ServerUnderTest::ideal(algo);
        group.bench_function(format!("{algo}"), |b| {
            let mut rng = seeded(17);
            b.iter(|| black_box(prober.gather(&server, &PathConfig::clean(), &mut rng)));
        });
    }
    group.finish();
}

fn bench_feature_classify(c: &mut Criterion) {
    let classifier = quick_classifier();
    let prober = Prober::new(ProberConfig::default());
    let server = ServerUnderTest::ideal(AlgorithmId::Htcp);
    let pair = prober
        .gather(&server, &PathConfig::clean(), &mut seeded(19))
        .pair
        .expect("ideal HTCP gathers");

    let mut group = c.benchmark_group("identify_features_and_forest");
    group.sample_size(20);
    // One vector through the stage per iteration: classifications/s.
    group.throughput(Throughput::Elements(1));
    group.bench_function("extract_pair", |b| {
        b.iter(|| black_box(extract_pair(black_box(&pair))));
    });
    let vector = extract_pair(&pair);
    group.bench_function("forest_classify", |b| {
        b.iter(|| black_box(classifier.classify(black_box(&vector))));
    });
    group.bench_function("extract_and_classify", |b| {
        b.iter(|| black_box(classifier.classify(&extract_pair(black_box(&pair)))));
    });
    group.finish();
}

/// Renders the three-server capture (two identifiable, one from an
/// algorithm outside the quick model) every ingestion group consumes,
/// plus its input shape for the BENCH entries.
fn render_capture() -> (Vec<u8>, InputMeta) {
    let prober = Prober::new(ProberConfig::default());
    let mut renderer = CaptureRenderer::new();
    let mut rng = seeded(23);
    for (host, algo) in [AlgorithmId::CubicV2, AlgorithmId::Reno, AlgorithmId::Bic]
        .into_iter()
        .enumerate()
    {
        let server = ServerUnderTest::ideal(algo);
        renderer
            .render_session(
                [192, 0, 2, 1],
                [198, 51, 100, host as u8 + 1],
                &server,
                &prober,
                &PathConfig::clean(),
                &mut rng,
            )
            .expect("in-memory render cannot fail");
    }
    let capture = renderer.to_bytes();
    let reassembly = reassemble(&capture).expect("own render ingests");
    let meta = InputMeta {
        bytes: Some(capture.len() as u64),
        packets: Some(reassembly.packets as u64),
        flows: Some(reassembly.flows.len() as u64),
    };
    (capture, meta)
}

fn bench_pcap_ingestion(c: &mut Criterion) {
    // The same capture shape the CI smoke job exercises.
    let classifier = quick_classifier();
    let prober = Prober::new(ProberConfig::default());
    let (capture, meta) = render_capture();

    let mut group = c.benchmark_group("identify_pcap_ingestion");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(capture.len() as u64));
    group.input_meta(meta);
    group.bench_function("reassemble", |b| {
        b.iter(|| black_box(reassemble(black_box(&capture)).expect("valid capture")));
    });
    group.bench_function("reassemble_and_identify", |b| {
        b.iter(|| {
            let r = reassemble(black_box(&capture)).expect("valid capture");
            black_box(identify_reassembly(&r, &classifier, &DEFAULT_LADDER))
        });
    });
    group.finish();

    // The streaming pipeline over the same bytes: full source framing,
    // reassembly, eviction, session assembly and classification.
    let mut stream = c.benchmark_group("identify_stream_ingestion");
    stream.sample_size(10);
    stream.throughput(Throughput::Bytes(capture.len() as u64));
    stream.input_meta(meta);
    stream.bench_function("run", |b| {
        let config = StreamConfig::default();
        b.iter(|| {
            let mut source = PcapStream::new(
                std::io::Cursor::new(black_box(&capture[..])),
                StallPolicy::Eof,
            );
            let mut verdicts = 0usize;
            let stats =
                run(&mut source, &classifier, &config, |_r| verdicts += 1).expect("valid capture");
            black_box((stats, verdicts))
        });
    });
    stream.finish();

    let mut render = c.benchmark_group("identify_pcap_render");
    render.sample_size(10);
    render.throughput(Throughput::Bytes(capture.len() as u64));
    render.input_meta(meta);
    render.bench_function("render_three_sessions", |b| {
        b.iter(|| {
            let mut renderer = CaptureRenderer::new();
            let mut rng = seeded(23);
            for (host, algo) in [AlgorithmId::CubicV2, AlgorithmId::Reno, AlgorithmId::Bic]
                .into_iter()
                .enumerate()
            {
                let server = ServerUnderTest::ideal(algo);
                renderer
                    .render_session(
                        [192, 0, 2, 1],
                        [198, 51, 100, host as u8 + 1],
                        &server,
                        &prober,
                        &PathConfig::clean(),
                        &mut rng,
                    )
                    .expect("in-memory render cannot fail");
            }
            black_box(renderer.to_bytes())
        });
    });
    render.finish();
}

/// Pins the zero-cost claim measurably: the same ingest and gather work
/// through the `_obs` entry points with the [`NullSubscriber`] (what
/// every un-instrumented public call compiles down to) vs a counting
/// [`MetricsSubscriber`] (what `--metrics` pays). The null rows should
/// track the matching uninstrumented groups above; the metrics rows
/// bound the cost of counting everything.
fn bench_obs_overhead(c: &mut Criterion) {
    let classifier = quick_classifier();
    let (capture, meta) = render_capture();
    let metrics = MetricsSubscriber::new();

    let mut group = c.benchmark_group("identify_obs_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(capture.len() as u64));
    group.input_meta(meta);
    group.bench_function("ingest_null", |b| {
        b.iter(|| {
            let r = reassemble_obs(black_box(&capture), &NullSubscriber).expect("valid capture");
            black_box(identify_reassembly_obs(
                &r,
                &classifier,
                &DEFAULT_LADDER,
                &NullSubscriber,
            ))
        });
    });
    group.bench_function("ingest_metrics", |b| {
        b.iter(|| {
            let r = reassemble_obs(black_box(&capture), &metrics).expect("valid capture");
            black_box(identify_reassembly_obs(
                &r,
                &classifier,
                &DEFAULT_LADDER,
                &metrics,
            ))
        });
    });

    // One full probe per iteration; no capture input.
    group.throughput(Throughput::Elements(1));
    group.input_meta(InputMeta::default());
    let prober = Prober::new(ProberConfig::default());
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    group.bench_function("gather_null", |b| {
        let mut rng = seeded(17);
        b.iter(|| {
            black_box(prober.gather_observed(
                &server,
                &PathConfig::clean(),
                &mut rng,
                &mut NoopTap,
                &NullSubscriber,
            ))
        });
    });
    group.bench_function("gather_metrics", |b| {
        let mut rng = seeded(17);
        b.iter(|| {
            black_box(prober.gather_observed(
                &server,
                &PathConfig::clean(),
                &mut rng,
                &mut NoopTap,
                &metrics,
            ))
        });
    });
    group.finish();
}

/// What one unit of `rate_per_sec` means for this entry. Byte-counted
/// groups are bytes/s; element-counted groups are whatever one element
/// is in that group (a full probe, or one vector through the
/// feature/forest stage).
fn rate_unit(r: &criterion::BenchResult) -> Option<&'static str> {
    match r.throughput? {
        Throughput::Bytes(_) => Some("bytes/s"),
        Throughput::Elements(_) => Some(if r.group == "identify_features_and_forest" {
            "classifications/s"
        } else {
            "probes/s"
        }),
    }
}

/// Serializes the collected measurements as the `BENCH_identify.json`
/// document (hand-formatted: group/id strings are plain ASCII). v2 added
/// the per-entry `input` object (bytes/packets/flows per iteration); v3
/// adds `rate_unit`, naming what `rate_per_sec` counts — the bytes/s
/// ingestion groups and probes/s gather groups differ by six orders of
/// magnitude, so the unit must travel with the number.
fn results_json(c: &Criterion) -> String {
    let mut out = String::from("{\n  \"schema\": \"caai-bench-identify-v3\",\n  \"benches\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        let rate = r
            .rate_per_sec()
            .map_or("null".to_owned(), |x| format!("{x:.1}"));
        let unit = rate_unit(r).map_or("null".to_owned(), |u| format!("\"{u}\""));
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |n| n.to_string());
        let input = if r.input.is_empty() {
            "null".to_owned()
        } else {
            format!(
                "{{\"bytes\": {}, \"packets\": {}, \"flows\": {}}}",
                opt(r.input.bytes),
                opt(r.input.packets),
                opt(r.input.flows),
            )
        };
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {}, \"rate_per_sec\": {}, \
             \"rate_unit\": {}, \"input\": {}}}{}\n",
            r.group,
            r.id,
            r.median_ns,
            rate,
            unit,
            input,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The live-socket transport end to end: full ladder probes of loopback
/// emulated servers, at growing concurrent-session caps. Throughput is
/// probes/s. On loopback the peer answers instantly, so this measures
/// the reactor thread's ceiling — since the wire carries runs, its 64
/// wake-ups per probe rather than its per-ACK work; against real RTTs
/// the caps would overlap waiting instead. The caps reach 64 because
/// ROADMAP 3(b) asked where the scaling stops.
fn bench_net_transport(c: &mut Criterion) {
    let classifier = quick_classifier();
    let mut group = c.benchmark_group("identify_net_transport");
    group.sample_size(10);
    for cap in [1usize, 2, 4, 16, 64] {
        let servers: Vec<EmulatedServer> = (0..cap)
            .map(|_| {
                EmulatedServer::spawn(ServerProfile::ideal(AlgorithmId::CubicV2), Behavior::Normal)
                    .expect("spawn emulated server")
            })
            .collect();
        let targets = servers.iter().map(|s| s.target()).collect();
        let transport = NetTransport::new(
            targets,
            classifier.clone(),
            NetConfig {
                max_sessions: cap,
                ..NetConfig::default()
            },
            std::sync::Arc::new(NullSubscriber),
        )
        .expect("start reactor");
        // `cap` probes per iteration, all in flight at once.
        group.throughput(Throughput::Elements(cap as u64));
        group.bench_function(format!("sessions_{cap}"), |b| {
            b.iter(|| {
                let receivers: Vec<_> = (0..cap as u32)
                    .map(|id| transport.probe_async(id))
                    .collect();
                for rx in receivers {
                    let result = rx.recv().expect("reactor alive");
                    assert!(result.outcome.pair.is_some(), "probe must stay usable");
                    black_box(result);
                }
            });
        });
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_trace_gathering(&mut criterion);
    bench_feature_classify(&mut criterion);
    bench_pcap_ingestion(&mut criterion);
    bench_net_transport(&mut criterion);
    bench_obs_overhead(&mut criterion);

    // CARGO_MANIFEST_DIR is crates/bench; the repo root is two up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_identify.json");
    std::fs::write(path, results_json(&criterion)).expect("write BENCH_identify.json");
    println!("wrote {path}");
}
