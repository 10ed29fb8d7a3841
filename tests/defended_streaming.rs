//! Integration: reordered traffic through the streaming pipeline.
//!
//! RTT jitter lands some data segments a measurement round late, behind
//! segments sent after them. That changes what the capture holds, not
//! what the pipeline may assume about it: the verdict stream is a pure
//! function of the capture bytes — identical to the whole-capture
//! reference's — even when delivery is out of order across rounds.

use caai::capture::packet::flags;
use caai::capture::{
    decode, identify_reassembly, reassemble, CaptureRenderer, PcapReader, SessionReport,
    DEFAULT_LADDER,
};
use caai::congestion::AlgorithmId;
use caai::core::classify::CaaiClassifier;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};
use caai::stream::{identify_bytes, run, PcapStream, StallPolicy, StreamConfig};
use std::collections::HashMap;
use std::sync::OnceLock;

fn classifier() -> &'static CaaiClassifier {
    static CLASSIFIER: OnceLock<CaaiClassifier> = OnceLock::new();
    CLASSIFIER.get_or_init(|| {
        let db = ConditionDb::paper_2011();
        let mut rng = seeded(3);
        let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
        CaaiClassifier::train(&data, &mut rng)
    })
}

/// Two probe sessions (RENO and CUBIC servers) over `path`, rendered
/// to classic pcap.
fn render(path: &PathConfig) -> Vec<u8> {
    let prober = Prober::new(ProberConfig::default());
    let mut renderer = CaptureRenderer::new();
    let mut rng = seeded(77);
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
                path,
                &mut rng,
            )
            .expect("in-memory render cannot fail");
    }
    renderer.to_bytes()
}

/// Data segments that arrive below the highest sequence number already
/// seen on their connection: the prober's emulated timeouts cause some
/// on any path, late deliveries add more.
fn out_of_order_segments(capture: &[u8]) -> usize {
    let mut reader = PcapReader::new(capture).expect("render output has a valid header");
    let mut high: HashMap<([u8; 4], u16, [u8; 4], u16), u32> = HashMap::new();
    let mut behind = 0;
    while let Some(record) = reader.next() {
        let record = record.expect("render output is undamaged");
        let seg = decode(record.data).expect("render output decodes");
        let flow = (seg.src_ip, seg.src_port, seg.dst_ip, seg.dst_port);
        if seg.has(flags::SYN) {
            high.remove(&flow);
            continue;
        }
        if seg.payload.is_empty() {
            continue;
        }
        let top = high.entry(flow).or_insert(seg.seq);
        if seg.seq.wrapping_sub(*top) as i32 >= 0 {
            *top = seg.seq;
        } else {
            behind += 1;
        }
    }
    behind
}

/// The canonical text of one verdict, covering everything a downstream
/// consumer reads: addresses, flow count, and the full verdict record.
fn line_of(report: &SessionReport) -> String {
    format!(
        "{:?} flows={} verdict={:?} id={:?}",
        report.server_ip, report.flows, report.record.verdict, report.identification
    )
}

fn stream_verdicts(capture: &[u8]) -> Vec<String> {
    let mut source = PcapStream::new(std::io::Cursor::new(capture), StallPolicy::Eof);
    let mut lines = Vec::new();
    let stats = run(
        &mut source,
        classifier(),
        &StreamConfig::default(),
        |report| lines.push(line_of(report)),
    )
    .expect("a reordered capture streams without error");
    assert!(stats.truncated.is_none(), "render output is undamaged");
    lines
}

#[test]
fn defended_capture_verdicts_are_identical_across_workers_and_offline() {
    // One data packet in ten lands a round late; none is lost or duplicated.
    let capture = &render(&PathConfig {
        late_prob: 0.1,
        ..PathConfig::clean()
    });
    // The jitter was genuinely on the wire, not a no-op.
    let late = out_of_order_segments(capture);
    let clean = out_of_order_segments(&render(&PathConfig::clean()));
    assert!(
        late > clean,
        "a 10% late path must reorder data segments: {late} behind vs {clean} on a clean path"
    );

    let reassembly = reassemble(capture).expect("an undamaged capture reassembles");
    let reference: Vec<String> = identify_reassembly(&reassembly, classifier(), &DEFAULT_LADDER)
        .iter()
        .map(line_of)
        .collect();
    assert_eq!(reference.len(), 2, "one verdict per probe session");
    let offline: Vec<String> = identify_bytes(capture, classifier(), None)
        .expect("offline read of an undamaged capture")
        .sessions
        .iter()
        .map(line_of)
        .collect();

    assert_eq!(
        stream_verdicts(capture),
        reference,
        "streaming and the whole-capture reference must agree on reordered traffic"
    );
    assert_eq!(
        offline, reference,
        "offline identification is the reference's"
    );
}
