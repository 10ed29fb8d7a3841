//! Integration: defended traffic through the streaming pipeline.
//!
//! The defense transforms (dummy-packet padding, timing jitter) change
//! what the server puts on the wire, not what the pipeline may assume
//! about it. A capture of a *defended* probe round-trip must therefore
//! flow through the streaming pipeline exactly like an undefended one:
//! the verdict stream is a pure function of the capture bytes —
//! identical to the offline reader's — even when padding has inserted
//! dummy segments and jitter has reordered delivery into later rounds.

use caai::capture::{CaptureRenderer, SessionReport};
use caai::congestion::AlgorithmId;
use caai::core::classify::CaaiClassifier;
use caai::core::defense_eval::spec_for;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};
use caai::stream::{identify_bytes, run, PcapStream, StallPolicy, StreamConfig};
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

/// Two probe sessions against servers deploying the combined
/// padding + jitter defense at a 30% overhead budget.
fn defended_capture() -> &'static [u8] {
    static CAPTURE: OnceLock<Vec<u8>> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let config = ProberConfig {
            defense: Some(spec_for("combined", 0.30, 32)),
            ..ProberConfig::default()
        };
        let prober = Prober::new(config);
        let mut renderer = CaptureRenderer::new();
        let mut rng = seeded(77);
        for (host, algo) in [AlgorithmId::Reno, AlgorithmId::CubicV2]
            .into_iter()
            .enumerate()
        {
            let outcome = renderer
                .render_session(
                    [192, 0, 2, 1],
                    [198, 51, 100, host as u8 + 1],
                    &ServerUnderTest::ideal(algo),
                    &prober,
                    &PathConfig::clean(),
                    &mut rng,
                )
                .expect("in-memory render cannot fail");
            // The defense was genuinely on the wire, not a no-op.
            let overhead = outcome
                .defense_overhead
                .expect("a defended prober config reports overhead");
            assert!(
                overhead.fraction() > 0.0,
                "combined defense at 30% budget must add overhead"
            );
        }
        renderer.to_bytes()
    })
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
    .expect("a clean defended capture streams without error");
    assert!(stats.truncated.is_none(), "render output is undamaged");
    lines
}

#[test]
fn defended_capture_verdicts_are_identical_across_workers_and_offline() {
    let capture = defended_capture();

    let offline: Vec<String> = identify_bytes(capture, classifier(), None)
        .expect("offline read of a clean capture")
        .sessions
        .iter()
        .map(line_of)
        .collect();
    assert_eq!(offline.len(), 2, "one verdict per defended session");

    assert_eq!(
        stream_verdicts(capture),
        offline,
        "streaming and offline must agree on defended traffic"
    );
}
