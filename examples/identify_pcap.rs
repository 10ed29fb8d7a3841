//! The capture round trip, end to end: simulate probes of three servers,
//! render the wire exchange into a byte-valid pcap, then hand the *bytes
//! alone* to the ingestion pipeline and compare its verdicts against the
//! simulation's ground truth.
//!
//! ```sh
//! cargo run --release --example identify_pcap
//! ```
//!
//! The same flow is scriptable from the CLI:
//!
//! ```sh
//! caai render-pcap --out capture.pcap --algo CUBIC --algo RENO --short 1
//! caai identify --pcap capture.pcap --model model.json
//! ```

use caai::capture::{identify_capture, reassemble, sessions, CaptureRenderer, DEFAULT_LADDER};
use caai::congestion::AlgorithmId;
use caai::core::classify::CaaiClassifier;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};
use caai::obs::NullSubscriber;

fn main() {
    // ---- 1. Simulate and render. -----------------------------------
    let targets = [AlgorithmId::CubicV2, AlgorithmId::Reno, AlgorithmId::Htcp];
    let prober = Prober::new(ProberConfig::default());
    let mut renderer = CaptureRenderer::new();
    let mut rng = seeded(2025);
    let mut truths = Vec::new();
    for (i, algo) in targets.iter().enumerate() {
        let server = ServerUnderTest::ideal(*algo);
        let outcome = renderer
            .render_session(
                [192, 0, 2, 1],
                [198, 51, 100, i as u8 + 1],
                &server,
                &prober,
                &PathConfig::clean(),
                &mut rng,
            )
            .expect("in-memory render cannot fail");
        truths.push((*algo, outcome));
    }
    let capture = renderer.to_bytes();
    println!(
        "rendered {} bytes of pcap for {} probe sessions",
        capture.len(),
        targets.len()
    );

    // ---- 2. Reconstruct from the bytes alone. ----------------------
    let reassembly = reassemble(&capture).expect("well-formed capture");
    println!(
        "reassembled {} packets into {} TCP flows",
        reassembly.packets,
        reassembly.flows.len()
    );
    for (i, session) in sessions(&reassembly, &DEFAULT_LADDER).iter().enumerate() {
        let outcome = caai::capture::session_outcome(session, &DEFAULT_LADDER);
        let identical = outcome == truths[i].1;
        println!("session {i}: reconstructed outcome identical to simulation: {identical}");
        assert!(identical, "round-trip identity must hold");
    }

    // ---- 3. Classify the capture. ----------------------------------
    let db = ConditionDb::paper_2011();
    let mut train_rng = seeded(5);
    let data = build_training_set(&TrainingConfig::quick(2), &db, &mut train_rng);
    let classifier = CaaiClassifier::train(&data, &mut train_rng);
    let verdicts = identify_capture(&capture, &classifier, None, &NullSubscriber).expect("parses");
    println!();
    for (s, (truth, _)) in verdicts.sessions.iter().zip(&truths) {
        println!(
            "server {}.{}.{}.{}: verdict {:?}   (ground truth: {truth})",
            s.server_ip[0], s.server_ip[1], s.server_ip[2], s.server_ip[3], s.record.verdict,
        );
    }
}
