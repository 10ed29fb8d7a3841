//! Round-trip identity: simulate → render pcap → ingest must reproduce
//! the exact traces and the exact identification of the direct simulated
//! path (the `caai-capture` acceptance oracle).
//!
//! The simulation side uses `Prober::gather_observed` (whose outcome is
//! asserted identical to the untapped `gather`), the wire side only ever
//! sees capture bytes.

use caai::capture::{reassemble, session_outcome, sessions, CaptureRenderer};
use caai::congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai::core::classify::CaaiClassifier;
use caai::core::features::extract_pair;
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};

const CLIENT: [u8; 4] = [192, 0, 2, 1];
const SERVER: [u8; 4] = [198, 51, 100, 1];

/// Renders a probe of `algo` at a pinned rung and returns (direct
/// outcome, ingested outcome).
fn roundtrip(
    algo: AlgorithmId,
    config: ProberConfig,
) -> (
    caai::core::prober::GatherOutcome,
    caai::core::prober::GatherOutcome,
) {
    let ladder = config.wmax_ladder.clone();
    let prober = Prober::new(config);
    let server = ServerUnderTest::ideal(algo);

    let mut renderer = CaptureRenderer::new();
    let direct = renderer
        .render_session(
            CLIENT,
            SERVER,
            &server,
            &prober,
            &PathConfig::clean(),
            &mut seeded(42),
        )
        .expect("in-memory render cannot fail");
    // The tap must not perturb the measurement.
    let untapped = prober.gather(&server, &PathConfig::clean(), &mut seeded(42));
    assert_eq!(direct, untapped, "{algo:?}: tapping changed the outcome");

    let bytes = renderer.to_bytes();
    let reassembly = reassemble(&bytes).expect("rendered captures parse");
    assert!(reassembly.truncated.is_none());
    assert!(reassembly.skipped.is_empty(), "{:?}", reassembly.skipped);
    let sessions = sessions(&reassembly, &ladder);
    assert_eq!(sessions.len(), 1, "{algo:?}: one probe session expected");
    let ingested = session_outcome(&sessions[0], &ladder);
    (direct, ingested)
}

#[test]
fn every_identified_algorithm_roundtrips_at_two_rungs() {
    for algo in ALL_IDENTIFIED {
        for wmax in [512u32, 128] {
            let (direct, ingested) = roundtrip(algo, ProberConfig::fixed_wmax(wmax));
            assert_eq!(
                direct, ingested,
                "{algo:?} at w_max {wmax}: ingested outcome diverged"
            );
        }
    }
}

#[test]
fn full_ladder_walk_roundtrips() {
    // YEAH descends a rung in the default ladder; BIC stays at the top;
    // both walks must reconstruct exactly, failed attempts included.
    for algo in [AlgorithmId::Yeah, AlgorithmId::Bic, AlgorithmId::Vegas] {
        let (direct, ingested) = roundtrip(algo, ProberConfig::default());
        assert_eq!(direct, ingested, "{algo:?}: ladder walk diverged");
    }
}

#[test]
fn identification_is_identical_for_direct_and_ingested_pairs() {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(7);
    let data = build_training_set(&TrainingConfig::quick(2), &db, &mut rng);
    let classifier = CaaiClassifier::train(&data, &mut rng);

    for algo in [
        AlgorithmId::Reno,
        AlgorithmId::CubicV2,
        AlgorithmId::Htcp,
        AlgorithmId::WestwoodPlus,
    ] {
        for wmax in [512u32, 128] {
            let (direct, ingested) = roundtrip(algo, ProberConfig::fixed_wmax(wmax));
            let (Some(a), Some(b)) = (direct.pair, ingested.pair) else {
                continue;
            };
            let direct_id = classifier.classify(&extract_pair(&a));
            let ingested_id = classifier.classify(&extract_pair(&b));
            assert_eq!(
                direct_id, ingested_id,
                "{algo:?} at {wmax}: identification diverged"
            );
        }
    }
}

#[test]
fn lossy_path_ingestion_is_deterministic_and_panic_free() {
    // Under loss the reconstruction is best-effort (silent rounds are
    // re-inserted from the schedule), but it must stay deterministic:
    // the same capture bytes always produce the same outcome.
    let prober = Prober::new(ProberConfig::default());
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    let path = PathConfig::lossy(0.05);
    let mut renderer = CaptureRenderer::new();
    renderer
        .render_session(CLIENT, SERVER, &server, &prober, &path, &mut seeded(13))
        .expect("in-memory render cannot fail");
    let bytes = renderer.to_bytes();
    let ladder = ProberConfig::default().wmax_ladder;
    let run = |bytes: &[u8]| {
        let r = reassemble(bytes).unwrap();
        let s = sessions(&r, &ladder);
        s.iter()
            .map(|x| session_outcome(x, &ladder))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(&bytes), run(&bytes));
}
