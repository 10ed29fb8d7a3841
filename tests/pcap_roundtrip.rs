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
use caai::core::trace::InvalidReason;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::{child, seeded};
use caai::netem::{ConditionDb, PathConfig};
use caai::webmodel::PopulationConfig;

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

#[test]
fn census_paths_replay_to_the_prober_s_outcome_in_counted_classes() {
    // Each server of a small census population is rendered over the path
    // its census probe would draw (the census's RNG keying), and the
    // capture is replayed. Loss, duplicates and late arrivals hide rounds
    // from the wire, so a replay may disagree with the prober; it does so
    // in counted ways only: a differing failed attempt, or a pair whose
    // short recovery the wire cannot tell from the prober's full one.
    let prober = Prober::new(ProberConfig::default());
    let ladder = ProberConfig::default().wmax_ladder;
    let db = ConditionDb::paper_2011();
    let servers = PopulationConfig::small(200).generate(&mut seeded(1));
    let (mut equal, mut failed_only, mut pair_lost) = (0, 0, 0);
    for server in &servers {
        let rng = &mut child(7, u64::from(server.id));
        let path = PathConfig::from_condition(&db.sample(rng));
        let sut = ServerUnderTest::from_web_server(server);
        let mut renderer = CaptureRenderer::new();
        let direct = renderer
            .render_session(CLIENT, SERVER, &sut, &prober, &path, rng)
            .expect("in-memory render cannot fail");
        let reassembly = reassemble(&renderer.to_bytes()).expect("rendered captures parse");
        let probed = sessions(&reassembly, &ladder);
        let session = probed.iter().find(|s| !s.connections.is_empty());
        let replayed = session_outcome(session.expect("a connection carried data"), &ladder);
        if replayed == direct {
            equal += 1;
        } else if replayed.pair == direct.pair {
            failed_only += 1;
        } else {
            let id = server.id;
            assert!(
                direct.pair.is_some(),
                "server {id}: the replay gained a pair"
            );
            assert_eq!(
                (replayed.pair.as_ref(), replayed.failure_reason()),
                (None, Some(InvalidReason::RecoveryTooShort)),
                "server {id}: a lost pair reads as a short recovery"
            );
            pair_lost += 1;
        }
    }
    assert_eq!((equal, failed_only, pair_lost), (192, 4, 4));
}
