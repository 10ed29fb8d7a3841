//! The codec under loss, and ACK runs against single ACKs.
//!
//! A simulated gather passes frames between `LadderCore` and
//! `ServerCore` as values; a live probe passes the same frames through
//! this crate's codec. The tests below walk the ladder through
//! `encode`/`FrameDecoder` both ways, across a lossy and a heavily
//! jittered path, so that bursts carry holes, late and duplicated
//! packets and rounds lost whole, and ACK trains are cut by loss. The
//! outcome must be the simulator's for the same seed: the wire form of
//! a frame (merged runs, no duplicate flag) changes nothing the ladder
//! decides.

use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::frame::{ClientFrame, ServerFrame};
use caai_core::prober::{GatherOutcome, Prober, ProberConfig};
use caai_core::sansio::{LadderCore, ServerCore, Step};
use caai_core::ServerUnderTest;
use caai_net::frame::{encode, FrameDecoder, Wire};
use caai_netem::{NetworkCondition, PathConfig};
use caai_webmodel::PopulationConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;

/// A frame as the peer decodes it.
fn wire_roundtrip<F: Wire>(frame: &F) -> F {
    let mut decoder = FrameDecoder::new();
    decoder.push(&encode(frame));
    let decoded = decoder.next::<F>().expect("self-encoded frame must decode");
    assert_eq!(decoder.pending(), 0, "one frame in, one frame out");
    decoded.expect("a whole frame")
}

/// What the walks' bursts carried before encoding: runs of duplicates,
/// bursts of more than one run, rounds lost whole.
#[derive(Debug, Default)]
struct Carried {
    duplicates: u32,
    split: u32,
    lost: u32,
}

/// Walks the ladder against `server` across `path`, fates drawn from
/// `seed`, every frame through its encoding: a live probe minus the
/// sockets. Tallies the bursts into `carried`.
fn over_the_wire(
    server: &ServerUnderTest,
    path: PathConfig,
    seed: u64,
    carried: &mut Carried,
) -> GatherOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = LadderCore::new(ProberConfig::default());
    let mut conn = None;
    let mut step = client.start();
    loop {
        step = match step {
            Step::Connect => {
                conn = Some(ServerCore::over_path(server, path, &mut rng));
                client.on_connected()
            }
            Step::Send {
                frames,
                close_after,
            } => {
                let core = conn.as_mut().expect("a send follows a connect");
                let decoded: Vec<_> = frames.iter().map(wire_roundtrip).collect();
                let reply = answers(core, &decoded).pop();
                if close_after {
                    core.close(client.now());
                    client.on_closed()
                } else {
                    let reply = reply.expect("a send that awaits a reply gets one");
                    if let ServerFrame::Burst { runs, .. } = &reply {
                        carried.duplicates += runs.iter().filter(|r| r.duplicate).count() as u32;
                        carried.split += u32::from(runs.len() > 1);
                        carried.lost += u32::from(matches!(runs[..], [r] if r.len == 0));
                    }
                    let reply = wire_roundtrip(&reply);
                    client.on_frame(&reply).expect("an honest server")
                }
            }
            Step::Done(outcome) => return *outcome,
        };
    }
}

/// 5 % loss both ways, and the same loss on a path as jittered as
/// `from_condition` makes one (a quarter of the data late).
fn lossy_paths() -> [PathConfig; 2] {
    let jittered = PathConfig::from_condition(&NetworkCondition {
        rtt_mean: 0.6,
        rtt_std: 0.4,
        loss_rate: 0.05,
    });
    assert_eq!(jittered.late_prob, 0.25, "as jittered as a path gets");
    [PathConfig::lossy(0.05), jittered]
}

/// Every walk of `servers` over the codec, on both lossy paths, against
/// the in-memory gather of the same seed: what the bursts carried.
fn match_the_simulator(servers: &[ServerUnderTest]) -> Carried {
    let prober = Prober::new(ProberConfig::default());
    let mut carried = Carried::default();
    for path in lossy_paths() {
        for (seed, server) in servers.iter().enumerate() {
            // Each walk on a clone: a walk leaves its server's cache
            // behind.
            let wire = over_the_wire(&server.clone(), path, seed as u64, &mut carried);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let memory = prober.gather(&server.clone(), &path, &mut rng);
            assert_eq!(wire, memory, "server {seed} on {path:?}");
        }
    }
    carried
}

#[test]
fn ideal_servers_match_the_simulator_for_all_fourteen_algorithms() {
    let carried = match_the_simulator(&ALL_IDENTIFIED.map(ServerUnderTest::ideal));
    assert!(
        carried.duplicates > 0 && carried.split > 100 && carried.lost > 0,
        "the walks must carry what only a lossy path makes: {carried:?}"
    );
}

#[test]
fn sampled_web_servers_match_the_simulator() {
    // A slice of the census population: short pages, F-RTO, ssthresh
    // caching, MSS floors.
    let population = PopulationConfig {
        size: 20,
        frto_rate: 0.5,
        ssthresh_caching_rate: 0.5,
    };
    let web = population.generate(&mut StdRng::seed_from_u64(42));
    let servers: Vec<_> = web.iter().map(ServerUnderTest::from_web_server).collect();
    let carried = match_the_simulator(&servers);
    assert!(carried.split > 10, "{carried:?}");
}

#[test]
fn the_drive_is_deterministic() {
    let server = ServerUnderTest::ideal(AlgorithmId::CubicV2);
    let [lossy, _] = lossy_paths();
    let mut carried = Carried::default();
    let a = over_the_wire(&server.clone(), lossy, 7, &mut carried);
    assert_eq!(a, over_the_wire(&server, lossy, 7, &mut carried));
}

/// The frames the per-packet wire would have carried for `frame`: an
/// `AckRun` unrolled into its single `Ack`s, anything else as it is.
fn unrolled(frame: &ClientFrame) -> Vec<ClientFrame> {
    match *frame {
        ClientFrame::AckRun {
            now,
            first,
            count,
            rtt,
        } => (first..first + u64::from(count))
            .map(|cum_ack| ClientFrame::Ack { now, cum_ack, rtt })
            .collect(),
        other => vec![other],
    }
}

/// What `server` answers to `frames`, in order.
fn answers<S: Borrow<ServerUnderTest>>(
    server: &mut ServerCore<S>,
    frames: &[ClientFrame],
) -> Vec<ServerFrame> {
    let answer = |frame| server.on_frame(frame).expect("an honest client").frames;
    frames.iter().flat_map(answer).collect()
}

#[test]
fn an_ack_run_is_to_the_server_its_single_acks() {
    for algorithm in ALL_IDENTIFIED {
        let profile = ServerUnderTest::ideal(algorithm);
        let mut client = LadderCore::new(ProberConfig::default());
        // `runs` hears the wire as it is; `singles` hears every ACK
        // train one packet at a time.
        let (mut runs, mut singles) = (None, None);
        let (mut rounds, mut acks) = (0u32, 0usize);
        let mut step = client.start();
        loop {
            step = match step {
                Step::Connect => {
                    runs = Some(ServerCore::new(profile.clone()));
                    singles = Some(ServerCore::new(profile.clone()));
                    client.on_connected()
                }
                Step::Send {
                    frames,
                    close_after,
                } => {
                    assert!(
                        frames.len() <= 3,
                        "{algorithm:?}: a clean round is at most duplicate + run + request, \
                         got {frames:?}"
                    );
                    let unrolled: Vec<_> = frames.iter().flat_map(unrolled).collect();
                    acks += unrolled.len() - frames.len();
                    let replies =
                        answers(runs.as_mut().expect("a send follows a connect"), &frames);
                    let twin_replies = answers(singles.as_mut().expect("and its twin"), &unrolled);
                    assert_eq!(
                        replies, twin_replies,
                        "{algorithm:?} round {rounds}: run and single ACKs answered differently"
                    );
                    rounds += 1;
                    if close_after {
                        client.on_closed()
                    } else {
                        client.on_frame(&replies[0]).expect("honest server")
                    }
                }
                Step::Done(outcome) => {
                    assert!(outcome.pair.is_some(), "{algorithm:?}: walk must complete");
                    break;
                }
            };
        }
        assert!(
            rounds > 20 && acks > 500,
            "{algorithm:?}: a full walk, not a stub ({rounds} rounds, {acks} ACKs past a run's first)"
        );
    }
}
