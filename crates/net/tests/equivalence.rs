//! The correctness pin for the whole crate: the sans-IO
//! [`LadderCore`]/[`ServerCore`] pair, driven against each other
//! through the wire protocol (encode → decode on both directions, so
//! framing is under test too), must produce *exactly* the
//! `GatherOutcome` the simulator's `Prober::gather` produces over a
//! clean path. Every reactor/loopback behavior downstream reduces to
//! this equivalence: if these cores agree with the simulator, a live
//! census agrees with a simulated one.

use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::prober::{GatherOutcome, Prober, ProberConfig};
use caai_core::ServerUnderTest;
use caai_net::frame::{ClientFrame, FrameDecoder, ServerFrame, Wire};
use caai_net::{LadderCore, Reply, ServerCore, Step};
use caai_netem::PathConfig;
use caai_webmodel::PopulationConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Round-trips a frame through its wire encoding, so the driver also
/// exercises the framing layer both directions.
fn wire_roundtrip<F: Wire + PartialEq + std::fmt::Debug>(frame: &F) -> F {
    let mut bytes = Vec::new();
    frame.encode_into(&mut bytes);
    let mut decoder = FrameDecoder::new();
    decoder.push(&bytes);
    let decoded = decoder
        .next::<F>()
        .expect("self-encoded frame must decode")
        .expect("one frame in, one frame out");
    assert!(decoder.next::<F>().unwrap().is_none(), "no trailing frame");
    decoded
}

/// Drives the client ladder against a fresh [`ServerCore`] per
/// connection — exactly what the reactor does over sockets, minus the
/// sockets.
fn drive(config: ProberConfig, profile: &ServerUnderTest) -> GatherOutcome {
    let mut client = LadderCore::new(config);
    let mut server: Option<ServerCore> = None;
    let mut step = client.start();
    for _ in 0..1_000_000 {
        match step {
            Step::Connect => {
                server = Some(ServerCore::new(profile.clone()));
                step = client.on_connected();
            }
            Step::Send {
                frames,
                close_after,
                ..
            } => {
                let srv = server.as_mut().expect("send with no open connection");
                let mut replies: Vec<ServerFrame> = Vec::new();
                for frame in &frames {
                    let decoded: ClientFrame = wire_roundtrip(frame);
                    let Reply { frames, .. } = srv
                        .on_frame(&decoded)
                        .expect("an honest client never violates the protocol");
                    replies.extend(frames);
                }
                if close_after {
                    assert!(replies.is_empty(), "a closing send expects no reply");
                    server = None;
                    step = client.on_closed();
                } else {
                    assert_eq!(replies.len(), 1, "one reply-bearing frame per round");
                    let reply = wire_roundtrip(&replies[0]);
                    step = client
                        .on_frame(&reply)
                        .expect("an honest server never violates the protocol");
                }
            }
            Step::Done(outcome) => return *outcome,
        }
    }
    panic!("ladder never finished");
}

fn simulated(config: ProberConfig, server: &ServerUnderTest, seed: u64) -> GatherOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    Prober::new(config).gather(server, &PathConfig::clean(), &mut rng)
}

#[test]
fn ideal_servers_match_the_simulator_for_all_fourteen_algorithms() {
    for algorithm in ALL_IDENTIFIED {
        let wire = drive(ProberConfig::default(), &ServerUnderTest::ideal(algorithm));
        let sim = simulated(
            ProberConfig::default(),
            &ServerUnderTest::ideal(algorithm),
            7,
        );
        assert_eq!(
            wire, sim,
            "{algorithm:?}: wire-protocol outcome diverged from the simulator"
        );
        assert!(
            wire.pair.is_some(),
            "{algorithm:?}: an ideal server must yield a usable pair"
        );
    }
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

#[test]
fn an_ack_run_is_to_the_server_its_single_acks() {
    for algorithm in ALL_IDENTIFIED {
        let profile = ServerUnderTest::ideal(algorithm);
        let mut client = LadderCore::new(ProberConfig::default());
        // `runs` hears the wire as it is; `singles` hears every ACK
        // train one packet at a time.
        let mut servers: Option<(ServerCore, ServerCore)> = None;
        let (mut rounds, mut acks) = (0u32, 0u64);
        let mut step = client.start();
        loop {
            step = match step {
                Step::Connect => {
                    servers = Some((
                        ServerCore::new(profile.clone()),
                        ServerCore::new(profile.clone()),
                    ));
                    client.on_connected()
                }
                Step::Send {
                    frames,
                    close_after,
                    ..
                } => {
                    assert!(
                        frames.len() <= 3,
                        "{algorithm:?}: a clean round is at most duplicate + run + request, \
                         got {frames:?}"
                    );
                    let (runs, singles) = servers.as_mut().expect("send follows connect");
                    let mut replies = Vec::new();
                    let mut twin_replies = Vec::new();
                    for frame in &frames {
                        replies.extend(runs.on_frame(frame).expect("honest client").frames);
                        if let ClientFrame::AckRun { count, .. } = frame {
                            acks += u64::from(*count);
                        }
                        for single in unrolled(frame) {
                            twin_replies
                                .extend(singles.on_frame(&single).expect("honest client").frames);
                        }
                    }
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
            "{algorithm:?}: a full walk, not a stub ({rounds} rounds, {acks} ACKs in runs)"
        );
    }
}

#[test]
fn sampled_web_servers_match_the_simulator() {
    // A slice of the synthetic census population: short pages, F-RTO,
    // ssthresh caching, MSS floors — the messy cases, not just the lab.
    let population = PopulationConfig {
        size: 40,
        frto_rate: 0.5,
        ssthresh_caching_rate: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(42);
    let mut usable = 0u32;
    for web in population.generate(&mut rng) {
        let wire = drive(
            ProberConfig::default(),
            &ServerUnderTest::from_web_server(&web),
        );
        let sim = simulated(
            ProberConfig::default(),
            &ServerUnderTest::from_web_server(&web),
            web.id as u64,
        );
        assert_eq!(
            wire, sim,
            "server {}: wire-protocol outcome diverged from the simulator",
            web.id
        );
        usable += u32::from(wire.pair.is_some());
    }
    assert!(usable > 0, "the sample must contain some usable servers");
}

#[test]
fn the_drive_is_deterministic() {
    let a = drive(
        ProberConfig::default(),
        &ServerUnderTest::ideal(AlgorithmId::CubicV2),
    );
    let b = drive(
        ProberConfig::default(),
        &ServerUnderTest::ideal(AlgorithmId::CubicV2),
    );
    assert_eq!(a, b);
}
