//! Descriptor accounting: a [`NetTransport`] hands back every descriptor
//! it opened — probe sockets, epoll instances, eventfds — once dropped,
//! whether its probes succeeded, timed out or were refused; and an
//! [`EmulatedServer`] hands back its listener and every connection it
//! accepted before its drop returns, a stalled one whose client is still
//! there included.
//!
//! This file holds one test on purpose: it counts `/proc/self/fd`, and a
//! test running beside it in the same process would move the count.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caai_congestion::AlgorithmId;
use caai_core::classify::CaaiClassifier;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_core::ServerUnderTest;
use caai_net::reactor::NetConfig;
use caai_net::{Behavior, EmulatedServer, NetTransport, Target};
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use caai_obs::NullSubscriber;

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Waits up to ten seconds for the count to read `want`; the last count.
fn settle_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_descriptors();
    while open != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    open
}

#[test]
fn a_dropped_transport_leaves_no_descriptor_open() {
    let mut rng = seeded(11);
    let data = build_training_set(
        &TrainingConfig::quick(2),
        &ConditionDb::paper_2011(),
        &mut rng,
    );
    let classifier = CaaiClassifier::train(&data, &mut rng);
    // The fleet's loops, a poller each, start with the process's first
    // server and last as long as the process.
    drop(
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap(),
    );
    let without_servers = open_descriptors();
    let normal =
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap();
    let stalled = EmulatedServer::spawn(
        ServerUnderTest::ideal(AlgorithmId::Reno),
        Behavior::StallAfterAccept,
    )
    .unwrap();
    // Bind-then-drop: the port is (almost surely) unbound now.
    let refused = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Target {
            host: "127.0.0.1".into(),
            port: listener.local_addr().unwrap().port(),
        }
    };
    let baseline = open_descriptors();

    let config = NetConfig {
        io_timeout: Duration::from_millis(200),
        backoff: Duration::from_millis(10),
        retries: 1,
        ..NetConfig::default()
    };
    let targets = vec![normal.target(), stalled.target(), refused];
    let transport =
        NetTransport::new(targets, classifier, config, Arc::new(NullSubscriber)).unwrap();
    let results: Vec<_> = (0..3)
        .map(|id| transport.probe_async(id))
        .map(|reply| reply.recv_timeout(Duration::from_secs(30)).unwrap())
        .collect();
    assert!(results[0].outcome.pair.is_some(), "{:?}", results[0].stats);
    assert!(results[1].stats.aborted && results[1].stats.timeouts >= 2);
    assert!(results[2].stats.aborted && results[2].stats.retries == 1);
    drop(transport);

    // The emulated side closes its ends on its loops, once each reads
    // the EOF the dropped sockets sent.
    assert_eq!(
        settle_at(baseline),
        baseline,
        "descriptors open after the transport is gone"
    );

    // A client that stays: its stalled connection waits out the fleet's
    // 30 s read timeout unless dropping the server closes it.
    let client = TcpStream::connect(stalled.addr()).unwrap();
    // The client's socket, and the server's end once accepted.
    assert_eq!(settle_at(baseline + 2), baseline + 2, "never accepted");
    let begun = Instant::now();
    drop(stalled);
    drop(normal);
    let took = begun.elapsed();
    assert_eq!(
        open_descriptors(),
        without_servers + 1,
        "descriptors open after the servers are gone (the client's aside)"
    );
    assert!(took < Duration::from_secs(5), "the drop took {took:?}");
    drop(client);
    assert_eq!(open_descriptors(), without_servers);
}
