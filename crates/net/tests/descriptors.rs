//! Descriptor accounting: a [`NetTransport`] hands back every descriptor
//! it opened — probe sockets, epoll instances, eventfds — once dropped,
//! whether its probes succeeded, timed out or were refused.
//!
//! This file holds one test on purpose: it counts `/proc/self/fd`, and a
//! test running beside it in the same process would move the count.

use std::net::TcpListener;
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

#[test]
fn a_dropped_transport_leaves_no_descriptor_open() {
    let mut rng = seeded(11);
    let data = build_training_set(
        &TrainingConfig::quick(2),
        &ConditionDb::paper_2011(),
        &mut rng,
    );
    let classifier = CaaiClassifier::train(&data, &mut rng);
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

    // The emulated side closes its ends on its own threads, once each
    // reads the EOF the dropped sockets sent.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_descriptors();
    while open != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    assert_eq!(
        open, baseline,
        "descriptors open after the transport is gone"
    );
}
