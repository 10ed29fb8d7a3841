//! The emulated fleet's threads: one per CPU the process may use, idle
//! or with every connection busy, however many servers it holds.
//!
//! A file (a process) of its own because it counts the process's threads
//! by name under `/proc/self/task`, and the fleet is the process's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use caai_congestion::ALL_IDENTIFIED;
use caai_core::classify::CaaiClassifier;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_core::ServerUnderTest;
use caai_net::sys::allowed_cpus;
use caai_net::NetConfig;
use caai_net::{Behavior, EmulatedServer, NetTransport};
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use caai_obs::MetricsSubscriber;

const SERVERS: usize = 64;

/// This process's threads whose names say they serve emulated servers.
fn fleet_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            comm.starts_with("caai-emu")
        })
        .count()
}

#[test]
fn the_fleet_runs_a_thread_per_cpu_however_many_servers_and_sessions() {
    let cpus = allowed_cpus().len().max(1);
    let mut rng = seeded(11);
    let data = build_training_set(
        &TrainingConfig::quick(2),
        &ConditionDb::paper_2011(),
        &mut rng,
    );
    let classifier = CaaiClassifier::train(&data, &mut rng);
    // Each reply held 20 ms per virtual second: a probe takes ~1.1 s,
    // so every session is in flight at once.
    let paced = Behavior::Paced(Duration::from_millis(20));
    let servers: Vec<EmulatedServer> = (0..SERVERS)
        .map(|i| {
            let server = ServerUnderTest::ideal(ALL_IDENTIFIED[i % ALL_IDENTIFIED.len()]);
            EmulatedServer::spawn(server, paced).unwrap()
        })
        .collect();
    let idle = fleet_threads();
    assert!(
        idle <= cpus,
        "{idle} fleet threads for {SERVERS} idle servers on {cpus} CPUs"
    );

    let targets = servers.iter().map(|s| s.target()).collect();
    let obs = Arc::new(MetricsSubscriber::new());
    let transport =
        NetTransport::new(targets, classifier, NetConfig::default(), Arc::clone(&obs)).unwrap();
    let replies: Vec<_> = (0..SERVERS as u32)
        .map(|id| transport.probe_async(id))
        .collect();
    let mut results = Vec::new();
    let mut peak = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    while results.len() < SERVERS && Instant::now() < deadline {
        peak = peak.max(fleet_threads());
        // An answered probe's channel is empty and closed from then on.
        results.extend(replies.iter().filter_map(|reply| reply.try_recv().ok()));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(results.len(), SERVERS, "probes left unanswered");
    assert!(results
        .iter()
        .all(|r| !r.stats.aborted && r.outcome.pair.is_some()));
    let in_flight = obs.snapshot().histograms["net.active_sessions"].max;
    assert_eq!(in_flight, SERVERS as u64, "sessions in flight at once");
    assert!(
        peak <= cpus,
        "{peak} fleet threads at {SERVERS} sessions on {cpus} CPUs"
    );
    drop(transport);
    assert!(fleet_threads() <= cpus);
}
