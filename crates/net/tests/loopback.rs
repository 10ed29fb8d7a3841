//! Reactor-over-real-sockets integration: [`NetTransport`] probing
//! [`EmulatedServer`]s on loopback. These tests never leave 127.0.0.1.
//!
//! The equivalence suite pins the sans-IO cores to the simulator; this
//! suite pins the *plumbing* — nonblocking connects, the timer wheel,
//! retries, the rate limiter, concurrency at the acceptance floor of
//! 256 sessions, one reactor per CPU, and the reduction of every
//! transport failure to `TransportAborted` instead of a panic or a hang.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::census::verdict_for_outcome;
use caai_core::classify::CaaiClassifier;
use caai_core::prober::{Prober, ProberConfig};
use caai_core::training::{build_training_set, TrainingConfig};
use caai_core::{InvalidReason, ProbeTransport, ServerUnderTest, Verdict};
use caai_net::sys::{allowed_cpus, confine_to, current_cpu};
use caai_net::NetConfig;
use caai_net::{Behavior, EmulatedServer, NetTransport, Target};
use caai_netem::rng::seeded;
use caai_netem::{ConditionDb, PathConfig};
use caai_obs::MetricsSubscriber;

fn classifier() -> CaaiClassifier {
    static CLASSIFIER: std::sync::OnceLock<CaaiClassifier> = std::sync::OnceLock::new();
    CLASSIFIER
        .get_or_init(|| {
            let mut rng = seeded(11);
            let data = build_training_set(
                &TrainingConfig::quick(2),
                &ConditionDb::paper_2011(),
                &mut rng,
            );
            CaaiClassifier::train(&data, &mut rng)
        })
        .clone()
}

fn fast_config() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    }
}

#[test]
fn live_verdicts_agree_with_the_simulator() {
    let algorithms = [
        AlgorithmId::Reno,
        AlgorithmId::CubicV2,
        AlgorithmId::Htcp,
        AlgorithmId::Vegas,
    ];
    let servers: Vec<EmulatedServer> = algorithms
        .iter()
        .map(|&a| EmulatedServer::spawn(ServerUnderTest::ideal(a), Behavior::Normal).unwrap())
        .collect();
    let targets: Vec<Target> = servers.iter().map(|s| s.target()).collect();
    let classifier = classifier();
    let obs = Arc::new(MetricsSubscriber::new());
    let transport =
        NetTransport::new(targets, classifier.clone(), fast_config(), Arc::clone(&obs)).unwrap();
    assert_eq!(transport.population(), algorithms.len() as u64);
    assert!(transport.resolution_failures().is_empty());

    for (id, &algorithm) in algorithms.iter().enumerate() {
        let live = transport.probe(id as u32, 0, &*obs);
        let mut rng = seeded(id as u64);
        let sim_outcome = Prober::new(ProberConfig::default()).gather(
            &ServerUnderTest::ideal(algorithm),
            &PathConfig::clean(),
            &mut rng,
        );
        let (sim_verdict, _) = verdict_for_outcome(&sim_outcome, &classifier);
        assert_eq!(
            live.verdict, sim_verdict,
            "{algorithm:?}: live verdict diverged from the simulator's"
        );
    }

    let snap = obs.snapshot();
    assert_eq!(snap.counters["net.sessions"], algorithms.len() as u64);
    assert_eq!(snap.counters["net.sessions_aborted"], 0);
    // Two usable rungs (env A + env B) = at least two connections each.
    assert!(snap.counters["net.connections"] >= 2 * algorithms.len() as u64);
    assert!(snap.counters["net.reactor_ticks"] > 0);
    // Rung attempts were replayed into the probe-side subscriber.
    assert_eq!(snap.counters["gather.runs"], algorithms.len() as u64);
    assert!(snap.counters["gather.attempts"] >= 2 * algorithms.len() as u64);
}

#[test]
fn a_probe_costs_kilobytes_and_the_same_count_every_run() {
    // The wire carries runs: a probe of an ideal server is 64 round
    // trips of ~70 bytes. Per-packet ACK frames were ~585 KB and ~15 k
    // frames for the same walk; a return to them fails here.
    const PROBE_BYTES_CAP: u64 = 16 * 1024;
    let servers: Vec<EmulatedServer> = ALL_IDENTIFIED
        .iter()
        .map(|&a| EmulatedServer::spawn(ServerUnderTest::ideal(a), Behavior::Normal).unwrap())
        .collect();
    let targets: Vec<Target> = servers.iter().map(|s| s.target()).collect();
    let obs = Arc::new(MetricsSubscriber::new());
    let transport =
        NetTransport::new(targets, classifier(), fast_config(), Arc::clone(&obs)).unwrap();
    let census = || -> Vec<(u64, u64, u64)> {
        (0..ALL_IDENTIFIED.len() as u32)
            .map(|id| {
                let stats = transport
                    .probe_async(id)
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap()
                    .stats;
                assert!(!stats.aborted && stats.retries == 0, "{stats:?}");
                (stats.bytes_sent, stats.bytes_received, stats.frames_sent)
            })
            .collect()
    };
    let first = census();
    for (algorithm, (sent, received, frames)) in ALL_IDENTIFIED.iter().zip(&first) {
        assert!(
            *sent > 0 && *received > 0 && sent + received <= PROBE_BYTES_CAP,
            "{algorithm:?}: {sent} B sent + {received} B received, cap {PROBE_BYTES_CAP}"
        );
        assert!(
            (1..1000).contains(frames),
            "{algorithm:?}: {frames} frames sent"
        );
    }
    assert_eq!(first, census(), "wire counts must repeat run to run");

    // The same counts reach `--metrics` through the probe seam.
    transport.probe(0, 0, &*obs);
    let snap = obs.snapshot();
    assert_eq!(snap.counters["net.bytes_sent"], first[0].0);
    assert_eq!(snap.counters["net.bytes_received"], first[0].1);
    assert_eq!(snap.counters["net.frames_sent"], first[0].2);
}

#[test]
fn reactor_sustains_256_concurrent_sessions() {
    let servers: Vec<EmulatedServer> = (0..8)
        .map(|_| {
            EmulatedServer::spawn(
                ServerUnderTest::ideal(AlgorithmId::CubicV2),
                Behavior::Normal,
            )
            .unwrap()
        })
        .collect();
    // 256 targets round-robining over 8 listeners.
    let targets: Vec<Target> = (0..256).map(|i| servers[i % 8].target()).collect();
    let obs = Arc::new(MetricsSubscriber::new());
    let config = NetConfig {
        max_sessions: 512,
        ..fast_config()
    };
    let transport = NetTransport::new(targets, classifier(), config, Arc::clone(&obs)).unwrap();

    // Submit every probe before collecting any result: the reactor must
    // hold all 256 sessions in flight at once.
    let receivers: Vec<_> = (0..256).map(|id| transport.probe_async(id)).collect();
    for (id, rx) in receivers.into_iter().enumerate() {
        let result = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("session {id} never finished: {e}"));
        assert!(
            result.outcome.pair.is_some(),
            "session {id} failed: {:?}",
            result.outcome.failure_reason()
        );
        assert!(!result.stats.aborted);
    }

    let snap = obs.snapshot();
    assert!(
        snap.histograms["net.active_sessions"].max >= 256,
        "reactor never held 256 concurrent sessions (peak {})",
        snap.histograms["net.active_sessions"].max
    );
}

#[test]
fn rate_limiter_paces_admissions_and_reports_stalls() {
    let server =
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap();
    let targets: Vec<Target> = (0..4).map(|_| server.target()).collect();
    let obs = Arc::new(MetricsSubscriber::new());
    let config = NetConfig {
        rate: 10.0, // session 1 admits instantly; 2..4 must wait ~100 ms each
        ..fast_config()
    };
    let transport = NetTransport::new(targets, classifier(), config, Arc::clone(&obs)).unwrap();
    let receivers: Vec<_> = (0..4).map(|id| transport.probe_async(id)).collect();
    for rx in receivers {
        let result = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(result.outcome.pair.is_some());
    }
    let snap = obs.snapshot();
    assert!(
        snap.counters["net.rate_limiter_stalls"] >= 1,
        "pacing 4 sessions at 10/s must stall at least once"
    );
    assert!(snap.histograms["net.limiter_wait_us"].count >= 1);
}

#[test]
fn rate_bounds_hold_across_reactors() {
    // Eight session slots: a reactor per CPU this process may use. The
    // reactors share one limiter, so six admissions at 10/s take at
    // least 0.5 s; a limiter per reactor would let them through at twice
    // the rate. Every target is 127.0.0.1, so the per-/24 bound is one
    // bucket too.
    let server =
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap();
    let targets: Vec<Target> = (0..6).map(|_| server.target()).collect();
    for (rate, rate_per_net) in [(10.0, 0.0), (0.0, 10.0)] {
        let obs = Arc::new(MetricsSubscriber::new());
        let config = NetConfig {
            rate,
            rate_per_net,
            max_sessions: 8,
            ..fast_config()
        };
        let transport =
            NetTransport::new(targets.clone(), classifier(), config, Arc::clone(&obs)).unwrap();
        let begun = Instant::now();
        let receivers: Vec<_> = (0..6).map(|id| transport.probe_async(id)).collect();
        for rx in receivers {
            let result = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            assert!(result.outcome.pair.is_some());
        }
        let took = begun.elapsed();
        assert!(
            took >= Duration::from_millis(500),
            "rate {rate}, per /24 {rate_per_net}: six probes in {took:?}"
        );
        assert!(obs.snapshot().counters["net.rate_limiter_stalls"] >= 1);
    }
}

/// Probes every target, two at a time from two threads, and returns the
/// verdicts in id order with the counters the run left once every
/// reactor has exited.
fn census_two_in_flight(
    targets: &[Target],
    config: NetConfig,
) -> (Vec<Verdict>, BTreeMap<String, u64>) {
    let obs = Arc::new(MetricsSubscriber::new());
    let transport =
        NetTransport::new(targets.to_vec(), classifier(), config, Arc::clone(&obs)).unwrap();
    let count = targets.len() as u32;
    let mut verdicts: Vec<(u32, Verdict)> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|first| {
                let (transport, obs) = (&transport, &*obs);
                scope.spawn(move || {
                    (first..count)
                        .step_by(2)
                        .map(|id| (id, transport.probe(id, 0, obs).verdict))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|caller| caller.join().unwrap())
            .collect()
    });
    verdicts.sort_by_key(|&(id, _)| id);
    // The reactors report on their way out.
    drop(transport);
    let verdicts = verdicts.into_iter().map(|(_, v)| v).collect();
    (verdicts, obs.snapshot().counters)
}

#[test]
fn a_reactor_runs_on_each_allowed_cpu_and_stays_there() {
    let servers: Vec<EmulatedServer> = [AlgorithmId::Reno, AlgorithmId::CubicV2, AlgorithmId::Htcp]
        .iter()
        .map(|&a| EmulatedServer::spawn(ServerUnderTest::ideal(a), Behavior::Normal).unwrap())
        .collect();
    let targets: Vec<Target> = (0..12).map(|i| servers[i % 3].target()).collect();
    let config = NetConfig {
        max_sessions: 2,
        ..fast_config()
    };
    let (verdicts, counters) = census_two_in_flight(&targets, config.clone());
    // Built on a thread confined to one CPU, the transport runs one
    // reactor; its callers inherit the mask. The mask dies with the thread.
    let (one_cpu, one_cpu_counters) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(cpu) = current_cpu() {
                    confine_to(cpu);
                }
                census_two_in_flight(&targets, config.clone())
            })
            .join()
            .unwrap()
    });
    assert_eq!(one_cpu, verdicts, "one reactor and many disagree");
    assert_eq!(counters["net.sessions_aborted"], 0);
    let (Some(&one), Some(&many)) = (
        one_cpu_counters.get("net.reactors"),
        counters.get("net.reactors"),
    ) else {
        eprintln!("skipped the counts: no /proc/thread-self/sched here");
        return;
    };
    assert_eq!(one, 1, "one CPU, one reactor");
    assert_eq!(one_cpu_counters["net.reactor_migrations"], 0);
    let cpus = allowed_cpus().len();
    if cpus < 2 {
        eprintln!("skipped the two-reactor count: this process may use {cpus} CPU(s)");
        return;
    }
    assert_eq!(many, 2, "two probes in flight, two reactors");
    assert_eq!(
        counters["net.reactor_migrations"], 0,
        "each reactor stays put"
    );
}

#[test]
fn stalled_server_times_out_retries_and_aborts() {
    let server = EmulatedServer::spawn(
        ServerUnderTest::ideal(AlgorithmId::Reno),
        Behavior::StallAfterAccept,
    )
    .unwrap();
    let obs = Arc::new(MetricsSubscriber::new());
    let config = NetConfig {
        io_timeout: Duration::from_millis(200),
        backoff: Duration::from_millis(10),
        retries: 1,
        ..NetConfig::default()
    };
    let transport = NetTransport::new(
        vec![server.target()],
        classifier(),
        config,
        Arc::clone(&obs),
    )
    .unwrap();
    let result = transport
        .probe_async(0)
        .recv_timeout(Duration::from_secs(30))
        .unwrap();
    assert!(
        result.stats.aborted,
        "a stalled peer must abort the session"
    );
    assert_eq!(result.stats.retries, 1, "one transport retry was budgeted");
    assert!(result.stats.timeouts >= 2, "both attempts time out");
    assert_eq!(
        result.outcome.failure_reason(),
        Some(InvalidReason::TransportAborted)
    );

    // Through the ProbeTransport seam the same target is a clean
    // Invalid record, not a panic or a hang — and its session stats
    // land in the caller's subscriber.
    let record = transport.probe(0, 0, &*obs);
    assert_eq!(record.server_id, 0);
    let snap = obs.snapshot();
    assert_eq!(snap.counters["net.sessions"], 1);
    assert_eq!(snap.counters["net.sessions_aborted"], 1);
    assert!(snap.counters["net.timeouts"] >= 2);
    assert!(snap.counters["net.retries"] >= 1);
}

#[test]
fn rst_mid_ladder_reduces_to_transport_aborted() {
    let server = EmulatedServer::spawn(
        ServerUnderTest::ideal(AlgorithmId::CubicV2),
        Behavior::RstAfterBursts(3),
    )
    .unwrap();
    let obs = Arc::new(MetricsSubscriber::new());
    let config = NetConfig {
        retries: 0,
        ..fast_config()
    };
    let transport = NetTransport::new(
        vec![server.target()],
        classifier(),
        config,
        Arc::clone(&obs),
    )
    .unwrap();
    let result = transport
        .probe_async(0)
        .recv_timeout(Duration::from_secs(30))
        .unwrap();
    assert!(result.stats.aborted);
    assert_eq!(
        result.outcome.failure_reason(),
        Some(InvalidReason::TransportAborted),
        "a mid-ladder RST is an invalid probe, not a crash"
    );
    let snap = obs.snapshot();
    assert_eq!(snap.counters["net.sessions"], 0, "no probe() call yet");
}

#[test]
fn unresolvable_targets_reduce_to_aborted_records() {
    // Neither host reaches a resolver: std refuses a NUL byte before any
    // lookup, and an IPv6 literal parses to an address the reactor does
    // not speak.
    for host in ["a\0b", "::1"] {
        let target = Target {
            host: host.to_string(),
            port: 80,
        };
        let obs = Arc::new(MetricsSubscriber::new());
        let transport =
            NetTransport::new(vec![target], classifier(), fast_config(), Arc::clone(&obs)).unwrap();
        let failures = transport.resolution_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 0);
        let result = transport
            .probe_async(0)
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert!(result.stats.aborted);
        assert_eq!(
            result.outcome.failure_reason(),
            Some(InvalidReason::TransportAborted)
        );
    }
}

#[test]
fn zero_sessions_in_flight_is_invalid_input() {
    let config = NetConfig {
        max_sessions: 0,
        ..fast_config()
    };
    let obs = Arc::new(MetricsSubscriber::new());
    let refused = NetTransport::new(Vec::new(), classifier(), config, obs).err();
    assert_eq!(
        refused.map(|e| e.kind()),
        Some(std::io::ErrorKind::InvalidInput)
    );
}

#[test]
fn the_reactor_thread_never_changes_cpu() {
    let servers: Vec<EmulatedServer> = [AlgorithmId::Reno, AlgorithmId::CubicV2, AlgorithmId::Htcp]
        .iter()
        .map(|&a| EmulatedServer::spawn(ServerUnderTest::ideal(a), Behavior::Normal).unwrap())
        .collect();
    let targets: Vec<Target> = (0..30).map(|i| servers[i % 3].target()).collect();
    let obs = Arc::new(MetricsSubscriber::new());
    let transport =
        NetTransport::new(targets, classifier(), fast_config(), Arc::clone(&obs)).unwrap();
    for id in 0..30 {
        transport.probe(id, 0, &*obs);
    }
    // The reactor reports on its way out.
    drop(transport);
    let counters = obs.snapshot().counters;
    assert_eq!(counters["net.sessions_aborted"], 0);
    // One read and one write per round trip, a round trip per two frames.
    assert!(counters["net.reactor_reads"] >= counters["net.frames_sent"] / 2);
    assert!(counters["net.reactor_writes"] >= counters["net.frames_sent"] / 2);
    let Some(migrations) = counters.get("net.reactor_migrations") else {
        eprintln!("skipped the count: no /proc/thread-self/sched here");
        return;
    };
    assert_eq!(*migrations, 0, "a confined reactor stays where it started");
    assert!(counters["net.reactor_switches"] > 0);
}
