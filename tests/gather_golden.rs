//! Cross-commit oracle for trace gathering.
//!
//! The determinism tests compare a commit with itself; this one compares
//! it with every commit before it. `tests/golden/gather.txt` holds one
//! line per workload — a census-shaped population under two seeds, and
//! every identified algorithm on a clean, a lossy and a heavy-jitter
//! path — with a digest of each [`GatherOutcome`]'s traces, a digest of
//! the complete [`ProbeTap`] event stream (times by their bit patterns)
//! and the counts of connections, rounds, data packets received and ACKs
//! sent. A refactor of the simulator, the prober or the ladder that
//! changes any record, any wire event or any count fails here.
//!
//! A deliberate change of behaviour regenerates the file:
//! `cargo test --release --test gather_golden -- --ignored regenerate`.

use caai::congestion::ALL_IDENTIFIED;
use caai::core::prober::{CloseInitiator, GatherOutcome, ProbeTap, Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::netem::rng::{child, seeded};
use caai::netem::{ConditionDb, EnvironmentId, NetworkCondition, PathConfig};
use caai::obs::NullSubscriber;
use caai::webmodel::PopulationConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a, 64 bit: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Everything one golden line states.
struct Tally {
    outcomes: Digest,
    events: Digest,
    connections: u64,
    rounds: u64,
    packets: u64,
    acks: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            outcomes: Digest::new(),
            events: Digest::new(),
            connections: 0,
            rounds: 0,
            packets: 0,
            acks: 0,
        }
    }

    fn outcome(&mut self, outcome: &GatherOutcome) {
        self.outcomes
            .bytes(format!("{:?}", outcome.pair).as_bytes());
        self.outcomes
            .bytes(format!("{:?}", outcome.failed_attempts).as_bytes());
        let traces = outcome
            .pair
            .iter()
            .flat_map(|p| [&p.env_a, &p.env_b])
            .chain(&outcome.failed_attempts);
        for trace in traces {
            self.rounds += (trace.pre.len() + trace.post.len()) as u64;
        }
    }

    fn line(&self, name: &str) -> String {
        format!(
            "{name} outcome={:016x} tap={:016x} connections={} rounds={} packets={} acks={}",
            self.outcomes.0, self.events.0, self.connections, self.rounds, self.packets, self.acks
        )
    }
}

impl ProbeTap for Tally {
    fn connection_opened(
        &mut self,
        now: f64,
        env: EnvironmentId,
        wmax: u32,
        proposed_mss: u32,
        granted_mss: u32,
    ) {
        self.connections += 1;
        self.events.bytes(b"O");
        self.events.word(now.to_bits());
        self.events.word(u64::from(matches!(env, EnvironmentId::B)));
        for v in [wmax, proposed_mss, granted_mss] {
            self.events.word(u64::from(v));
        }
    }

    fn data_received(&mut self, now: f64, seq: u64, duplicate: bool) {
        self.packets += 1;
        self.events.bytes(b"D");
        self.events.word(now.to_bits());
        self.events.word(seq);
        self.events.word(u64::from(duplicate));
    }

    fn ack_sent(&mut self, now: f64, cum_ack: u64, duplicate: bool) {
        self.acks += 1;
        self.events.bytes(b"A");
        self.events.word(now.to_bits());
        self.events.word(cum_ack);
        self.events.word(u64::from(duplicate));
    }

    fn connection_closed(&mut self, now: f64, initiator: CloseInitiator) {
        self.events.bytes(b"C");
        self.events.word(now.to_bits());
        self.events
            .word(u64::from(initiator == CloseInitiator::Server));
    }
}

/// The three paths every ideal server is probed over.
fn paths() -> [(&'static str, PathConfig); 3] {
    let jittery = NetworkCondition {
        rtt_mean: 0.6,
        rtt_std: 0.3,
        loss_rate: 0.03,
    };
    [
        ("clean", PathConfig::clean()),
        ("lossy", PathConfig::lossy(0.02)),
        ("jitter", PathConfig::from_condition(&jittery)),
    ]
}

/// Every golden line, computed by this commit.
fn compute() -> String {
    let mut out = String::new();
    let plain = Prober::new(ProberConfig::default());

    // A census in miniature: population, per-server RNG and per-server
    // path exactly as `Census::probe_seeded` derives them.
    let conditions = ConditionDb::paper_2011();
    for seed in [1u64, 2] {
        let mut tally = Tally::new();
        for web in PopulationConfig::small(400).generate(&mut seeded(seed)) {
            let mut rng = child(seed, u64::from(web.id));
            let path = PathConfig::from_condition(&conditions.sample(&mut rng));
            let server = ServerUnderTest::from_web_server(&web);
            let outcome =
                plain.gather_observed(&server, &path, &mut rng, &mut tally, &NullSubscriber);
            tally.outcome(&outcome);
        }
        writeln!(out, "{}", tally.line(&format!("population seed={seed}"))).unwrap();
    }

    for (i, algorithm) in ALL_IDENTIFIED.into_iter().enumerate() {
        for (j, (name, path)) in paths().into_iter().enumerate() {
            let mut tally = Tally::new();
            let server = ServerUnderTest::ideal(algorithm);
            let mut rng = seeded(1000 + 10 * i as u64 + j as u64);
            let outcome =
                plain.gather_observed(&server, &path, &mut rng, &mut tally, &NullSubscriber);
            tally.outcome(&outcome);
            let label = format!("ideal {} {name}", algorithm.name());
            writeln!(out, "{}", tally.line(&label)).unwrap();
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gather.txt")
}

#[test]
fn every_gather_matches_the_committed_golden_lines() {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/gather.txt");
    let computed = compute();
    let mut golden_lines = golden.lines();
    for line in computed.lines() {
        let expected = golden_lines.next().unwrap_or("<missing>");
        assert_eq!(
            line, expected,
            "a gather record, wire event or count changed"
        );
    }
    assert_eq!(golden_lines.next(), None, "golden file has extra lines");
}

#[test]
#[ignore = "rewrites tests/golden/gather.txt from this commit's behaviour"]
fn regenerate() {
    std::fs::write(golden_path(), compute()).expect("write tests/golden/gather.txt");
}
