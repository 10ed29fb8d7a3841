//! Seeded input generators: everything a workload feeds the program is
//! made here from the `--seed` argument, so the program itself only ever
//! sees generated inputs and the same seed always gives the same bytes.
//!
//! Three inputs, one per way the system is used:
//!
//! * a synthetic web-server **population** (`census_sim`);
//! * a loopback **fleet** of emulated servers plus a target list over it
//!   (`census_live`);
//! * a classic-pcap **capture** of many interleaved probe sessions
//!   (`identify_offline`, `identify_follow`), together with the
//!   per-session ground truth the correctness check compares against.

use crate::seams::CountingWriter;
use caai_capture::{CaptureRenderer, PcapReader, PcapWriter};
use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::census::{verdict_for_outcome, Verdict};
use caai_core::classify::CaaiClassifier;
use caai_core::prober::{GatherOutcome, Prober, ProberConfig};
use caai_core::server_under_test::ServerUnderTest;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_net::{Behavior, EmulatedServer, ServerProfile, Target};
use caai_netem::rng::{child, seeded};
use caai_netem::{ConditionDb, PathConfig};
use caai_webmodel::{PageModel, PopulationConfig, RequestAcceptanceModel, WebServer};
use rand::seq::SliceRandom;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;

/// Input sizes of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `census_sim`: servers in the synthetic population.
    pub servers: u32,
    /// `census_live`: entries in the target list (round-robin over the
    /// 14-listener fleet).
    pub targets: usize,
    /// Capture: bytes of full ladder-walk sessions against population
    /// servers (whole sessions are added until this many are rendered).
    pub bulk_bytes: u64,
    /// Capture: short-page sessions (one small connection each).
    pub mice: u32,
    /// Capture: independent timelines merged by timestamp, i.e. how many
    /// probe sessions overlap in capture time.
    pub lanes: usize,
}

impl Scale {
    /// The committed benchmark size. Sized so that one repetition of the
    /// slowest path takes about a second on a 2-vCPU sandbox and ten or
    /// more repetitions fit into one `--seconds 10` run.
    pub const FULL: Scale = Scale {
        servers: 5_000,
        targets: 280,
        bulk_bytes: 128_000_000,
        mice: 3_000,
        lanes: 32,
    };

    /// A few seconds in a debug build; what `cargo test` runs.
    pub const SMOKE: Scale = Scale {
        servers: 200,
        targets: 28,
        bulk_bytes: 6_000_000,
        mice: 50,
        lanes: 8,
    };
}

/// Conditions per (algorithm, rung) pair of the training set — the
/// `caai` CLI's default for every command that trains on the fly.
pub const TRAINING_CONDITIONS: usize = 6;

/// Trains the classifier exactly as the CLI's `load_or_train` does.
pub fn classifier(seed: u64) -> CaaiClassifier {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(seed ^ 0x7121);
    let data = build_training_set(&TrainingConfig::quick(TRAINING_CONDITIONS), &db, &mut rng);
    CaaiClassifier::train(&data, &mut rng)
}

/// The synthetic population `caai census --servers N --seed S` probes.
pub fn population(seed: u64, servers: u32) -> Vec<WebServer> {
    PopulationConfig::small(servers).generate(&mut seeded(seed))
}

/// One loopback listener per identified algorithm. Dropping the fleet
/// stops every listener and joins its threads.
pub struct Fleet {
    servers: Vec<EmulatedServer>,
}

impl Fleet {
    /// Binds the 14 listeners (ideal profile, faithful behaviour).
    pub fn spawn() -> io::Result<Fleet> {
        let servers = ALL_IDENTIFIED
            .iter()
            .map(|&algo| EmulatedServer::spawn(ServerProfile::ideal(algo), Behavior::Normal))
            .collect::<io::Result<_>>()?;
        Ok(Fleet { servers })
    }

    /// A target list of `n` entries, round-robin over the listeners and
    /// then shuffled by `seed`, with the algorithm behind each entry.
    pub fn targets(&self, seed: u64, n: usize) -> (Vec<Target>, Vec<AlgorithmId>) {
        let mut order: Vec<usize> = (0..n).map(|i| i % self.servers.len()).collect();
        order.shuffle(&mut seeded(seed));
        let targets = order.iter().map(|&i| self.servers[i].target()).collect();
        let truth = order.iter().map(|&i| ALL_IDENTIFIED[i]).collect();
        (targets, truth)
    }
}

/// What the simulator concludes about an ideal server of each identified
/// algorithm over a clean path — the verdict a live probe of the matching
/// fleet listener must reproduce (the transport equivalence pin).
pub fn ideal_verdicts(classifier: &CaaiClassifier) -> BTreeMap<AlgorithmId, Verdict> {
    let prober = Prober::new(ProberConfig::default());
    ALL_IDENTIFIED
        .iter()
        .map(|&algo| {
            let outcome = prober.gather(
                &ServerUnderTest::ideal(algo),
                &PathConfig::clean(),
                &mut seeded(0),
            );
            (algo, verdict_for_outcome(&outcome, classifier).0)
        })
        .collect()
}

/// Ground truth for one rendered probe session.
#[derive(Debug, Clone)]
pub struct SessionTruth {
    /// The prober's address in the capture.
    pub client_ip: [u8; 4],
    /// The server's address in the capture (unique per session).
    pub server_ip: [u8; 4],
    /// The algorithm the rendered server really runs.
    pub algorithm: AlgorithmId,
    /// What the simulated prober measured while the session was rendered;
    /// ingesting the capture must reconstruct a session with the same
    /// verdict (round-trip identity).
    pub outcome: GatherOutcome,
}

/// A rendered multi-session capture and what is known about it.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The classic-pcap file contents.
    pub bytes: Vec<u8>,
    /// Ground truth per session, in generation order.
    pub sessions: Vec<SessionTruth>,
    /// Frames in the file.
    pub packets: u64,
    /// Timelines that were merged.
    pub lanes: usize,
}

/// Seconds by which consecutive lanes are shifted. The fractional part
/// spreads the lanes over the 1-second emulated RTT, so their bursts
/// interleave instead of landing on one timestamp.
const LANE_STAGGER: f64 = 1.618_034;

/// Every this-many-th session of a capture is a bulk one while the bulk
/// byte budget lasts. Odd, hence coprime with the power-of-two lane
/// counts in use, so bulk sessions visit every lane.
const BULK_EVERY: usize = 47;

/// Renders full ladder walks against population servers ("bulk", a few
/// MB each) until they fill `bulk_bytes`, and `mice` short-page sessions
/// (built the way `caai render-pcap --short` builds them, one small
/// connection each), into `lanes` independent timelines; then merges the
/// timelines by timestamp into one capture. Within a lane sessions
/// follow each other as `CaptureRenderer` lays them out; across lanes
/// they overlap, so a reader sees many flows alive at once.
///
/// The bulk part is cut by bytes, not by count, because population
/// servers' page sizes are heavy-tailed: a fixed count would let the
/// capture size — and with it every time and memory reading — swing by
/// a third from seed to seed.
pub fn capture(seed: u64, bulk_bytes: u64, mice: u32, lanes: usize) -> Capture {
    let mut rng = seeded(seed);
    // More bulk candidates than any budget in use consumes (they average
    // about 2 MB); running out merely ends the bulk part early.
    let bulk_candidates = (bulk_bytes / 200_000) as u32 + 8;
    let mut webs = PopulationConfig::small(bulk_candidates + mice).generate(&mut rng);
    let (bulk, mice) = webs.split_at_mut(bulk_candidates as usize);
    for web in mice.iter_mut() {
        web.pages = PageModel {
            default_bytes: 2_000,
            longest_bytes: 2_000,
        };
        web.requests = RequestAcceptanceModel { max_requests: 1 };
        web.quirk = caai_tcpsim::SenderQuirk::None;
    }
    let mut mice = mice.iter().peekable();
    // Bulk sessions come from the servers that grant the probe's MSS as
    // proposed (four in five, Table II). A few large-MSS servers among
    // them would swing the capture's bytes-per-packet ratio from seed to
    // seed, and the two ingestion paths weigh bytes and packets
    // differently. The mice keep every MSS policy.
    let proposed_mss = ProberConfig::default().proposed_mss;
    let mut bulk = bulk
        .iter()
        .filter(|web| web.mss_policy.accepts(proposed_mss))
        .peekable();

    let lanes = lanes.max(1);
    let prober = Prober::new(ProberConfig::default());
    let mut renderers = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let (writer, written) = CountingWriter::new(Vec::new());
        let renderer = CaptureRenderer::with_writer(writer).expect("Vec writes are infallible");
        renderers.push((renderer, written, child(seed, lane as u64)));
    }

    let mut sessions = Vec::new();
    let mut bulk_rendered = 0u64;
    loop {
        let index = sessions.len();
        let bulk_wanted = bulk_rendered < bulk_bytes && bulk.peek().is_some();
        let is_bulk = bulk_wanted && (index % BULK_EVERY == 0 || mice.peek().is_none());
        let Some(web) = (if is_bulk { bulk.next() } else { mice.next() }) else {
            break;
        };

        let lane = index % lanes;
        let (renderer, written, lane_rng) = &mut renderers[lane];
        let client_ip = [10, 1, (lane >> 8) as u8, lane as u8];
        let server_ip = [
            172,
            16 + (index >> 16) as u8,
            (index >> 8) as u8,
            index as u8,
        ];
        let before = written.get();
        let outcome = renderer
            .render_session(
                client_ip,
                server_ip,
                &ServerUnderTest::from_web_server(web),
                &prober,
                &PathConfig::clean(),
                lane_rng,
            )
            .expect("in-memory render cannot fail");
        if is_bulk {
            bulk_rendered += written.get() - before;
        }
        sessions.push(SessionTruth {
            client_ip,
            server_ip,
            algorithm: web.effective_algorithm(),
            outcome,
        });
    }

    let lane_bytes: Vec<Vec<u8>> = renderers
        .into_iter()
        .map(|(renderer, _, _)| {
            let writer = renderer.finish().expect("Vec writes are infallible");
            writer.into_inner()
        })
        .collect();
    let (bytes, packets) = interleave(&lane_bytes);
    Capture {
        bytes,
        sessions,
        packets,
        lanes,
    }
}

/// K-way merges classic-pcap buffers by timestamp (lane `i` shifted by
/// `i × LANE_STAGGER`), keeping each lane's own frame order.
fn interleave(lanes: &[Vec<u8>]) -> (Vec<u8>, u64) {
    let total: usize = lanes.iter().map(Vec::len).sum();
    let mut writer = PcapWriter::new(Vec::with_capacity(total)).expect("Vec writes are infallible");
    let mut readers: Vec<PcapReader<'_>> = lanes
        .iter()
        .map(|bytes| PcapReader::new(bytes).expect("own render has a valid header"))
        .collect();
    // Whole microseconds as the key: exact, and totally ordered.
    let micros = |lane: usize, ts: f64| ((ts + lane as f64 * LANE_STAGGER) * 1e6).round() as u64;
    let mut heap = BinaryHeap::new();
    let mut heads = Vec::with_capacity(readers.len());
    for (lane, reader) in readers.iter_mut().enumerate() {
        let head = reader.next().map(|r| r.expect("own render is well framed"));
        if let Some(record) = &head {
            heap.push(Reverse((micros(lane, record.ts), lane)));
        }
        heads.push(head);
    }
    let mut packets = 0u64;
    while let Some(Reverse((at, lane))) = heap.pop() {
        let record = heads[lane].take().expect("a queued lane has a head");
        writer
            .write_frame(at as f64 / 1e6, record.data)
            .expect("Vec writes are infallible");
        packets += 1;
        heads[lane] = readers[lane]
            .next()
            .map(|r| r.expect("own render is well framed"));
        if let Some(next) = &heads[lane] {
            heap.push(Reverse((micros(lane, next.ts), lane)));
        }
    }
    (writer.finish().expect("Vec writes are infallible"), packets)
}

/// The verdict each session of a capture must be given, keyed by
/// `(client_ip, server_ip)`, with the session's true algorithm.
pub fn reference_verdicts(
    sessions: &[SessionTruth],
    classifier: &CaaiClassifier,
) -> BTreeMap<([u8; 4], [u8; 4]), (Verdict, AlgorithmId)> {
    sessions
        .iter()
        .map(|s| {
            let verdict = verdict_for_outcome(&s.outcome, classifier).0;
            ((s.client_ip, s.server_ip), (verdict, s.algorithm))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_stream::{PcapStream, StallPolicy, StreamConfig};

    const S: Scale = Scale::SMOKE;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(population(7, S.servers), population(7, S.servers));
        assert_ne!(population(7, S.servers), population(8, S.servers));

        let a = capture(7, S.bulk_bytes, S.mice, S.lanes);
        let b = capture(7, S.bulk_bytes, S.mice, S.lanes);
        let c = capture(8, S.bulk_bytes, S.mice, S.lanes);
        assert_eq!(a.bytes, b.bytes, "capture bytes must repeat for a seed");
        assert_ne!(a.bytes, c.bytes, "another seed must give another capture");

        let fleet = Fleet::spawn().expect("loopback fleet");
        let (_, truth_a) = fleet.targets(7, S.targets);
        let (_, truth_b) = fleet.targets(7, S.targets);
        let (_, truth_c) = fleet.targets(8, S.targets);
        assert_eq!(truth_a, truth_b);
        assert_ne!(truth_a, truth_c);
        for algo in ALL_IDENTIFIED {
            assert_eq!(
                truth_a.iter().filter(|&&a| a == algo).count(),
                S.targets / ALL_IDENTIFIED.len(),
                "round-robin covers every listener equally"
            );
        }
    }

    #[test]
    fn full_scale_capture_has_thousands_of_overlapping_flows() {
        let f = Scale::FULL;
        let capture = capture(3, f.bulk_bytes, f.mice, f.lanes);
        let classifier = classifier(3);
        let mut source = PcapStream::new(io::Cursor::new(&capture.bytes[..]), StallPolicy::Eof);
        let stats = caai_stream::run(&mut source, &classifier, &StreamConfig::default(), |_| {})
            .expect("own capture streams");
        assert_eq!(stats.packets, capture.packets);
        assert!(stats.flows >= 3_000, "only {} flows", stats.flows);
        assert!(
            stats.peak_live_flows >= 32,
            "only {} flows alive at once",
            stats.peak_live_flows
        );
        assert_eq!(stats.sessions as usize, capture.sessions.len());
    }

    #[test]
    fn reference_table_matches_what_ingestion_reconstructs() {
        let capture = capture(5, S.bulk_bytes, S.mice, S.lanes);
        let classifier = classifier(5);
        let reference = reference_verdicts(&capture.sessions, &classifier);
        assert_eq!(reference.len(), capture.sessions.len(), "unique addresses");
        let verdicts = caai_stream::identify_bytes(&capture.bytes, &classifier, None)
            .expect("own capture ingests");
        assert!(verdicts.skipped.is_empty() && verdicts.truncated.is_none());
        assert_eq!(verdicts.sessions.len(), reference.len());
        // Interleaving lanes must not disturb any session: ingestion
        // reconstructs the very outcome the renderer measured.
        let outcomes: BTreeMap<_, _> = capture
            .sessions
            .iter()
            .map(|s| ((s.client_ip, s.server_ip), &s.outcome))
            .collect();
        for s in &verdicts.sessions {
            let key = (s.client_ip, s.server_ip);
            assert_eq!(&s.outcome, outcomes[&key], "session {key:?}");
            assert_eq!(s.record.verdict, reference[&key].0, "session {key:?}");
        }
    }
}
