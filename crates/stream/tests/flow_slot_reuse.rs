//! A 4-tuple that closes, is evicted, and comes back (port reuse) while
//! hundreds of other flows are live: the flow lookup's front cache must
//! not hand the returning flow the slab slot its first life held, which
//! the streaming pipeline has meanwhile given to another flow. Every
//! ingestion path must agree on the result.

use caai_capture::packet::{encode, flags, FrameSpec};
use caai_capture::{reassemble, reassemble_source, PcapWriter, Reassembly, SessionReport};
use caai_core::census::Verdict;
use caai_core::classify::CaaiClassifier;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use caai_obs::NullSubscriber;
use caai_stream::{identify_bytes, run, PcapStream, StallPolicy, StreamConfig};
use std::io::Cursor;

/// Flows live throughout, more than the lookup's 256 front slots.
const BACKGROUND: u16 = 300;
/// 4-tuples that close, are evicted and come back.
const REUSED: u8 = 40;
const SERVER: ([u8; 4], u16) = ([10, 8, 0, 1], 80);

fn classifier() -> CaaiClassifier {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(4);
    let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
    CaaiClassifier::train(&data, &mut rng)
}

/// A pure ACK from `from` to `to`; callers fill in the rest.
fn segment(from: ([u8; 4], u16), to: ([u8; 4], u16)) -> FrameSpec<'static> {
    FrameSpec {
        src_ip: from.0,
        dst_ip: to.0,
        src_port: from.1,
        dst_port: to.1,
        seq: 1,
        ack: 1,
        flags: flags::ACK,
        window: 65_535,
        mss_option: None,
        payload: b"",
    }
}

struct Capture {
    w: PcapWriter<Vec<u8>>,
}

impl Capture {
    fn frame(&mut self, ts: f64, spec: FrameSpec<'_>) {
        self.w
            .write_frame(ts, &encode(&spec))
            .expect("in-memory writer");
    }

    /// Handshake, two 100-byte server segments with their ACKs, server
    /// FIN: a short page, one connection the session table keeps.
    fn short_connection(&mut self, t: f64, client: ([u8; 4], u16)) {
        const PAYLOAD: [u8; 100] = [7; 100];
        let (c, s) = (1000u32, 5000u32);
        let (up, down) = (segment(client, SERVER), segment(SERVER, client));
        let frames = [
            FrameSpec {
                seq: c,
                ack: 0,
                flags: flags::SYN,
                mss_option: Some(100),
                ..up
            },
            FrameSpec {
                seq: s,
                ack: c + 1,
                flags: flags::SYN | flags::ACK,
                mss_option: Some(100),
                ..down
            },
            FrameSpec {
                seq: s + 1,
                ack: c + 1,
                payload: &PAYLOAD,
                ..down
            },
            FrameSpec {
                seq: c + 1,
                ack: s + 101,
                ..up
            },
            FrameSpec {
                seq: s + 101,
                ack: c + 1,
                payload: &PAYLOAD,
                ..down
            },
            FrameSpec {
                seq: c + 1,
                ack: s + 201,
                ..up
            },
            FrameSpec {
                seq: s + 201,
                ack: c + 1,
                flags: flags::FIN | flags::ACK,
                ..down
            },
        ];
        for (k, spec) in frames.into_iter().enumerate() {
            self.frame(t + 0.01 * k as f64, spec);
        }
    }

    /// One pure ACK from a background client: keeps its flow live.
    fn keepalive(&mut self, t: f64, client: ([u8; 4], u16)) {
        self.frame(t, segment(client, SERVER));
    }
}

fn background(j: u16) -> ([u8; 4], u16) {
    ([10, 6, (j >> 8) as u8, j as u8], 20_000 + j)
}

/// With a 2 s flow timeout: background flows open at t≈0 and stay live
/// by a keepalive every 1.5 s; the reused 4-tuples live at t≈0.5, are
/// evicted at the t=3 tick, the fresh flows opened at t=3.1 take their
/// freed slab slots, and the same 4-tuples return at t=3.2.
fn capture() -> Vec<u8> {
    let mut cap = Capture {
        w: PcapWriter::new(Vec::new()).expect("in-memory writer"),
    };
    for j in 0..BACKGROUND {
        cap.keepalive(0.001 * f64::from(j), background(j));
    }
    let reused = |i: u8| ([10, 9, 0, i], 40_000 + u16::from(i));
    let fresh = |i: u8| ([10, 7, 0, i], 41_000 + u16::from(i));
    for i in 0..REUSED {
        cap.short_connection(0.5 + 0.001 * f64::from(i), reused(i));
    }
    for round in [1.5, 3.0] {
        for j in 0..BACKGROUND {
            cap.keepalive(round + 0.0001 * f64::from(j), background(j));
        }
    }
    for i in 0..REUSED {
        cap.short_connection(3.1 + 0.001 * f64::from(i), fresh(i));
    }
    for i in 0..REUSED {
        cap.short_connection(3.2 + 0.001 * f64::from(i), reused(i));
    }
    for j in 0..BACKGROUND {
        cap.keepalive(3.4 + 0.0001 * f64::from(j), background(j));
    }
    cap.w.finish().expect("in-memory writer")
}

fn verdicts(sessions: &[SessionReport]) -> Vec<([u8; 4], [u8; 4], Verdict)> {
    sessions
        .iter()
        .map(|s| (s.client_ip, s.server_ip, s.record.verdict))
        .collect()
}

fn assert_same_reassembly(a: &Reassembly, b: &Reassembly) {
    assert_eq!(a.flows, b.flows);
    assert_eq!(a.skipped, b.skipped);
    assert_eq!(a.packets, b.packets);
    assert!(a.truncated.is_none() && b.truncated.is_none());
}

#[test]
fn a_returning_four_tuple_never_inherits_a_reused_slot() {
    let capture = capture();
    let classifier = classifier();
    let config = StreamConfig {
        flow_timeout: 2.0,
        ..StreamConfig::default()
    };

    let offline = identify_bytes(&capture, &classifier, None).expect("capture parses");
    let mut source = PcapStream::new(Cursor::new(&capture[..]), StallPolicy::Eof);
    let mut streamed: Vec<SessionReport> = Vec::new();
    let stats = run(&mut source, &classifier, &config, |s| {
        streamed.push(s.clone())
    })
    .expect("capture parses");

    assert!(stats.skipped.is_empty(), "{:?}", stats.skipped);
    assert_eq!(
        offline.sessions.len(),
        2 * usize::from(REUSED),
        "one verdict per reused and per fresh client"
    );
    // Offline, a 4-tuple is one flow for the whole capture (its second
    // life is teardown chatter after the FIN); streamed, it is evicted
    // and opens again. The sessions' flow counts differ by design, the
    // verdicts may not.
    assert_eq!(verdicts(&streamed), verdicts(&offline.sessions));
    assert!(streamed[..usize::from(REUSED)].iter().all(|s| s.flows == 2));
    assert!(
        stats.peak_live_flows > usize::from(BACKGROUND),
        "peak {} live flows: more flows than front slots were never live",
        stats.peak_live_flows
    );
    assert_eq!(
        stats.flows,
        u64::from(BACKGROUND) + 3 * u64::from(REUSED),
        "each reused 4-tuple opens twice"
    );

    let whole = reassemble(&capture).expect("capture parses");
    let mut source = PcapStream::new(Cursor::new(&capture[..]), StallPolicy::Eof);
    let drained = reassemble_source(&mut source, &NullSubscriber).expect("capture parses");
    assert_same_reassembly(&whole, &drained);
    assert!(whole.skipped.is_empty(), "{:?}", whole.skipped);
    assert_eq!(
        whole.flows.len(),
        usize::from(BACKGROUND) + 2 * usize::from(REUSED)
    );
}
