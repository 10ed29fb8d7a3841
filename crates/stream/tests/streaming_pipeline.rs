//! End-to-end guarantees of the streaming pipeline:
//!
//! * verdicts are identical to the whole-capture reference's over the
//!   same capture, also when packets arrive late, out of order across
//!   rounds;
//! * the verdict callback and every subscriber call run where `run` was
//!   called, so neither has to be `Send`;
//! * the pcapng container yields the same verdicts as classic pcap;
//! * a cut capture is read alike offline and streaming, in either
//!   container: an error inside the container header, truncation after
//!   it — the first record included;
//! * memory stays bounded under 10 000 interleaved flows (the timeout
//!   wheel actually evicts);
//! * verdicts emit while the capture is still growing (follow mode).

use caai_capture::packet::{encode, flags, FrameSpec};
use caai_capture::{
    identify_reassembly, reassemble, CaptureRenderer, PcapWriter, SessionReport, DEFAULT_LADDER,
};
use caai_congestion::AlgorithmId;
use caai_core::census::Verdict;
use caai_core::classify::CaaiClassifier;
use caai_core::prober::{Prober, ProberConfig};
use caai_core::server_under_test::ServerUnderTest;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_netem::rng::seeded;
use caai_netem::{ConditionDb, NetworkCondition, PathConfig};
use caai_obs::{Event, Subscriber};
use caai_stream::{
    classic_to_pcapng, identify_bytes, run, run_obs, PcapStream, StallPolicy, StreamConfig,
};
use std::cell::RefCell;
use std::io::Read;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

fn classifier() -> &'static CaaiClassifier {
    static MODEL: OnceLock<CaaiClassifier> = OnceLock::new();
    MODEL.get_or_init(|| {
        let db = ConditionDb::paper_2011();
        let mut rng = seeded(4);
        let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
        CaaiClassifier::train(&data, &mut rng)
    })
}

/// Two full probe sessions (CUBIC and RENO servers) over `path`,
/// rendered to classic pcap.
fn render(path: &PathConfig, seed: u64) -> Vec<u8> {
    let mut renderer = CaptureRenderer::new();
    let prober = Prober::new(ProberConfig::default());
    let mut rng = seeded(seed);
    for (host, algo) in [(1, AlgorithmId::CubicV2), (2, AlgorithmId::Reno)] {
        renderer
            .render_session(
                [192, 0, 2, 1],
                [198, 51, 100, host],
                &ServerUnderTest::ideal(algo),
                &prober,
                path,
                &mut rng,
            )
            .expect("in-memory render cannot fail");
    }
    renderer.to_bytes()
}

/// The two sessions over a clean path — the shared multi-session fixture.
fn fixture() -> &'static [u8] {
    static CAPTURE: OnceLock<Vec<u8>> = OnceLock::new();
    CAPTURE.get_or_init(|| render(&PathConfig::clean(), 9))
}

/// The two sessions over a jittery path: some packets arrive a round
/// late, behind later ones, and a few are lost or duplicated.
fn late_fixture() -> &'static [u8] {
    static CAPTURE: OnceLock<Vec<u8>> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let path = PathConfig::from_condition(&NetworkCondition {
            rtt_mean: 0.3,
            rtt_std: 0.2,
            loss_rate: 0.01,
        });
        assert!(path.late_prob > 0.0, "the path delivers packets late");
        render(&path, 9)
    })
}

/// The determinism contract: the streamed verdicts, at the default
/// timeouts, equal the whole-capture reference's (same reports, same
/// order, same server ids), on a clean capture and on one whose packets
/// arrive out of order.
#[test]
fn streaming_verdicts_equal_the_offline_path() {
    for (name, capture) in [("clean", fixture()), ("late", late_fixture())] {
        let reference = reassemble(capture).expect("fixture parses");
        let sessions = identify_reassembly(&reference, classifier(), &DEFAULT_LADDER);
        assert!(
            sessions.len() == 2,
            "{name}: fixture must carry two probe sessions, got {}",
            sessions.len()
        );
        let identified = |s: &SessionReport| matches!(s.record.verdict, Verdict::Identified(..));
        assert!(
            sessions.iter().all(identified),
            "{name}: both sessions must be identified"
        );
        let mut source = PcapStream::new(std::io::Cursor::new(capture), StallPolicy::Eof);
        let mut reports = Vec::new();
        let stats = run(
            &mut source,
            classifier(),
            &StreamConfig::default(),
            |s: &SessionReport| reports.push(s.clone()),
        )
        .expect("fixture header is valid");
        assert_eq!(
            reports, sessions,
            "{name}: streaming == whole-capture reference"
        );
        assert_eq!(stats.packets as usize, reference.packets);
        let skipped: Vec<_> = stats
            .skipped
            .into_iter()
            .map(|(i, r)| (i as usize, r))
            .collect();
        assert_eq!(skipped, reference.skipped, "{name}");
    }
}

/// Asserts every event it is handed arrives on the thread it was made on.
struct SameThread {
    home: std::thread::ThreadId,
    events: AtomicUsize,
}

impl Subscriber for SameThread {
    fn on_event(&self, _event: &Event<'_>) {
        assert_eq!(std::thread::current().id(), self.home);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// One loop, on the caller: a verdict closure over `Rc<RefCell<_>>` (not
/// `Send`) is accepted, and it and every subscriber call — frame, flow,
/// granule, session, span — run on the thread that called `run_obs`.
#[test]
fn verdicts_and_events_stay_on_the_calling_thread() {
    let home = std::thread::current().id();
    let obs = SameThread {
        home,
        events: AtomicUsize::new(0),
    };
    let reports = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&reports);
    let mut source = PcapStream::new(std::io::Cursor::new(fixture()), StallPolicy::Eof);
    run_obs(
        &mut source,
        classifier(),
        &StreamConfig::default(),
        move |s: &SessionReport| {
            assert_eq!(std::thread::current().id(), home);
            sink.borrow_mut().push(s.server_ip);
        },
        &obs,
    )
    .expect("fixture header is valid");
    assert_eq!(reports.borrow().len(), 2);
    assert!(obs.events.load(Ordering::Relaxed) > 2);
}

/// Container equivalence: the same frames wrapped as pcapng (either
/// endianness, nanosecond resolution included) identify identically to
/// classic pcap through the byte-level entry point.
#[test]
fn pcapng_identifies_identically_to_classic() {
    let classic = identify_bytes(fixture(), classifier(), None).expect("classic parses");
    for (big, resol) in [(false, 6), (true, 6), (false, 9)] {
        let ng = classic_to_pcapng(fixture(), big, resol);
        let got = identify_bytes(&ng, classifier(), None).expect("pcapng parses");
        assert_eq!(
            got.sessions, classic.sessions,
            "pcapng (big={big}, resol={resol}) diverged"
        );
        assert_eq!(got.packets, classic.packets);
    }
}

/// The header-versus-truncation rule, table-driven: each container cut
/// inside its header (section header block for pcapng), inside its first
/// record (enhanced packet block), and in the middle. `identify_bytes`
/// and `run` over a `PcapStream` must agree on success, packets, skips,
/// the truncation (offset and reason) and the sessions; only the header
/// cut is an error.
#[test]
fn cut_captures_read_alike_offline_and_streaming() {
    let classic = fixture().to_vec();
    let pcapng = classic_to_pcapng(fixture(), false, 6);
    let u32_at = |buf: &[u8], at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    // Classic: 24-byte header, then records of 16 + incl_len bytes.
    // pcapng: a 28-byte section header and a 32-byte interface block,
    // then packet blocks whose length sits 4 bytes in.
    let first_record = 24 + (16 + u32_at(&classic, 24 + 8) as usize) / 2;
    let first_block = 60 + u32_at(&pcapng, 60 + 4) as usize / 2;
    let cases = [
        ("classic header", &classic[..12], false),
        ("classic first record", &classic[..first_record], true),
        ("classic middle", &classic[..classic.len() / 2], true),
        ("pcapng header", &pcapng[..20], false),
        ("pcapng first block", &pcapng[..first_block], true),
        ("pcapng middle", &pcapng[..pcapng.len() / 2], true),
    ];
    for (name, bytes, readable) in cases {
        let offline = identify_bytes(bytes, classifier(), None);
        let mut source = PcapStream::new(std::io::Cursor::new(bytes), StallPolicy::Eof);
        let mut reports = Vec::new();
        let streamed = run(
            &mut source,
            classifier(),
            &StreamConfig::default(),
            |s: &SessionReport| reports.push(s.clone()),
        );
        let (offline, streamed) = match (offline, streamed) {
            (Ok(offline), Ok(streamed)) => (offline, streamed),
            (Err(a), Err(b)) => {
                assert!(!readable, "{name}: {a}");
                assert_eq!(a, b, "{name}: header errors differ");
                continue;
            }
            (a, b) => panic!("{name}: offline {:?} but streaming {:?}", a.err(), b.err()),
        };
        assert!(readable, "{name}: a header cut must be an error");
        let truncated = offline
            .truncated
            .as_ref()
            .expect("a cut capture is truncated");
        assert_eq!(streamed.truncated.as_ref(), Some(truncated), "{name}");
        assert_eq!(streamed.packets as usize, offline.packets, "{name}");
        let skipped: Vec<_> = streamed
            .skipped
            .iter()
            .map(|(i, r)| (*i as usize, r.clone()))
            .collect();
        assert_eq!(skipped, offline.skipped, "{name}");
        assert_eq!(reports, offline.sessions, "{name}");
    }
}

/// 10 000 interleaved handshake flows, ~120 concurrently alive at any
/// instant: the timeout wheel must keep peak live state near the
/// concurrency level, not the flow total — the bounded-memory contract
/// of follow mode.
#[test]
fn eviction_bounds_memory_over_ten_thousand_flows() {
    const FLOWS: usize = 10_000;
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory writer");
    for i in 0..FLOWS {
        let t = i as f64 * 0.01;
        let client = [10, 1, (i >> 8) as u8, (i & 0xFF) as u8];
        let server = [10, 2, 0, 1];
        let base = FrameSpec {
            src_ip: client,
            dst_ip: server,
            src_port: 2000 + (i % 60_000) as u16,
            dst_port: 80,
            seq: 100,
            ack: 0,
            flags: flags::SYN,
            window: 65_535,
            mss_option: Some(1460),
            payload: b"",
        };
        // SYN at t, SYN/ACK at t+0.3, final ACK at t+0.6: every flow
        // overlaps the ~120 around it, none carries data.
        w.write_frame(t, &encode(&base)).expect("write");
        w.write_frame(
            t + 0.3,
            &encode(&FrameSpec {
                src_ip: server,
                dst_ip: client,
                src_port: 80,
                dst_port: base.src_port,
                seq: 900,
                ack: 101,
                flags: flags::SYN | flags::ACK,
                ..base
            }),
        )
        .expect("write");
        w.write_frame(
            t + 0.6,
            &encode(&FrameSpec {
                seq: 101,
                ack: 901,
                flags: flags::ACK,
                ..base
            }),
        )
        .expect("write");
    }
    let capture = w.finish().expect("finish");

    let mut source = PcapStream::new(std::io::Cursor::new(&capture[..]), StallPolicy::Eof);
    let config = StreamConfig {
        flow_timeout: 1.0,
        session_timeout: 5.0,
        ..StreamConfig::default()
    };
    let seen = AtomicUsize::new(0);
    let stats = run(&mut source, classifier(), &config, |_s| {
        seen.fetch_add(1, Ordering::Relaxed);
    })
    .expect("capture parses");

    assert_eq!(stats.packets, 3 * FLOWS as u64);
    assert_eq!(stats.flows, FLOWS as u64);
    assert_eq!(
        stats.dataless_sessions, FLOWS as u64,
        "handshake-only flows never produce verdicts"
    );
    assert_eq!(seen.load(Ordering::Relaxed), 0);
    assert!(
        stats.peak_live_flows < FLOWS / 10,
        "peak live flows {} must track concurrency (~120), not the {} total",
        stats.peak_live_flows,
        FLOWS
    );
}

/// A blocking reader fed chunk-by-chunk over a channel — a growing
/// capture under test control.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    at: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.at == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.at = 0;
                }
                Err(_) => return Ok(0), // writer closed: EOF
            }
        }
        let n = (self.buf.len() - self.at).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Two tiny data-bearing flows 700 s apart. Everything through frame
/// `split_after` (flow A complete + flow B's SYN) goes in the first
/// chunk; flow A's verdict must arrive *before* the rest is written.
#[test]
fn verdicts_emit_while_the_capture_is_still_growing() {
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory writer");
    let mut frames = 0usize;
    for (t0, server) in [(0.0, [10, 2, 0, 1]), (700.0, [10, 2, 0, 2])] {
        let client = [10, 1, 0, 1];
        let base = FrameSpec {
            src_ip: client,
            dst_ip: server,
            src_port: 2000,
            dst_port: 80,
            seq: 100,
            ack: 0,
            flags: flags::SYN,
            window: 65_535,
            mss_option: Some(1460),
            payload: b"",
        };
        w.write_frame(t0, &encode(&base)).expect("write");
        w.write_frame(
            t0 + 0.1,
            &encode(&FrameSpec {
                src_ip: server,
                dst_ip: client,
                src_port: 80,
                dst_port: 2000,
                seq: 900,
                ack: 101,
                flags: flags::SYN | flags::ACK,
                ..base
            }),
        )
        .expect("write");
        let payload = [0u8; 1000];
        w.write_frame(
            t0 + 0.2,
            &encode(&FrameSpec {
                src_ip: server,
                dst_ip: client,
                src_port: 80,
                dst_port: 2000,
                seq: 901,
                ack: 101,
                flags: flags::ACK | flags::PSH,
                payload: &payload,
                ..base
            }),
        )
        .expect("write");
        frames += 3;
    }
    assert_eq!(frames, 6);
    let capture = w.finish().expect("finish");

    // Byte offset just after frame 4 (flow A's 3 frames + flow B's SYN):
    // flow B's SYN advances the watermark to 700, which evicts flow A
    // (idle 700 s > 60 s) and times its session out (idle > 300 s).
    let mut split = 24usize;
    for _ in 0..4 {
        let incl = u32::from_le_bytes(capture[split + 8..split + 12].try_into().unwrap()) as usize;
        split += 16 + incl;
    }
    assert!(split < capture.len());

    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let seen = Arc::new(AtomicUsize::new(0));
    let head = capture[..split].to_vec();
    let tail = capture[split..].to_vec();
    let writer = {
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || -> bool {
            tx.send(head).expect("reader alive");
            let t0 = Instant::now();
            // Wait for flow A's verdict before writing the rest of the
            // capture; bail out (failing the test) rather than hang.
            while seen.load(Ordering::SeqCst) == 0 {
                if t0.elapsed() > Duration::from_secs(30) {
                    tx.send(tail).expect("reader alive");
                    return false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            tx.send(tail).expect("reader alive");
            true
        })
    };

    let reader = ChannelReader {
        rx,
        buf: Vec::new(),
        at: 0,
    };
    let mut source = PcapStream::new(reader, StallPolicy::Eof);
    let config = StreamConfig {
        flow_timeout: 60.0,
        session_timeout: 300.0,
        ..StreamConfig::default()
    };
    let mut reports = Vec::new();
    let stats = run(&mut source, classifier(), &config, |s: &SessionReport| {
        seen.fetch_add(1, Ordering::SeqCst);
        reports.push(s.clone());
    })
    .expect("capture parses");

    assert!(
        writer.join().expect("writer thread"),
        "flow A's verdict must arrive while the capture is still growing"
    );
    assert_eq!(stats.packets, 6);
    assert_eq!(reports.len(), 2, "both sessions eventually report");
    assert_eq!(reports[0].server_ip, [10, 2, 0, 1]);
    assert_eq!(reports[1].server_ip, [10, 2, 0, 2]);
}
