//! Seed corpus construction.
//!
//! Structure-aware fuzzing is only as good as its seeds: mutations of a
//! valid capture reach far deeper into the parsers than random bytes
//! ever would. The seeds here cover both containers and both byte
//! orders, and include a real rendered CAAI probe session so the flow
//! reassembler and ladder reconstruction see realistic TCP state, not
//! just a toy handshake. Two more seeds are not captures at all: the
//! client's and the server's half of one probe connection on the
//! `caai-net` wire, every frame type present (run-length `Acks` and
//! `Burst`s included), for the `net-frames` target.
//!
//! The module also builds the *diagnostic fixtures*: tiny hand-framed
//! pcapng captures that each provoke exactly one skip diagnostic, with
//! the expected rendered string pinned character-for-character. These
//! are committed under `tests/corpus/` and replayed by the corpus
//! regression test, so a wording change in the reader is a visible diff,
//! not a silent drift.

use caai_capture::flow::{FlowIndex, FlowKey};
use caai_capture::packet::flags;
use caai_capture::pcap::byteswap_capture;
use caai_capture::{encode, CaptureRenderer, FrameSpec, PcapReader, PcapWriter};
use caai_congestion::AlgorithmId;
use caai_core::sansio::{LadderCore, ServerCore, Step};
use caai_core::{Prober, ProberConfig, ServerUnderTest};
use caai_net::frame::Wire;
use caai_netem::path::PathConfig;
use caai_netem::rng::seeded;
use caai_stream::classic_to_pcapng;
use caai_stream::pcapng::{BT_EPB, BT_IDB, BT_SPB, BYTE_ORDER_MAGIC, SHB_MAGIC};

/// Upper bound on any single seed. Iteration cost is linear in seed
/// size, so the 100k-iteration acceptance run needs seeds this small.
pub const MAX_SEED_LEN: usize = 48 * 1024;

/// A named seed input.
pub struct Seed {
    pub name: &'static str,
    pub bytes: Vec<u8>,
}

/// Builds the full seed set: a handcrafted classic capture, a rendered
/// CAAI probe session, their big-endian twins, pcapng re-framings at
/// three timestamp resolutions, 4-tuples that collide in the flow
/// lookup's front cache, a trace-event document, and the two halves of
/// a probe-wire dialogue.
pub fn build_seeds() -> Vec<Seed> {
    let tiny = tiny_classic();
    let (net_client, net_server) = net_dialogue();
    // pcapng re-framing inflates a classic capture (32-byte block
    // envelopes vs 16-byte record headers), so cap the classic form low
    // enough that its pcapng twins also fit the budget.
    let rendered = cap_capture(&rendered_session(), MAX_SEED_LEN * 2 / 3);
    let seeds = vec![
        Seed {
            name: "tiny-classic",
            bytes: tiny.clone(),
        },
        Seed {
            name: "tiny-classic-be",
            bytes: byteswap_capture(&tiny),
        },
        Seed {
            name: "rendered-reno",
            bytes: rendered.clone(),
        },
        Seed {
            name: "rendered-reno-be",
            bytes: byteswap_capture(&rendered),
        },
        Seed {
            name: "pcapng-le-us",
            bytes: classic_to_pcapng(&rendered, false, 6),
        },
        Seed {
            name: "pcapng-be-ns",
            bytes: classic_to_pcapng(&rendered, true, 9),
        },
        Seed {
            name: "pcapng-le-2pow",
            bytes: classic_to_pcapng(&tiny, false, 0x80 | 20),
        },
        Seed {
            name: "trace-json",
            bytes: trace_event_json(),
        },
        Seed {
            name: "flow-slot-collisions",
            bytes: flow_slot_collisions(),
        },
        Seed {
            name: "net-client-half",
            bytes: net_client,
        },
        Seed {
            name: "net-server-half",
            bytes: net_server,
        },
    ];
    for s in &seeds {
        assert!(!s.bytes.is_empty(), "seed {} rendered empty", s.name);
        assert!(
            s.bytes.len() <= MAX_SEED_LEN + 4096,
            "seed {} is {} bytes, too large for the iteration budget",
            s.name,
            s.bytes.len()
        );
    }
    seeds
}

/// The first connection of a probe of an ideal RENO server, the two
/// sans-IO cores talking directly: every byte the client wrote (`Hello`,
/// `Xmit`, a round's `Acks`, `RtoWait`, the F-RTO duplicate `Ack`) and
/// every byte the server wrote (`Welcome`, run-length `Burst`s,
/// `RtoResult`), as `(client, server)`.
fn net_dialogue() -> (Vec<u8>, Vec<u8>) {
    let mut client = LadderCore::new(ProberConfig::default());
    let mut server = ServerCore::new(ServerUnderTest::ideal(AlgorithmId::Reno));
    let (mut upstream, mut downstream) = (Vec::new(), Vec::new());
    assert_eq!(client.start(), Step::Connect);
    let mut step = client.on_connected();
    loop {
        let Step::Send {
            frames,
            close_after,
            ..
        } = step
        else {
            panic!("the first connection ends in a closing send, not {step:?}");
        };
        let mut reply = None;
        for frame in &frames {
            frame.encode_into(&mut upstream);
            let answered = server.on_frame(frame).expect("honest client");
            reply = answered.frames.or(reply);
        }
        if close_after {
            return (upstream, downstream);
        }
        let reply = reply.expect("a send that stays open is answered");
        reply.encode_into(&mut downstream);
        step = client.on_frame(&reply).expect("honest server");
    }
}

/// A small trace-event document in exactly the `TraceSubscriber`
/// dialect: thread metadata, nested `"X"` complete events down the
/// census → batch → gather → rung → round spine (with virtual-time
/// args), a sibling classify, and an async `"b"`/`"e"` flow pair. Hand-
/// written with fixed ids and timestamps rather than rendered through
/// the live subscriber, so the seed bytes — and with them every
/// mutation the campaign derives — are identical from run to run.
fn trace_event_json() -> Vec<u8> {
    concat!(
        "[\n",
        r#"{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"main"}}"#,
        ",\n",
        r#"{"ph":"b","cat":"caai","id":"9","name":"flow","pid":1,"tid":1,"ts":4.000,"args":{"parent":0,"first_seq":16}}"#,
        ",\n",
        r#"{"ph":"e","cat":"caai","id":"9","name":"flow","pid":1,"tid":2,"ts":41.500}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"gather.round","pid":1,"tid":2,"ts":120.000,"dur":30.000,"id":"5","args":{"parent":4,"round":0,"phase":0,"virt":0.000000000,"virt_dur":0.200000000}}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"gather.rung","pid":1,"tid":2,"ts":118.000,"dur":40.000,"id":"4","args":{"parent":3,"wmax":64,"env":0,"virt":0.000000000,"virt_dur":0.310000000}}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"gather","pid":1,"tid":2,"ts":110.000,"dur":300.000,"id":"3","args":{"parent":2,"server_id":7}}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"classify","pid":1,"tid":2,"ts":415.000,"dur":12.500,"id":"6","args":{"parent":2,"server_id":7}}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"census.batch","pid":1,"tid":2,"ts":100.000,"dur":350.000,"id":"2","args":{"parent":1,"start":0,"len":16}}"#,
        ",\n",
        r#"{"ph":"X","cat":"caai","name":"census.run","pid":1,"tid":1,"ts":0.000,"dur":500.000,"id":"1","args":{"parent":0,"population":16,"workers":2}}"#,
        "\n]\n",
    )
    .as_bytes()
    .to_vec()
}

/// A handshake, two data segments with their ACKs, and a server FIN:
/// the smallest capture the flow layer fully understands.
fn tiny_classic() -> Vec<u8> {
    const CLIENT: ([u8; 4], u16) = ([192, 0, 2, 1], 40001);
    const SERVER: ([u8; 4], u16) = ([198, 51, 100, 9], 80);
    let (isn_c, isn_s) = (1000u32, 5000u32);
    let payload = [7u8; 100];
    let mut w = PcapWriter::new(Vec::new()).expect("Vec writes are infallible");
    let mut frame = |ts: f64, spec: FrameSpec<'_>| {
        w.write_frame(ts, &encode(&spec))
            .expect("Vec writes are infallible");
    };
    frame(
        0.0,
        FrameSpec {
            seq: isn_c,
            flags: flags::SYN,
            mss_option: Some(100),
            ..spec(CLIENT, SERVER)
        },
    );
    frame(
        0.1,
        FrameSpec {
            seq: isn_s,
            ack: isn_c + 1,
            flags: flags::SYN | flags::ACK,
            mss_option: Some(1460),
            ..spec(SERVER, CLIENT)
        },
    );
    frame(
        0.2,
        FrameSpec {
            seq: isn_c + 1,
            ack: isn_s + 1,
            ..spec(CLIENT, SERVER)
        },
    );
    frame(
        1.0,
        FrameSpec {
            seq: isn_s + 1,
            ack: isn_c + 1,
            payload: &payload,
            ..spec(SERVER, CLIENT)
        },
    );
    frame(
        1.2,
        FrameSpec {
            seq: isn_c + 1,
            ack: isn_s + 101,
            ..spec(CLIENT, SERVER)
        },
    );
    frame(
        2.0,
        FrameSpec {
            seq: isn_s + 101,
            ack: isn_c + 1,
            payload: &payload,
            ..spec(SERVER, CLIENT)
        },
    );
    frame(
        2.2,
        FrameSpec {
            seq: isn_c + 1,
            ack: isn_s + 201,
            ..spec(CLIENT, SERVER)
        },
    );
    frame(
        3.0,
        FrameSpec {
            seq: isn_s + 201,
            ack: isn_c + 1,
            flags: flags::FIN | flags::ACK,
            ..spec(SERVER, CLIENT)
        },
    );
    w.finish().expect("Vec writes are infallible")
}

/// 4-tuples interleaved packet by packet that all share one front slot
/// of the flow lookup (`FlowIndex`), so every packet misses the cache and
/// refills it; then, after an idle gap longer than the streaming
/// pipeline's default flow timeout, two fresh flows open and the first
/// 4-tuple comes back (port reuse after FIN) while the slab slot it held
/// is free. Were the pipeline to leave its evicted key in the front
/// slot, the returning flow would be handed that free slab slot and the
/// `pipeline` target would panic. Committed as
/// `tests/corpus/flow-slot-collisions.pcap`.
pub fn flow_slot_collisions() -> Vec<u8> {
    const SERVER: ([u8; 4], u16) = ([198, 51, 100, 7], 80);
    const TUPLES: usize = 20;
    let key = |port: u16| FlowKey {
        a: ([192, 0, 2, 1], port),
        b: SERVER,
    };
    let slot = FlowIndex::front_slot(&key(40_000));
    let ports: Vec<u16> = (40_000..=u16::MAX)
        .filter(|&p| FlowIndex::front_slot(&key(p)) == slot)
        .take(TUPLES)
        .collect();
    let fresh: Vec<u16> = (30_000..)
        .filter(|&p| FlowIndex::front_slot(&key(p)) != slot)
        .take(2)
        .collect();
    let mut w = PcapWriter::new(Vec::new()).expect("Vec writes are infallible");
    let mut frame = |ts: f64, spec: FrameSpec<'_>| {
        w.write_frame(ts, &encode(&spec))
            .expect("Vec writes are infallible");
    };
    // The lifetime of one connection, one frame per step: handshake, two
    // data segments each ACKed, then the server's FIN.
    let step = |port: u16, k: usize| -> FrameSpec<'static> {
        const PAYLOAD: [u8; 64] = [5u8; 64];
        let client = ([192, 0, 2, 1], port);
        let (isn_c, isn_s) = (1000u32, 7000u32);
        let to_server = spec(client, SERVER);
        let to_client = spec(SERVER, client);
        match k {
            0 => FrameSpec {
                seq: isn_c,
                flags: flags::SYN,
                mss_option: Some(64),
                ..to_server
            },
            1 => FrameSpec {
                seq: isn_s,
                ack: isn_c + 1,
                flags: flags::SYN | flags::ACK,
                mss_option: Some(1460),
                ..to_client
            },
            2 | 4 => FrameSpec {
                seq: isn_s + 1 + 32 * (k as u32 - 2),
                ack: isn_c + 1,
                payload: &PAYLOAD,
                ..to_client
            },
            3 | 5 => FrameSpec {
                seq: isn_c + 1,
                ack: isn_s + 1 + 32 * (k as u32 - 1),
                ..to_server
            },
            _ => FrameSpec {
                seq: isn_s + 129,
                ack: isn_c + 1,
                flags: flags::FIN | flags::ACK,
                ..to_client
            },
        }
    };
    let mut ts = 0.0;
    for k in 0..7 {
        for &port in &ports {
            frame(ts, step(port, k));
            ts += 0.001;
        }
    }
    // The first 4-tuple's client ACKs its FIN last, so the shared front
    // slot still names it when the pipeline evicts it and frees the slab
    // slot the slot points at.
    let reused = ports[0];
    frame(
        ts,
        FrameSpec {
            seq: 1001,
            ack: 7130,
            ..spec(([192, 0, 2, 1], reused), SERVER)
        },
    );
    for (ts, port) in [(200.0, fresh[0]), (200.5, fresh[1]), (201.0, reused)] {
        for k in 0..7 {
            frame(ts + 0.01 * k as f64, step(port, k));
        }
    }
    w.finish().expect("Vec writes are infallible")
}

/// A pure ACK from `from` to `to`; callers fill in the rest.
fn spec(from: ([u8; 4], u16), to: ([u8; 4], u16)) -> FrameSpec<'static> {
    FrameSpec {
        src_ip: from.0,
        dst_ip: to.0,
        src_port: from.1,
        dst_port: to.1,
        seq: 0,
        ack: 0,
        flags: flags::ACK,
        window: 65000,
        mss_option: None,
        payload: b"",
    }
}

/// One full CAAI probe round-trip against an ideal Reno server, rendered
/// to wire frames. This is the seed that exercises ladder reconstruction
/// and the RTO round bookkeeping.
fn rendered_session() -> Vec<u8> {
    let mut renderer = CaptureRenderer::new();
    let prober = Prober::new(ProberConfig::fixed_wmax(64));
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    let mut rng = seeded(1);
    renderer
        .render_session(
            [192, 0, 2, 1],
            [198, 51, 100, 9],
            &server,
            &prober,
            &PathConfig::clean(),
            &mut rng,
        )
        .expect("Vec writes are infallible");
    renderer.to_bytes()
}

/// Re-emits a capture's leading records until the byte budget is spent,
/// keeping the truncation on a record boundary so the seed stays valid.
fn cap_capture(src: &[u8], max_len: usize) -> Vec<u8> {
    let mut reader = PcapReader::new(src).expect("renderer output is a valid capture");
    let mut w = PcapWriter::new(Vec::new()).expect("Vec writes are infallible");
    let mut written = 24usize;
    while let Some(Ok(rec)) = reader.next() {
        let record = 16 + rec.data.len();
        if written + record > max_len {
            break;
        }
        w.write_frame(rec.ts, rec.data)
            .expect("Vec writes are infallible");
        written += record;
    }
    w.finish().expect("Vec writes are infallible")
}

// ---------------------------------------------------------------------------
// Diagnostic fixtures: one capture per pcapng skip diagnostic.
// ---------------------------------------------------------------------------

/// A pcapng capture that provokes exactly one skip, plus the skip
/// reason's exact rendered text.
pub struct DiagnosticFixture {
    pub name: &'static str,
    pub bytes: Vec<u8>,
    pub expected_reason: &'static str,
}

/// All six pcapng skip diagnostics, each in a minimal little-endian
/// capture. The expected strings are pinned verbatim: every one must
/// name the enclosing block type so a diagnostic alone identifies the
/// block walker that produced it.
pub fn diagnostic_fixtures() -> Vec<DiagnosticFixture> {
    vec![
        DiagnosticFixture {
            name: "spb-no-timestamp",
            bytes: cat(&[shb_le(), idb_le(1, 6), block_le(BT_SPB, &[0, 0, 0, 0])]),
            expected_reason: "simple packet block (type 0x00000003) carries no timestamp",
        },
        DiagnosticFixture {
            name: "unknown-block-type",
            bytes: cat(&[shb_le(), block_le(0x0BAD, &[1, 2, 3, 4, 5, 6, 7, 8])]),
            expected_reason: "unknown pcapng block type 0x00000BAD skipped",
        },
        DiagnosticFixture {
            name: "epb-body-too-short",
            bytes: cat(&[shb_le(), idb_le(1, 6), block_le(BT_EPB, &[0u8; 16])]),
            expected_reason: "enhanced packet block (type 0x00000006): body too short (16 bytes)",
        },
        DiagnosticFixture {
            name: "epb-cap-len-overrun",
            bytes: cat(&[shb_le(), idb_le(1, 6), block_le(BT_EPB, &epb_body(0, 9999))]),
            expected_reason: "enhanced packet block (type 0x00000006): \
                              cap_len 9999 overruns its block (20 body bytes)",
        },
        DiagnosticFixture {
            name: "epb-undeclared-interface",
            bytes: cat(&[shb_le(), block_le(BT_EPB, &epb_body(7, 0))]),
            expected_reason: "enhanced packet block (type 0x00000006): \
                              references undeclared interface 7",
        },
        DiagnosticFixture {
            name: "epb-non-ethernet-interface",
            bytes: cat(&[shb_le(), idb_le(113, 6), block_le(BT_EPB, &epb_body(0, 0))]),
            expected_reason: "enhanced packet block (type 0x00000006): \
                              packet on non-Ethernet interface (link type 113)",
        },
    ]
}

fn cat(parts: &[Vec<u8>]) -> Vec<u8> {
    parts.concat()
}

/// A canonical 28-byte little-endian section header block.
fn shb_le() -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    out.extend_from_slice(&SHB_MAGIC);
    out.extend_from_slice(&28u32.to_le_bytes());
    out.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // major
    out.extend_from_slice(&0u16.to_le_bytes()); // minor
    out.extend_from_slice(&u64::MAX.to_le_bytes()); // unspecified length
    out.extend_from_slice(&28u32.to_le_bytes());
    out
}

/// A 32-byte little-endian interface description block mirroring the
/// `classic_to_pcapng` layout: `linktype`, generous snaplen, one
/// `if_tsresol` option, `opt_endofopt`.
fn idb_le(linktype: u16, tsresol: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&BT_IDB.to_le_bytes());
    out.extend_from_slice(&32u32.to_le_bytes());
    out.extend_from_slice(&linktype.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(256u32 * 1024).to_le_bytes()); // snaplen
    out.extend_from_slice(&9u16.to_le_bytes()); // OPT_IF_TSRESOL
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&[tsresol, 0, 0, 0]); // value + padding
    out.extend_from_slice(&0u32.to_le_bytes()); // opt_endofopt
    out.extend_from_slice(&32u32.to_le_bytes());
    out
}

/// An arbitrary little-endian block with the body padded to 32 bits.
fn block_le(btype: u32, body: &[u8]) -> Vec<u8> {
    let padded = (body.len() + 3) & !3;
    let total = (12 + padded) as u32;
    let mut out = Vec::with_capacity(total as usize);
    out.extend_from_slice(&btype.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(body);
    out.extend(std::iter::repeat_n(0u8, padded - body.len()));
    out.extend_from_slice(&total.to_le_bytes());
    out
}

/// A minimal 20-byte EPB body: interface id, zero timestamp, `cap_len`,
/// zero `orig_len`, no frame bytes.
fn epb_body(iface: u32, cap_len: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&iface.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // ts_high
    out.extend_from_slice(&0u32.to_le_bytes()); // ts_low
    out.extend_from_slice(&cap_len.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // orig_len
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_core::frame::{ClientFrame, ServerFrame};
    use caai_net::frame::FrameDecoder;
    use caai_stream::{CaptureSource, PcapStream, SourceItem, StallPolicy};
    use std::io::Cursor;

    #[test]
    fn seed_set_covers_both_containers_and_byte_orders() {
        let seeds = build_seeds();
        assert_eq!(seeds.len(), 11);
        let captures = seeds
            .iter()
            .filter(|s| s.name != "trace-json" && !s.name.starts_with("net-"));
        let classic = captures
            .clone()
            .filter(|s| s.bytes[..4] != SHB_MAGIC)
            .count();
        let ng = captures.filter(|s| s.bytes[..4] == SHB_MAGIC).count();
        assert_eq!((classic, ng), (5, 3));
    }

    /// Decodes `bytes` to the last one as frames of one side; how many
    /// frame types occurred.
    fn frame_kinds<F: Wire>(bytes: &[u8]) -> usize {
        let mut decoder = FrameDecoder::new();
        decoder.push(bytes);
        let mut kinds = std::collections::HashSet::new();
        while let Some(frame) = decoder.next::<F>().expect("seed decodes") {
            kinds.insert(std::mem::discriminant(&frame));
        }
        assert_eq!(decoder.pending(), 0, "bytes left over");
        kinds.len()
    }

    #[test]
    fn every_seed_parses_cleanly() {
        for seed in build_seeds() {
            if seed.name == "trace-json" {
                // Not a capture: it must instead round-trip through the
                // trace reader without a single salvage skip.
                let text = String::from_utf8(seed.bytes).expect("trace seed is UTF-8");
                let read = caai_obs::report::read_str(&text);
                assert_eq!(read.skipped, 0, "trace seed skipped lines");
                assert_eq!(read.unmatched_begins, 0, "trace seed left spans open");
                assert!(read.spans.len() >= 6, "trace seed too small to mutate");
                continue;
            }
            if seed.name.starts_with("net-") {
                // A wire dialogue: its own side's decoder takes every
                // byte, and every frame type of that side is present.
                if seed.name == "net-client-half" {
                    let kinds = frame_kinds::<ClientFrame>(&seed.bytes);
                    assert_eq!(kinds, 5, "Hello, Xmit, Ack, Acks, RtoWait");
                } else {
                    let kinds = frame_kinds::<ServerFrame>(&seed.bytes);
                    assert_eq!(kinds, 3, "Welcome, Burst, RtoResult");
                }
                continue;
            }
            let mut src = PcapStream::new(Cursor::new(seed.bytes), StallPolicy::Eof);
            let mut frames = 0usize;
            loop {
                match src.next() {
                    Ok(Some(SourceItem::Frame(_))) => frames += 1,
                    Ok(Some(SourceItem::Skipped { reason, .. })) => {
                        panic!("seed {} skipped a frame: {reason}", seed.name)
                    }
                    Ok(None) => break,
                    Err(e) => panic!("seed {} failed to parse: {}", seed.name, e.reason),
                }
            }
            assert!(frames >= 8, "seed {} holds only {frames} frames", seed.name);
        }
    }

    #[test]
    fn each_diagnostic_fixture_produces_exactly_its_pinned_reason() {
        for fx in diagnostic_fixtures() {
            let mut src = PcapStream::new(Cursor::new(fx.bytes), StallPolicy::Eof);
            let mut skips = Vec::new();
            loop {
                match src.next() {
                    Ok(Some(SourceItem::Skipped { reason, .. })) => skips.push(reason),
                    Ok(Some(SourceItem::Frame(f))) => {
                        panic!("fixture {} yielded a frame at ts {}", fx.name, f.ts)
                    }
                    Ok(None) => break,
                    Err(e) => panic!("fixture {} went fatal: {}", fx.name, e.reason),
                }
            }
            assert_eq!(
                skips,
                vec![fx.expected_reason.to_owned()],
                "fixture {} diagnostics drifted",
                fx.name
            );
        }
    }
}
