//! The decode-ahead drain against the one-thread loop it replaced.
//!
//! `drain_segments` reads and decodes on a thread of its own and replays
//! batches on the caller. Its outputs and its whole event sequence must
//! be the ones a single loop produces, by construction; this checks it on
//! captures longer than three batches that hold every kind of skip (a
//! non-IPv4 frame, a bad TCP data offset, a segment its flow cannot
//! place, a skipped pcapng block), some on either side of a batch
//! boundary, and end in a torn record. Each capture is read whole from
//! memory, through `PcapStream` over a buffer, and through `PcapStream`
//! over a reader that returns odd-sized pieces, so hand-overs fall at
//! many different frames.

use caai_capture::flow::{FlowBuilder, SegmentHeader};
use caai_capture::packet::{decode, encode, flags, FrameSpec};
use caai_capture::source::{drain_segments, skip, Drained, Skips};
use caai_capture::{CaptureError, CaptureSource, PcapReader, PcapWriter, SourceItem};
use caai_obs::{CaptureTruncated, Event, FrameDecoded, Subscriber};
use caai_stream::{classic_to_pcapng, PcapStream, StallPolicy};
use std::collections::HashMap;
use std::io::Read;
use std::sync::Mutex;

/// `drain_segments` as one loop on the calling thread, as it was before
/// it decoded ahead: the reference the drain is held to.
fn drain_one_thread<C, S>(
    source: &mut C,
    obs: &S,
    mut feed: impl FnMut(u64, f64, &SegmentHeader, &mut Skips),
) -> Result<Drained, CaptureError>
where
    C: CaptureSource + ?Sized,
    S: Subscriber,
{
    source.read_header()?;
    let mut drained = Drained {
        packets: 0,
        skipped: Vec::new(),
        truncated: None,
    };
    loop {
        let frame = match source.next_lent() {
            Ok(Some(SourceItem::Frame(frame))) => frame,
            Ok(Some(SourceItem::Skipped { index, reason })) => {
                skip(obs, &mut drained.skipped, index, reason);
                continue;
            }
            Ok(None) => break,
            Err(e) => {
                obs.on_event(&Event::CaptureTruncated(CaptureTruncated {
                    packets: drained.packets,
                    reason: &e.reason,
                }));
                drained.truncated = Some(e);
                break;
            }
        };
        match decode(frame.data) {
            Ok(seg) => {
                drained.packets += 1;
                obs.on_event(&Event::FrameDecoded(FrameDecoded {
                    bytes: frame.data.len() as u64,
                }));
                let header = SegmentHeader::from(&seg);
                feed(frame.index, frame.ts, &header, &mut drained.skipped);
            }
            Err(e) => skip(obs, &mut drained.skipped, frame.index, e.to_string()),
        }
    }
    Ok(drained)
}

/// Every capture event and every `feed` call, in the order they came.
#[derive(Default)]
struct Recorder(Mutex<Vec<String>>);

impl Recorder {
    fn push(&self, line: String) {
        self.0.lock().unwrap().push(line);
    }
}

impl Subscriber for Recorder {
    fn on_event(&self, event: &Event<'_>) {
        self.push(match event {
            Event::FrameDecoded(e) => format!("frame {}", e.bytes),
            Event::PacketSkipped(e) => format!("skip {} {}", e.index, e.reason),
            Event::CaptureTruncated(e) => format!("truncated {} {}", e.packets, e.reason),
            other => format!("{other:?}"),
        });
    }
}

/// What one drain amounted to, and everything it said on the way.
struct Run {
    packets: u64,
    skipped: Skips,
    truncated: Option<CaptureError>,
    events: Vec<String>,
}

type Drain = fn(
    &mut dyn CaptureSource,
    &Recorder,
    &mut dyn FnMut(u64, f64, &SegmentHeader, &mut Skips),
) -> Result<Drained, CaptureError>;

/// Drains `source` with `drain`, folding each segment into one flow per
/// host pair: a later connection between the same two hosts matches
/// neither endpoint of the first, and `feed` reports it.
fn record(drain: Drain, source: &mut dyn CaptureSource) -> Run {
    let obs = Recorder::default();
    let mut flows: HashMap<([u8; 4], [u8; 4]), FlowBuilder> = HashMap::new();
    let mut feed = |index: u64, ts: f64, seg: &SegmentHeader, skipped: &mut Skips| {
        obs.push(format!("feed {index} {} {seg:?}", ts.to_bits()));
        let hosts = (seg.src_ip.min(seg.dst_ip), seg.src_ip.max(seg.dst_ip));
        let flow = flows
            .entry(hosts)
            .or_insert_with(|| FlowBuilder::new(seg, ts));
        if let Some(reason) = flow.feed(ts, seg) {
            skip(&obs, skipped, index, reason);
        }
    };
    let drained = drain(source, &obs, &mut feed).expect("the header is intact");
    Run {
        packets: drained.packets,
        skipped: drained.skipped,
        truncated: drained.truncated,
        events: obs.0.into_inner().unwrap(),
    }
}

fn decode_ahead(
    source: &mut dyn CaptureSource,
    obs: &Recorder,
    feed: &mut dyn FnMut(u64, f64, &SegmentHeader, &mut Skips),
) -> Result<Drained, CaptureError> {
    drain_segments(source, obs, feed)
}

fn one_thread(
    source: &mut dyn CaptureSource,
    obs: &Recorder,
    feed: &mut dyn FnMut(u64, f64, &SegmentHeader, &mut Skips),
) -> Result<Drained, CaptureError> {
    drain_one_thread(source, obs, feed)
}

/// Frames in one hand-over batch of the drain, skips included.
const BATCH: usize = 4096;

/// A data segment from a server's `server_port` to one client.
fn segment(seq: u32, server_port: u16) -> Vec<u8> {
    encode(&FrameSpec {
        src_ip: [198, 51, 100, 7],
        dst_ip: [10, 0, 0, 1],
        src_port: server_port,
        dst_port: 40_000,
        seq,
        ack: 1,
        flags: flags::ACK,
        window: 65_535,
        mss_option: None,
        payload: &[0; 200],
    })
}

/// A classic capture of `BATCH * 3 + 500` records. Around the first two
/// batch boundaries (and at a few other places) the records are skips of
/// each kind in turn; the last record is torn.
fn classic_capture() -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory writer");
    let mut seq = 1u32;
    for i in 0..BATCH * 3 + 500 {
        let near_boundary = [BATCH, 2 * BATCH]
            .iter()
            .any(|&b| (b - 4..b + 4).contains(&i));
        let kind = if near_boundary || i % 997 == 3 {
            i % 3
        } else {
            3
        };
        let mut frame = segment(seq, 80);
        match kind {
            // Not IPv4: an IPv6 ethertype.
            0 => frame[12..14].copy_from_slice(&[0x86, 0xDD]),
            // A TCP data offset of 2 words, shorter than the header.
            1 => frame[14 + 20 + 12] = 0x20,
            // A second connection between the same hosts.
            2 => frame = segment(seq, 8080),
            _ => seq = seq.wrapping_add(200),
        }
        w.write_frame(1_000.0 + i as f64 * 1e-3, &frame)
            .expect("in-memory write");
    }
    let mut bytes = w.finish().expect("in-memory flush");
    bytes.truncate(bytes.len() - 50);
    bytes
}

/// The classic capture as pcapng, an unknown block (skipped) and a name
/// resolution block (read past silently) after the EPBs at and around
/// each batch boundary, and its last block torn.
fn pcapng_capture(classic: &[u8]) -> Vec<u8> {
    let ng = classic_to_pcapng(classic, false, 6);
    let u32_at = |at: usize| u32::from_le_bytes(ng[at..at + 4].try_into().unwrap()) as usize;
    let block = |btype: u32| {
        let mut b = btype.to_le_bytes().to_vec();
        b.extend_from_slice(&12u32.to_le_bytes());
        b.extend_from_slice(&12u32.to_le_bytes());
        b
    };
    let mut out = ng[..60].to_vec(); // section header and interface block
    let mut at = 60;
    let mut epb = 0;
    while at < ng.len() {
        let total = u32_at(at + 4);
        out.extend_from_slice(&ng[at..at + total]);
        at += total;
        epb += 1;
        if [BATCH - 2, BATCH, 2 * BATCH - 1, 2 * BATCH + 1, 3 * BATCH].contains(&epb) {
            out.extend_from_slice(&block(0x0BAD_B10C));
            out.extend_from_slice(&block(0x0000_0004));
        }
    }
    out.truncate(out.len() - 50);
    out
}

/// A reader that returns at most `piece` bytes a call.
struct Pieces<'a> {
    bytes: &'a [u8],
    piece: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.piece).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Runs `make`'s source through both drains and compares everything.
fn same_as_one_thread<C: CaptureSource>(what: &str, make: impl Fn() -> C) -> Run {
    let ahead = record(decode_ahead, &mut make());
    let reference = record(one_thread, &mut make());
    assert_eq!(ahead.packets, reference.packets, "{what}: packets");
    assert_eq!(ahead.skipped, reference.skipped, "{what}: skips");
    assert_eq!(ahead.truncated, reference.truncated, "{what}: truncation");
    assert_eq!(ahead.events.len(), reference.events.len(), "{what}: events");
    for (i, (a, r)) in ahead.events.iter().zip(&reference.events).enumerate() {
        assert_eq!(a, r, "{what}: event {i}");
    }
    ahead
}

/// The capture holds what it is meant to: more than three batches, every
/// kind of skip, and a torn end.
fn check_shape(run: &Run, source_skips: bool) {
    assert!(run.packets > 3 * BATCH as u64, "{} packets", run.packets);
    let has = |needle: &str| run.skipped.iter().any(|(_, r)| r.contains(needle));
    assert!(has("not IPv4"));
    assert!(has("bad TCP header"));
    assert!(has("matches neither flow endpoint"));
    assert_eq!(has("unknown pcapng block type"), source_skips);
    assert!(run.truncated.is_some(), "the last record is torn");
}

#[test]
fn classic_capture_drains_as_one_loop_does() {
    let bytes = classic_capture();
    let run = same_as_one_thread("in memory", || {
        PcapReader::new(&bytes).expect("the header is intact")
    });
    check_shape(&run, false);
    same_as_one_thread("stream", || {
        PcapStream::new(std::io::Cursor::new(&bytes), StallPolicy::Eof)
    });
    for piece in [977, 65_537] {
        same_as_one_thread(&format!("pieces of {piece}"), || {
            let reader = Pieces {
                bytes: &bytes,
                piece,
            };
            PcapStream::new(reader, StallPolicy::Eof)
        });
    }
}

#[test]
fn pcapng_capture_drains_as_one_loop_does() {
    let bytes = pcapng_capture(&classic_capture());
    let run = same_as_one_thread("stream", || {
        PcapStream::new(std::io::Cursor::new(&bytes), StallPolicy::Eof)
    });
    check_shape(&run, true);
    for piece in [977, 65_537] {
        same_as_one_thread(&format!("pieces of {piece}"), || {
            let reader = Pieces {
                bytes: &bytes,
                piece,
            };
            PcapStream::new(reader, StallPolicy::Eof)
        });
    }
}
