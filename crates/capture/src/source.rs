//! The frame-source contract and the one drain every ingestion path runs.
//!
//! A capture reaches its verdicts the same way whatever its container
//! (classic pcap, pcapng) or its mode (whole file, pipe, `--follow`): a
//! [`CaptureSource`] yields frames and skip reports, and
//! [`drain_segments`] decodes each frame where the source holds it and
//! hands the segment's header to a flow table: the streaming pipeline's
//! timeout wheel, which every product path runs (offline identification
//! is that pipeline run to the end of the capture), or the whole-capture
//! reference ([`crate::flow::reassemble_source`]) it is checked against.
//!
//! # Decode ahead
//!
//! The drain runs on two threads. A scoped decode thread reads the
//! source, decodes each frame and fills batches of small `Copy` records
//! (index, timestamp, header, frame length), the skips beside them by
//! position; the calling thread replays each batch in order, emitting
//! every event and calling `feed` exactly as one loop would. So the
//! flow table, every subscriber call and everything `feed` reaches stay
//! on the caller, and the outputs and the event sequence are the
//! one-thread ones by construction: still one [`FrameDecoded`] per frame,
//! never one per batch, which would let a subscriber count up to a
//! batch of frames that `feed` has not seen yet. (The streaming pipeline
//! coalesces each run of them on the caller, handing the run on before
//! its next other event, so its counts at every other event are the
//! per-frame ones too.)
//!
//! ```text
//!   decode thread                              calling thread
//!   next_lent ─► decode ─► SegmentHeader ─►│ ─► FrameDecoded / PacketSkipped
//!   (skips noted by position in the batch) │    feed(index, ts, header)
//!                 batch full, or the next  │    ... CaptureTruncated
//!                 item is not buffered ───►│ (bounded channel; 4 batches
//!                                          │  recycled between the threads)
//! ```
//!
//! **A batch never waits on a read.** Before any call that could block on
//! more bytes ([`CaptureSource::next_is_buffered`] is `false`) the decode
//! thread hands over what it holds, so a capture that is still growing
//! reaches its flow table, and its verdicts, as soon as its bytes arrive.
//!
//! The error model is written once, here:
//!
//! * per-packet problems are *skipped and reported* — a source's
//!   [`SourceItem::Skipped`], a frame that does not decode as a TCP
//!   segment, a segment its flow cannot place;
//! * a [`CaptureError`] while the container header is still unread
//!   ([`CaptureSource::read_header`]) is the run's `Err`: nothing was
//!   ever a capture;
//! * any later [`CaptureError`] (a torn record, a corrupt length, a
//!   failed read) ends the capture early as [`Drained::truncated`], and
//!   everything before it is kept — the first record included.

use crate::flow::SegmentHeader;
use crate::packet::decode;
use crate::pcap::PcapReader;
use caai_obs::{CaptureTruncated, Event, FrameDecoded, PacketSkipped, Subscriber};
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// A fatal framing or I/O problem: nothing after `offset` can be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureError {
    /// Byte offset into the capture where framing broke.
    pub offset: u64,
    /// What went wrong.
    pub reason: String,
}

impl CaptureError {
    /// An error at `offset`.
    pub fn new(offset: u64, reason: impl Into<String>) -> CaptureError {
        CaptureError {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CaptureError { offset, reason } = self;
        write!(f, "pcap framing error at byte {offset}: {reason}")
    }
}

impl std::error::Error for CaptureError {}

/// One captured frame. `D` is how the frame's bytes are held: owned
/// (`Box<[u8]>`, the default) or lent from the source's buffer (`&[u8]`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFrame<D = Box<[u8]>> {
    /// 0-based packet index within the capture (counts packet records of
    /// every format, including ones later skipped at decode).
    pub index: u64,
    /// Capture timestamp, seconds.
    pub ts: f64,
    /// The link-layer frame bytes.
    pub data: D,
}

/// One item produced by a [`CaptureSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceItem<D = Box<[u8]>> {
    /// A captured frame.
    Frame(StreamFrame<D>),
    /// A record the source consumed but could not turn into a frame
    /// (unknown pcapng block, packet on a non-Ethernet interface, ...).
    Skipped {
        /// Packet index the skip is attributed to.
        index: u64,
        /// Why it was skipped.
        reason: String,
    },
}

impl<D> SourceItem<D> {
    /// The same item with its frame bytes held another way.
    pub fn map_data<E>(self, f: impl FnOnce(D) -> E) -> SourceItem<E> {
        match self {
            SourceItem::Frame(StreamFrame { index, ts, data }) => SourceItem::Frame(StreamFrame {
                index,
                ts,
                data: f(data),
            }),
            SourceItem::Skipped { index, reason } => SourceItem::Skipped { index, reason },
        }
    }
}

/// A reader of one capture, one frame at a time.
///
/// `next_lent` and `next` return `Ok(None)` at a clean end of capture; an
/// `Err` is terminal (framing is broken from there on). Either reads the
/// container header first if [`read_header`](CaptureSource::read_header)
/// has not; a source may block while more bytes can still arrive.
///
/// A source is `Send`: [`drain_segments`] reads it on a thread of its own.
pub trait CaptureSource: Send {
    /// Reads and checks the container header, if that has not happened
    /// yet. An error here means the input never was a capture this crate
    /// can read; every later error is damage to a capture that was.
    fn read_header(&mut self) -> Result<(), CaptureError>;

    /// The next frame or skip report, the frame's bytes lent from the
    /// source's own buffer — valid until the next call, never copied.
    fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, CaptureError>;

    /// The next frame or skip report, owning its bytes.
    fn next(&mut self) -> Result<Option<SourceItem>, CaptureError> {
        Ok(self.next_lent()?.map(|item| item.map_data(Box::from)))
    }

    /// Whether the next [`next_lent`](CaptureSource::next_lent) returns
    /// without reading: the next item (or the end, or the error) is
    /// already in hand. `false` is always safe; it only means that
    /// [`drain_segments`] hands over what it has decoded before asking.
    fn next_is_buffered(&self) -> bool {
        false
    }
}

/// The in-memory classic reader as a source: each frame is lent straight
/// from the input buffer. Its header check adds the one thing
/// [`PcapReader::new`] leaves to the caller: the link type must be
/// Ethernet, the only one [`decode`] reads.
impl CaptureSource for PcapReader<'_> {
    #[inline]
    fn read_header(&mut self) -> Result<(), CaptureError> {
        self.header().require_ethernet()
    }

    #[inline]
    fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, CaptureError> {
        self.read_header()?;
        let record = PcapReader::next(self).transpose()?;
        Ok(record.map(|record| {
            SourceItem::Frame(StreamFrame {
                index: record.index as u64,
                ts: record.ts,
                data: record.data,
            })
        }))
    }

    /// The whole capture is in memory: nothing is ever read.
    fn next_is_buffered(&self) -> bool {
        true
    }
}

/// Packets skipped so far, `(index, reason)` in index order.
pub type Skips = Vec<(u64, String)>;

/// What a drained source amounted to.
#[derive(Debug)]
pub struct Drained {
    /// Frames decoded into TCP segments.
    pub packets: u64,
    /// Every skip: the source's, the decoder's and the feed's.
    pub skipped: Skips,
    /// The framing/I/O error that ended the capture early, if one did.
    /// Everything before it was still fed.
    pub truncated: Option<CaptureError>,
}

/// Reports one skipped packet as a [`PacketSkipped`] event and records it.
pub fn skip<S: Subscriber>(obs: &S, skipped: &mut Skips, index: u64, reason: String) {
    obs.on_event(&Event::PacketSkipped(PacketSkipped {
        index,
        reason: &reason,
    }));
    skipped.push((index, reason));
}

/// Frames in one hand-over batch, skips included.
const BATCH: usize = 4096;

/// Batches recycled between the decode thread and the caller.
const POOL: usize = 4;

/// A frame that decoded as a TCP segment, as the decode thread hands it
/// over: no bytes, so a batch is a flat run of these.
#[derive(Clone, Copy)]
struct Decoded {
    index: u64,
    ts: f64,
    header: SegmentHeader,
    /// The frame's captured length, for [`FrameDecoded`].
    bytes: u64,
}

/// What the decode thread hands over at once.
struct Batch {
    /// Decoded frames in capture order.
    frames: Vec<Decoded>,
    /// `(position, index, reason)`: each skip comes before
    /// `frames[position]`, or after the last frame at `frames.len()`.
    skips: Vec<(usize, u64, String)>,
    /// Set on the last batch: `Ok` at a clean end, else the damage that
    /// ended the capture.
    end: Option<Result<(), CaptureError>>,
}

impl Batch {
    fn len(&self) -> usize {
        self.frames.len() + self.skips.len()
    }
}

/// Drains `source`, handing `feed` the index, timestamp and header of
/// each frame that decodes as a TCP segment, in capture order; `feed`
/// reports segments it cannot use through [`skip`].
///
/// `obs` hears a [`FrameDecoded`] of one frame (`frames: 1`) per
/// segment, just before `feed` gets it, a [`PacketSkipped`] per skip
/// and, when damage ends the capture early, one [`CaptureTruncated`].
/// The drain does not coalesce frames: a caller that does, as the
/// streaming pipeline does, wraps `obs` and hands each run on before
/// any other event, its own included. Fails only when the container
/// header cannot be read (see the module docs).
///
/// The source is read and decoded on a scoped thread of its own (see
/// [Decode ahead](self#decode-ahead)); `feed` and `obs` are only ever
/// called from the calling thread, in the order one loop would call them.
pub fn drain_segments<C, S>(
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
    std::thread::scope(|scope| {
        // The caller's ends live in this closure: should `feed` or `obs`
        // panic, they drop as it unwinds, the decode thread stops at its
        // next hand-over, and the scope can join it and go on unwinding.
        let (empty_tx, empty_rx) = sync_channel(POOL);
        let (full_tx, full_rx) = sync_channel(POOL);
        for _ in 0..POOL {
            let batch = Batch {
                frames: Vec::with_capacity(BATCH),
                skips: Vec::new(),
                end: None,
            };
            empty_tx.send(batch).expect("the pool fits its channel");
        }
        scope.spawn(move || decode_ahead(source, &empty_rx, &full_tx));
        // A closed channel means the decode thread panicked; the scope
        // raises that panic as it returns.
        while let Ok(mut batch) = full_rx.recv() {
            let mut skips = batch.skips.drain(..).peekable();
            for (at, frame) in batch.frames.iter().enumerate() {
                while let Some((_, index, reason)) = skips.next_if(|s| s.0 == at) {
                    skip(obs, &mut drained.skipped, index, reason);
                }
                drained.packets += 1;
                obs.on_event(&Event::FrameDecoded(FrameDecoded {
                    frames: 1,
                    bytes: frame.bytes,
                }));
                feed(frame.index, frame.ts, &frame.header, &mut drained.skipped);
            }
            for (_, index, reason) in skips {
                skip(obs, &mut drained.skipped, index, reason);
            }
            batch.frames.clear();
            match batch.end.take() {
                None => {
                    // The decode thread may have gone: then nothing needs it.
                    let _ = empty_tx.send(batch);
                }
                Some(Ok(())) => break,
                Some(Err(e)) => {
                    obs.on_event(&Event::CaptureTruncated(CaptureTruncated {
                        packets: drained.packets,
                        reason: &e.reason,
                    }));
                    drained.truncated = Some(e);
                    break;
                }
            }
        }
    });
    Ok(drained)
}

/// The decode thread: fills batches from the pool with what `source`
/// yields and hands each over when it is full or before a read that
/// could block. Returns after the batch that ends the capture, or when
/// the caller has gone.
fn decode_ahead<C>(source: &mut C, empty: &Receiver<Batch>, full: &SyncSender<Batch>)
where
    C: CaptureSource + ?Sized,
{
    let Ok(mut batch) = empty.recv() else {
        return;
    };
    loop {
        if batch.len() > 0 && (batch.len() >= BATCH || !source.next_is_buffered()) {
            if full.send(batch).is_err() {
                return;
            }
            let Ok(next) = empty.recv() else {
                return;
            };
            batch = next;
        }
        let at = batch.frames.len();
        match source.next_lent() {
            Ok(Some(SourceItem::Frame(frame))) => match decode(frame.data) {
                Ok(seg) => batch.frames.push(Decoded {
                    index: frame.index,
                    ts: frame.ts,
                    header: SegmentHeader::from(&seg),
                    bytes: frame.data.len() as u64,
                }),
                Err(e) => batch.skips.push((at, frame.index, e.to_string())),
            },
            Ok(Some(SourceItem::Skipped { index, reason })) => {
                batch.skips.push((at, index, reason));
            }
            Ok(None) => batch.end = Some(Ok(())),
            Err(e) => batch.end = Some(Err(e)),
        }
        if batch.end.is_some() {
            let _ = full.send(batch);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, flags, FrameSpec};
    use caai_obs::NullSubscriber;
    use std::sync::mpsc::{channel, Receiver};
    use std::time::{Duration, Instant};

    /// A live source in miniature: the frames before `gate` are in hand;
    /// the one at `gate` arrives only once `feed` has seen every frame
    /// before it (one message on `fed` each), as a capture's next bytes
    /// may wait on the verdicts of what it already holds. Gives up after
    /// 30 s, as damage.
    struct Gated {
        frames: Vec<Vec<u8>>,
        next: usize,
        gate: usize,
        fed: Receiver<()>,
    }

    impl CaptureSource for Gated {
        fn read_header(&mut self) -> Result<(), CaptureError> {
            Ok(())
        }

        fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, CaptureError> {
            if self.next == self.gate {
                let give_up = Instant::now() + Duration::from_secs(30);
                for _ in 0..self.gate {
                    let left = give_up.saturating_duration_since(Instant::now());
                    if self.fed.recv_timeout(left).is_err() {
                        return Err(CaptureError::new(
                            0,
                            "the frames in hand never reached feed",
                        ));
                    }
                }
            }
            let Some(data) = self.frames.get(self.next) else {
                return Ok(None);
            };
            self.next += 1;
            Ok(Some(SourceItem::Frame(StreamFrame {
                index: self.next as u64 - 1,
                ts: self.next as f64,
                data,
            })))
        }

        fn next_is_buffered(&self) -> bool {
            self.next != self.gate
        }
    }

    /// The decode thread hands over what it holds before a read that
    /// could block: a full batch and a partial one reach `feed` while
    /// the source waits on them, and the capture then drains whole.
    #[test]
    fn frames_in_hand_reach_feed_before_a_read_that_waits() {
        let frame = encode(&FrameSpec {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: 40_000,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: flags::ACK,
            window: 65_535,
            mss_option: None,
            payload: &[0; 100],
        });
        let gate = BATCH + 10;
        let (tx, fed) = channel();
        let mut source = Gated {
            frames: vec![frame; gate + 5],
            next: 0,
            gate,
            fed,
        };
        let drained = drain_segments(&mut source, &NullSubscriber, |_, _, _, _| {
            tx.send(()).expect("the source outlives the drain");
        })
        .expect("no header to read");
        assert_eq!(drained.truncated, None);
        assert_eq!(drained.packets, gate as u64 + 5);
        assert!(drained.skipped.is_empty());
    }

    /// A panic in `feed` reaches the caller, as in one loop, rather than
    /// leaving the decode thread waiting for a batch that never returns
    /// (which would hang the drain's scope). Bails out after 30 s.
    #[test]
    fn a_panic_in_feed_reaches_the_caller() {
        let (done, finished) = channel();
        std::thread::spawn(move || {
            let frame = encode(&FrameSpec {
                src_ip: [10, 0, 0, 1],
                dst_ip: [10, 0, 0, 2],
                src_port: 40_000,
                dst_port: 80,
                seq: 1,
                ack: 1,
                flags: flags::ACK,
                window: 65_535,
                mss_option: None,
                payload: &[],
            });
            let (_tx, fed) = channel();
            let mut source = Gated {
                frames: vec![frame; BATCH * (POOL + 2)],
                next: 0,
                gate: usize::MAX,
                fed,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain_segments(&mut source, &NullSubscriber, |_, _, _, _| {
                    panic!("feed fails");
                })
            }));
            done.send(outcome.is_err()).expect("the test waits");
        });
        let panicked = finished.recv_timeout(Duration::from_secs(30));
        assert_eq!(panicked, Ok(true), "the drain hung or swallowed the panic");
    }
}
