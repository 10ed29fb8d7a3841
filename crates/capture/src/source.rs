//! The frame-source contract and the one drain every ingestion path runs.
//!
//! A capture reaches its verdicts the same way whatever its container
//! (classic pcap, pcapng) or its mode (whole file, pipe, `--follow`): a
//! [`CaptureSource`] yields frames and skip reports, and
//! [`drain_segments`] decodes each frame where the source holds it and
//! hands the segment's header to a flow table — whole-capture
//! reassembly ([`crate::flow::reassemble_source`]) or the streaming
//! pipeline's timeout wheel.
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
pub trait CaptureSource {
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

/// Drains `source`, handing `feed` the index, timestamp and header of
/// each frame that decodes as a TCP segment, in capture order; `feed`
/// reports segments it cannot use through [`skip`].
///
/// `obs` hears a [`FrameDecoded`] per segment, a [`PacketSkipped`] per
/// skip and, when damage ends the capture early, one
/// [`CaptureTruncated`]. Fails only when the container header cannot be
/// read (see the module docs).
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
