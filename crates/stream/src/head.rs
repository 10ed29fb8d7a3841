//! The frame-reading head of both ingestion paths: source items in,
//! decoded segment headers out, with skip-and-report for everything that
//! is not a TCP segment and the "died before the first item" versus
//! "damaged mid-capture" distinction made once.

use crate::source::{CaptureSource, SourceError, SourceItem};
use caai_capture::decode;
use caai_capture::flow::SegmentHeader;
use caai_obs::{Event, FrameDecoded, PacketSkipped, Subscriber};

/// Packets skipped so far, `(index, reason)` in index order.
pub(crate) type Skips = Vec<(u64, String)>;

/// What a drained source amounted to.
pub(crate) struct Drained {
    /// Frames decoded into TCP segments.
    pub packets: u64,
    /// Every skip: the source's, the decoder's and the feed's.
    pub skipped: Skips,
    /// The framing/I/O error that ended the capture early, if one did.
    /// Everything before it was still fed.
    pub truncated: Option<SourceError>,
}

/// Reports one skipped packet and records it.
pub(crate) fn skip<S: Subscriber>(obs: &S, skipped: &mut Skips, index: u64, reason: String) {
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
/// Fails only when the source dies before producing a single item — the
/// container header itself was unreadable.
pub(crate) fn drain_segments<S: Subscriber>(
    source: &mut dyn CaptureSource,
    obs: &S,
    mut feed: impl FnMut(u64, f64, &SegmentHeader, &mut Skips),
) -> Result<Drained, SourceError> {
    let mut drained = Drained {
        packets: 0,
        skipped: Vec::new(),
        truncated: None,
    };
    let mut saw_item = false;
    loop {
        let frame = match source.next_lent() {
            Ok(Some(SourceItem::Frame(frame))) => frame,
            Ok(Some(SourceItem::Skipped { index, reason })) => {
                saw_item = true;
                skip(obs, &mut drained.skipped, index, reason);
                continue;
            }
            Ok(None) => break,
            Err(e) if saw_item => {
                drained.truncated = Some(e);
                break;
            }
            Err(e) => return Err(e),
        };
        saw_item = true;
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
