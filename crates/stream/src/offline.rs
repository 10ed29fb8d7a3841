//! Offline (read-to-the-end) identification over any [`CaptureSource`] —
//! the bridge that lets pcapng captures and pipes flow into the exact same
//! reassembly → reconstruction → classification path as classic pcap.

use crate::head::{drain_segments, skip};
use crate::pcapng::SHB_MAGIC;
use crate::source::{CaptureSource, PcapStream, SourceError, StallPolicy};
use caai_capture::flow::{FlowBuilder, FlowKey, Reassembly};
use caai_capture::identify::CaptureVerdicts;
use caai_capture::{identify_capture, identify_reassembly_obs, PcapError};
use caai_core::classify::CaaiClassifier;
use caai_obs::{
    CaptureTruncated, Event, EvictionCause, FlowEvicted, FlowOpened, NullSubscriber, Subscriber,
};
use std::collections::HashMap;

/// Drains a source and reassembles every flow, mirroring
/// [`caai_capture::reassemble`] exactly: flows in first-appearance order,
/// decode failures skipped per-packet, mid-stream damage recorded as
/// `truncated` with everything before it kept.
///
/// Fails only when the source dies before producing a single item — i.e.
/// the container header itself was unreadable.
///
/// `obs` hears the same events as [`caai_capture::reassemble_obs`] emits,
/// so offline pcapng ingestion and offline pcap ingestion count
/// identically.
pub fn reassemble_source<S: Subscriber>(
    source: &mut dyn CaptureSource,
    obs: &S,
) -> Result<Reassembly, SourceError> {
    let mut table: HashMap<FlowKey, usize> = HashMap::new();
    let mut order: Vec<FlowBuilder> = Vec::new();
    let drained = drain_segments(source, obs, |index, ts, seg, skipped| {
        let idx = *table.entry(FlowKey::of(seg)).or_insert_with(|| {
            obs.on_event(&Event::FlowOpened(FlowOpened {}));
            order.push(FlowBuilder::new(seg, ts));
            order.len() - 1
        });
        if let Some(reason) = order[idx].feed(ts, seg) {
            skip(obs, skipped, index, reason);
        }
    })?;
    if let Some(e) = &drained.truncated {
        obs.on_event(&Event::CaptureTruncated(CaptureTruncated {
            packets: drained.packets,
            reason: &e.reason,
        }));
    }

    let flows: Vec<_> = order
        .into_iter()
        .map(|b| {
            obs.on_event(&Event::FlowEvicted(FlowEvicted {
                cause: EvictionCause::Drain,
                events: b.events() as u64,
            }));
            b.into_flow()
        })
        .collect();
    Ok(Reassembly {
        flows,
        skipped: drained
            .skipped
            .into_iter()
            .map(|(index, reason)| (index as usize, reason))
            .collect(),
        truncated: drained.truncated.map(|e| PcapError {
            offset: e.offset as usize,
            reason: e.reason,
        }),
        packets: drained.packets as usize,
    })
}

/// Identifies every probe session in an in-memory capture of *either*
/// container format: pcapng (sniffed by its section-header magic) goes
/// through the streaming reader, classic pcap through the zero-copy
/// offline reader. Verdicts are identical for the same frames.
pub fn identify_bytes(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
) -> Result<CaptureVerdicts, PcapError> {
    identify_bytes_obs(buf, classifier, ladder, &NullSubscriber)
}

/// [`identify_bytes`] with a structured-event subscriber: the reassembly
/// events plus one `SessionEmitted` per verdict, whichever container the
/// bytes turn out to be.
pub fn identify_bytes_obs<S: Subscriber>(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
    obs: &S,
) -> Result<CaptureVerdicts, PcapError> {
    if buf.len() >= 4 && buf[..4] == SHB_MAGIC {
        let mut source = PcapStream::new(std::io::Cursor::new(buf), StallPolicy::Eof);
        let reassembly = reassemble_source(&mut source, obs).map_err(|e| PcapError {
            offset: e.offset as usize,
            reason: e.reason,
        })?;
        let ladder = ladder.unwrap_or(&caai_capture::DEFAULT_LADDER);
        let sessions = identify_reassembly_obs(&reassembly, classifier, ladder, obs);
        Ok(CaptureVerdicts {
            sessions,
            skipped: reassembly.skipped,
            truncated: reassembly.truncated,
            packets: reassembly.packets,
        })
    } else {
        identify_capture(buf, classifier, ladder, obs)
    }
}
