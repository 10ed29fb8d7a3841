//! Offline (read-to-the-end) identification of an in-memory capture of
//! either container: the one bytes → verdicts entry point.

use crate::pcapng::SHB_MAGIC;
use crate::source::{PcapStream, StallPolicy};
use caai_capture::{
    identify_reassembly_obs, reassemble_obs, reassemble_source, CaptureError, SessionReport,
    DEFAULT_LADDER,
};
use caai_core::classify::CaaiClassifier;
use caai_obs::{span_begin, NullSubscriber, SpanKind, Subscriber};

/// Everything identified from one capture.
#[derive(Debug)]
pub struct CaptureVerdicts {
    /// Per-session verdicts, in capture order.
    pub sessions: Vec<SessionReport>,
    /// Packets skipped during decode, as `(record index, reason)`.
    pub skipped: Vec<(usize, String)>,
    /// Fatal framing error that ended reading early, if any.
    pub truncated: Option<CaptureError>,
    /// Packets decoded.
    pub packets: usize,
}

/// Identifies every probe session in an in-memory capture of *either*
/// container format.
///
/// One verdict per (prober IP, server IP) session; corrupt packets are
/// skipped and reported, and a capture whose framing breaks after its
/// container header is identified up to the break (`truncated` says
/// where). Only an unreadable container header is an error.
pub fn identify_bytes(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
) -> Result<CaptureVerdicts, CaptureError> {
    identify_bytes_obs(buf, classifier, ladder, &NullSubscriber)
}

/// [`identify_bytes`] with a structured-event subscriber: a `Reassembly`
/// span around the drain, the reassembly events, and one
/// `SessionEmitted` per verdict, whichever container the bytes turn out
/// to be. The verdicts are the same whatever the subscriber.
///
/// pcapng (sniffed by its section-header magic) is read by
/// [`PcapStream`] over the buffer, classic pcap by the zero-copy
/// [`caai_capture::PcapReader`]; both then take the one path of
/// [`reassemble_source`] and [`identify_reassembly_obs`].
pub fn identify_bytes_obs<S: Subscriber>(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
    obs: &S,
) -> Result<CaptureVerdicts, CaptureError> {
    let reassembly_span = span_begin(obs, SpanKind::Reassembly, buf.len() as i64, 0);
    let reassembly = if buf.starts_with(&SHB_MAGIC) {
        let mut source = PcapStream::new(std::io::Cursor::new(buf), StallPolicy::Eof);
        reassemble_source(&mut source, obs)
    } else {
        reassemble_obs(buf, obs)
    };
    reassembly_span.end(obs);
    let reassembly = reassembly?;
    let ladder = ladder.unwrap_or(&DEFAULT_LADDER);
    Ok(CaptureVerdicts {
        sessions: identify_reassembly_obs(&reassembly, classifier, ladder, obs),
        skipped: reassembly.skipped,
        truncated: reassembly.truncated,
        packets: reassembly.packets,
    })
}
