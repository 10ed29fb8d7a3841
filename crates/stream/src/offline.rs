//! Offline (read-to-the-end) identification of an in-memory capture of
//! either container: the streaming pipeline run to EOF under
//! [`StreamConfig::whole_capture`].

use crate::pcapng::SHB_MAGIC;
use crate::pipeline::{run_obs, StreamConfig};
use crate::source::{PcapStream, StallPolicy};
use caai_capture::{CaptureError, PcapReader, SessionReport, DEFAULT_LADDER};
use caai_core::classify::CaaiClassifier;
use caai_obs::{NullSubscriber, Subscriber};

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

/// [`identify_bytes`] with a structured-event subscriber: it hears what
/// [`run_obs`] emits under the whole-capture rule (no granule ticks), so
/// the same events whichever container the bytes turn out to be. The
/// verdicts are the same whatever the subscriber.
///
/// pcapng (sniffed by its section-header magic) is read by
/// [`PcapStream`] over the buffer, classic pcap by the zero-copy
/// [`PcapReader`]; both feed the one pipeline.
pub fn identify_bytes_obs<S: Subscriber>(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
    obs: &S,
) -> Result<CaptureVerdicts, CaptureError> {
    let config = StreamConfig {
        ladder: ladder.unwrap_or(&DEFAULT_LADDER).to_vec(),
        ..StreamConfig::whole_capture()
    };
    let mut sessions = Vec::new();
    let on_verdict = |s: &SessionReport| sessions.push(s.clone());
    let stats = if buf.starts_with(&SHB_MAGIC) {
        let mut source = PcapStream::new(std::io::Cursor::new(buf), StallPolicy::Eof);
        run_obs(&mut source, classifier, &config, on_verdict, obs)
    } else {
        run_obs(
            &mut PcapReader::new(buf)?,
            classifier,
            &config,
            on_verdict,
            obs,
        )
    }?;
    Ok(CaptureVerdicts {
        sessions,
        skipped: stats
            .skipped
            .into_iter()
            .map(|(at, reason)| (at as usize, reason))
            .collect(),
        truncated: stats.truncated,
        packets: stats.packets as usize,
    })
}
