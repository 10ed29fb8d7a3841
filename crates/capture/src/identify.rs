//! Capture-level identification: pcap bytes → per-server verdicts.
//!
//! Ties the subsystem together: reassemble flows, reconstruct each probe
//! session's [`GatherOutcome`], and run the standard CAAI step-2/3
//! pipeline (special-case detection, feature extraction, random-forest
//! classification) on the result. Each session yields one
//! [`CensusRecord`] with `truth: None` — on a real capture the ground
//! truth is the unknown being measured — so the records flow through the
//! same `ResultSink` machinery (JSONL streaming, aggregation) as the
//! synthetic census.

use crate::flow::Reassembly;
use crate::pcap::PcapError;
use crate::reconstruct::{self, ProbeSession, DEFAULT_LADDER};
use caai_core::census::{CensusRecord, Verdict};
use caai_core::classify::{CaaiClassifier, Identification};
use caai_core::prober::GatherOutcome;
use caai_obs::{span_begin, Event, NullSubscriber, SessionEmitted, SpanKind, Subscriber};

/// One probe session's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The prober's IPv4 address.
    pub client_ip: [u8; 4],
    /// The server's IPv4 address.
    pub server_ip: [u8; 4],
    /// TCP connections grouped into the session.
    pub flows: usize,
    /// The reconstructed gathering outcome (trace pair or failures).
    pub outcome: GatherOutcome,
    /// The classifier's raw output, when a usable pair existed and no
    /// special case preempted it.
    pub identification: Option<Identification>,
    /// The census-shaped record (`server_id` is the session index within
    /// the capture; `truth` is `None` — captures carry no ground truth).
    pub record: CensusRecord,
}

/// Everything identified from one capture.
#[derive(Debug)]
pub struct CaptureVerdicts {
    /// Per-session verdicts, in capture order.
    pub sessions: Vec<SessionReport>,
    /// Packets skipped during decode, as `(record index, reason)`.
    pub skipped: Vec<(usize, String)>,
    /// Fatal framing error that ended reading early, if any.
    pub truncated: Option<PcapError>,
    /// Packets decoded.
    pub packets: usize,
}

/// The step-2/3 pipeline applied to a reconstructed outcome — exactly
/// `caai_core::census::verdict_for_outcome`, re-exported here so capture
/// verdicts can never diverge from census verdicts for the same traces.
pub fn verdict_for(
    outcome: &GatherOutcome,
    classifier: &CaaiClassifier,
) -> (Verdict, Option<Identification>) {
    caai_core::census::verdict_for_outcome(outcome, classifier)
}

/// Builds per-session verdicts from an already-reassembled capture.
///
/// Sessions with no reconstructable probe connection at all (e.g. a
/// handshake-only flow, a SYN scan, or non-probe chatter between two
/// hosts) yield no verdict — fabricating an `Invalid` record for
/// traffic that was never a probe would corrupt the aggregates.
pub fn identify_reassembly(
    reassembly: &Reassembly,
    classifier: &CaaiClassifier,
    ladder: &[u32],
) -> Vec<SessionReport> {
    identify_reassembly_obs(reassembly, classifier, ladder, &NullSubscriber)
}

/// [`identify_reassembly`] with a structured-event subscriber: one
/// [`SessionEmitted`] per verdict (`lag_secs` is `0` — offline ingestion
/// has no watermark). The reports are identical to the unobserved call.
pub fn identify_reassembly_obs<S: Subscriber>(
    reassembly: &Reassembly,
    classifier: &CaaiClassifier,
    ladder: &[u32],
    obs: &S,
) -> Vec<SessionReport> {
    let sessions: Vec<ProbeSession> = reconstruct::sessions(reassembly, ladder);
    sessions
        .iter()
        .filter(|s| !s.connections.is_empty())
        .enumerate()
        .map(|(i, s)| {
            let replay_span = span_begin(obs, SpanKind::SessionReplay, i as i64, 0);
            let outcome = reconstruct::session_outcome(s, ladder);
            replay_span.end(obs);
            let classify_span = span_begin(obs, SpanKind::Classify, i as i64, 0);
            let (verdict, identification) = verdict_for(&outcome, classifier);
            classify_span.end(obs);
            obs.on_event(&Event::SessionEmitted(SessionEmitted {
                verdict: verdict.kind(),
                wmax: verdict.wmax(),
                flows: s.flows as u64,
                lag_secs: 0.0,
            }));
            SessionReport {
                client_ip: s.client_ip,
                server_ip: s.server_ip,
                flows: s.flows,
                outcome,
                identification,
                record: CensusRecord {
                    server_id: i as u32,
                    truth: None,
                    verdict,
                },
            }
        })
        .collect()
}

/// Identifies every probe session in a raw capture buffer.
///
/// One verdict per (prober IP, server IP) session; corrupt packets are
/// skipped and reported, and a capture whose framing breaks mid-file is
/// identified up to the break (`truncated` says where). Only an
/// unreadable *header* is a hard error.
///
/// `obs` hears the reassembly events of [`crate::flow::reassemble_obs`]
/// plus one [`SessionEmitted`] per verdict; the verdicts are the same
/// whatever the subscriber (pass [`NullSubscriber`] to observe nothing).
pub fn identify_capture<S: Subscriber>(
    buf: &[u8],
    classifier: &CaaiClassifier,
    ladder: Option<&[u32]>,
    obs: &S,
) -> Result<CaptureVerdicts, PcapError> {
    let ladder = ladder.unwrap_or(&DEFAULT_LADDER);
    let reassembly_span = span_begin(obs, SpanKind::Reassembly, buf.len() as i64, 0);
    let reassembly = crate::flow::reassemble_obs(buf, obs);
    reassembly_span.end(obs);
    let reassembly = reassembly?;
    let sessions = identify_reassembly_obs(&reassembly, classifier, ladder, obs);
    Ok(CaptureVerdicts {
        sessions,
        skipped: reassembly.skipped,
        truncated: reassembly.truncated,
        packets: reassembly.packets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, flags, FrameSpec};
    use crate::pcap::PcapWriter;
    use caai_core::training::{build_training_set, TrainingConfig};
    use caai_netem::rng::seeded;
    use caai_netem::ConditionDb;

    fn quick_classifier() -> CaaiClassifier {
        let db = ConditionDb::paper_2011();
        let mut rng = seeded(4);
        let data = build_training_set(&TrainingConfig::quick(1), &db, &mut rng);
        CaaiClassifier::train(&data, &mut rng)
    }

    #[test]
    fn handshake_only_traffic_yields_no_verdict() {
        // A SYN-scan-like exchange: SYN, SYN/ACK, ACK, client FIN — no
        // server data ever flows. This was never a probe; it must not
        // surface as an Invalid census record.
        let mut out = Vec::new();
        let mut w = PcapWriter::new(&mut out).unwrap();
        let base = FrameSpec {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: 5555,
            dst_port: 80,
            seq: 100,
            ack: 0,
            flags: flags::SYN,
            window: 1000,
            mss_option: None,
            payload: b"",
        };
        w.write_frame(0.0, &encode(&base)).unwrap();
        w.write_frame(
            0.1,
            &encode(&FrameSpec {
                src_ip: [10, 0, 0, 2],
                dst_ip: [10, 0, 0, 1],
                src_port: 80,
                dst_port: 5555,
                seq: 900,
                ack: 101,
                flags: flags::SYN | flags::ACK,
                ..base
            }),
        )
        .unwrap();
        w.write_frame(
            0.2,
            &encode(&FrameSpec {
                seq: 101,
                ack: 901,
                flags: flags::ACK,
                ..base
            }),
        )
        .unwrap();
        w.write_frame(
            0.3,
            &encode(&FrameSpec {
                seq: 101,
                ack: 901,
                flags: flags::FIN | flags::ACK,
                ..base
            }),
        )
        .unwrap();
        w.finish().unwrap();

        let verdicts = identify_capture(&out, &quick_classifier(), None, &NullSubscriber).unwrap();
        assert_eq!(verdicts.packets, 4, "the flow itself parses fine");
        assert!(
            verdicts.sessions.is_empty(),
            "non-probe traffic must not fabricate a verdict: {:?}",
            verdicts.sessions
        );
    }
}
