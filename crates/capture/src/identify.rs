//! Capture-level identification: probe sessions → per-server verdicts.
//!
//! Ties the subsystem together: reconstruct each probe session's
//! [`GatherOutcome`] ([`session_report`], shared by whole-capture and
//! streaming ingestion), and run the standard CAAI step-2/3
//! pipeline (special-case detection, feature extraction, random-forest
//! classification) on the result. Each session yields one
//! [`CensusRecord`] with `truth: None` — on a real capture the ground
//! truth is the unknown being measured — so the records flow through the
//! same `ResultSink` machinery (JSONL streaming, aggregation) as the
//! synthetic census.

use crate::flow::Reassembly;
use crate::reconstruct::{self, ProbeSession};
use caai_core::census::{verdict_for_outcome, CensusRecord};
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

/// [`identify_reassembly`] with a structured-event subscriber: what
/// [`session_report`] emits, per session (`lag_secs` is `0` — offline
/// ingestion has no watermark). The reports are identical to the
/// unobserved call.
pub fn identify_reassembly_obs<S: Subscriber>(
    reassembly: &Reassembly,
    classifier: &CaaiClassifier,
    ladder: &[u32],
    obs: &S,
) -> Vec<SessionReport> {
    reconstruct::sessions(reassembly, ladder)
        .iter()
        .filter(|s| !s.connections.is_empty())
        .enumerate()
        .map(|(i, s)| session_report(s, i, 0.0, classifier, ladder, obs))
        .collect()
}

/// One session's verdict: its `w_max` ladder replayed (a
/// [`SpanKind::SessionReplay`] span), the step-2/3 pipeline run on the
/// outcome (a [`SpanKind::Classify`] span) — the census's own
/// `verdict_for_outcome`, so a capture's verdict can never diverge from
/// a census verdict for the same traces — and one [`SessionEmitted`]
/// event. `index` is the session's place in the capture's verdict order
/// (the record's `server_id`); `lag_secs` is how far the watermark had
/// passed the session's last packet when it was emitted.
pub fn session_report<S: Subscriber>(
    session: &ProbeSession,
    index: usize,
    lag_secs: f64,
    classifier: &CaaiClassifier,
    ladder: &[u32],
    obs: &S,
) -> SessionReport {
    let replay_span = span_begin(obs, SpanKind::SessionReplay, index as i64, 0);
    let outcome = reconstruct::session_outcome(session, ladder);
    replay_span.end(obs);
    let classify_span = span_begin(obs, SpanKind::Classify, index as i64, 0);
    let (verdict, identification) = verdict_for_outcome(&outcome, classifier);
    classify_span.end(obs);
    obs.on_event(&Event::SessionEmitted(SessionEmitted {
        verdict: verdict.kind(),
        wmax: verdict.wmax(),
        flows: session.flows as u64,
        lag_secs,
    }));
    SessionReport {
        client_ip: session.client_ip,
        server_ip: session.server_ip,
        flows: session.flows,
        outcome,
        identification,
        record: CensusRecord {
            server_id: index as u32,
            truth: None,
            verdict,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, flags, FrameSpec};
    use crate::pcap::PcapWriter;
    use crate::reconstruct::DEFAULT_LADDER;
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

        let reassembly = crate::flow::reassemble(&out).unwrap();
        assert_eq!(reassembly.packets, 4, "the flow itself parses fine");
        let sessions = identify_reassembly(&reassembly, &quick_classifier(), &DEFAULT_LADDER);
        assert!(
            sessions.is_empty(),
            "non-probe traffic must not fabricate a verdict: {sessions:?}"
        );
    }
}
