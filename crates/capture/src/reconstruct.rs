//! Per-RTT window reconstruction: a flow's bursts → [`WindowTrace`].
//!
//! CAAI's prober measures the server's congestion window per emulated
//! round as "highest sequence received this round minus the previous
//! round's highest" (§IV-D). On the wire those rounds are visible without
//! any side channel: every round is one burst of server data followed by
//! the prober's batch of deferred ACKs. Replay hands a connection to the
//! prober's own [`RungAttempt`], which measures the windows, re-anchors
//! at the first retransmission and judges the trace (§IV-E) exactly as
//! the prober did; the wire tells it
//!
//! * the **environment**: the emulated-RTT schedule is recoverable from
//!   the data→ACK spacing (0.8 s ⇒ environment B, 1.0 s ⇒ environment A
//!   — Fig. 2);
//! * the **threshold**: the ACK-withholding point is a data burst that is
//!   never ACKed — that burst's window exceeded `w_max`, which pins it to
//!   the unique ladder rung in `[w_prev, w_cross)`; a connection that
//!   withheld nothing gets a threshold no window reaches;
//! * each **round**: the run of packets a [`Burst`] covers, which
//!   reassembly folds the round's data into as it arrives;
//! * the **silent rounds** (all data or all ACK progress lost), one for
//!   each schedule-sized gap between two bursts;
//! * the **emulated timeout**: a retransmission arriving after a burst
//!   that received no ACKs, or none after a withholding;
//! * the **close**: a recovery cut short is *recovery too short*
//!   however it ended, and before the crossing a server FIN is *page too
//!   short*; any other end there (the prober's FIN, the capture's end)
//!   is the prober giving up, *never exceeded threshold* — the one
//!   verdict replay gives the attempt itself.
//!
//! A probe session (all connections between one prober and one server)
//! then feeds its connections, in order, to the same
//! [`LadderWalk`] the prober walked, rebuilding the full
//! [`GatherOutcome`] — including the threshold rungs of attempts that
//! never crossed, which leave no rung evidence on the wire.

use crate::flow::{Burst, Endpoint, Flow, Reassembly};
use caai_core::ladder::{floor_rung, AttemptPhase, LadderWalk, Run, RungAttempt};
use caai_core::prober::{GatherOutcome, ProberConfig};
use caai_core::trace::{InvalidReason, WindowTrace};
use caai_netem::schedule::{RTT_LONG, RTT_SHORT};
use caai_netem::EnvironmentId;
use std::collections::HashMap;
use std::sync::LazyLock;

pub use caai_core::ladder::DEFAULT_LADDER;

/// Ceiling on schedule-inferred silent rounds inserted between two
/// bursts, so a wildly mis-timed capture cannot inflate a trace without
/// bound.
const MAX_INSERTED_ZEROS: usize = 64;

/// The prober's configuration: a replayed attempt gives up on a plateau,
/// runs out of pre-timeout rounds and completes its recovery where the
/// prober's did.
static REPLAY: LazyLock<ProberConfig> = LazyLock::new(ProberConfig::default);

/// One reconstructed probing connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionObservation {
    /// Timestamp of the connection's first packet.
    pub start: f64,
    /// The reconstructed trace. For connections that never crossed the
    /// threshold, `wmax_threshold` is 0 here — the wire carries no rung
    /// evidence — and is assigned by the session-level ladder replay.
    pub trace: WindowTrace,
    /// The `w_max` rung pinned by the ACK-withholding point, when the
    /// wire shows one.
    pub inferred_wmax: Option<u32>,
}

/// Infers the environment from the first round's emulated RTT (the gap
/// between a burst's arrival and its deferred ACK batch, Fig. 2).
fn infer_env(bursts: &[Burst]) -> EnvironmentId {
    for b in bursts {
        if let Some(ack_t) = b.first_ack_after {
            let rtt = ack_t - b.t0;
            return if (rtt - RTT_SHORT).abs() < (rtt - RTT_LONG).abs() {
                EnvironmentId::B
            } else {
                EnvironmentId::A
            };
        }
    }
    EnvironmentId::A
}

/// Pins the `w_max` rung from the withholding point: the prober withholds
/// as soon as a measured window *exceeds* the threshold, so the rung is
/// the largest ladder value below the crossing window (slow start at most
/// doubles per round, making that value unique).
fn infer_wmax(w_cross: u32, ladder: &[u32]) -> u32 {
    ladder
        .iter()
        .copied()
        .filter(|&r| r < w_cross)
        .max()
        .or_else(|| ladder.iter().copied().min())
        .unwrap_or_else(|| floor_rung(ladder))
}

/// Feeds `attempt` a silent round for each schedule-sized silence before
/// a burst that arrived at `t`, when the round after the last was
/// `expected`: a round whose data or ACKs were all lost left nothing on
/// the wire.
fn silent_rounds(attempt: &mut RungAttempt, mut expected: f64, t: f64) {
    for _ in 0..MAX_INSERTED_ZEROS {
        let rtt = attempt.round_rtt();
        if t <= expected + 0.5 * rtt || attempt.on_silent_round(&REPLAY, false).is_none() {
            return;
        }
        expected += rtt;
    }
}

/// Reconstructs one connection's window trace by replaying its
/// reassembled flow to a [`RungAttempt`]. Returns `None` for flows that
/// carried no server data at all (not a probe connection this pipeline
/// can say anything about).
pub fn observe_connection(flow: &Flow, ladder: &[u32]) -> Option<ConnectionObservation> {
    let mss = flow.effective_mss()?;
    let bursts = &flow.bursts;
    if bursts.is_empty() {
        return None;
    }
    let size = u64::from(mss.max(1));
    // Bursts hold bytes; the packets they cover end one past the highest.
    let end = |b: &Burst| b.end.div_ceil(size);

    // The pre/post boundary: the first burst that opens with a
    // retransmission after a burst that was never ACKed — the server's
    // response to the emulated timeout.
    let timeout_idx = bursts
        .iter()
        .enumerate()
        .skip(1)
        .find(|(_, b)| !b.acked_before && b.head_retransmit)
        .map(|(i, _)| i);
    let pre = &bursts[..timeout_idx.unwrap_or(bursts.len())];

    // The withholding point: the last pre burst drew no ACKs (either the
    // timeout followed, or the flow ended with the server never
    // responding to it). How far it reached past every earlier burst
    // pins the rung; without it, no threshold was passed.
    let inferred_wmax = match pre.split_last() {
        Some((crossing, earlier))
            if timeout_idx.is_some() || crossing.first_ack_after.is_none() =>
        {
            let reached = earlier.iter().map(end).max().unwrap_or(0);
            let w = end(crossing).saturating_sub(reached);
            Some(infer_wmax(u32::try_from(w).unwrap_or(u32::MAX), ladder))
        }
        _ => None,
    };

    let mut attempt = RungAttempt::new(infer_env(bursts), inferred_wmax.unwrap_or(u32::MAX));
    attempt.set_mss(mss);
    let mut expected = None;
    for (i, b) in bursts.iter().enumerate() {
        if Some(i) == timeout_idx {
            attempt.on_rto(true);
            expected = None;
        }
        if let Some(at) = expected {
            silent_rounds(&mut attempt, at, b.t0);
        }
        let rtt = attempt.round_rtt();
        let first = b.start / size;
        let run = Run {
            first,
            len: end(b).saturating_sub(first),
            duplicate: false,
        };
        attempt.on_round(&REPLAY, &[run]);
        expected = Some(b.t0 + rtt);
    }
    // A withholding the server never answered.
    attempt.on_rto(false);
    // What is still open, the wire ended: a server FIN before the
    // crossing, a recovery cut short, or — the one ending only a capture
    // has to tell apart — a prober that gave up before crossing.
    let gave_up = attempt.phase() == AttemptPhase::Pre && flow.closed_by != Some(Endpoint::Server);
    attempt.on_silent_round(&REPLAY, true);
    let mut trace = attempt.into_trace();
    if gave_up {
        trace.invalid = Some(InvalidReason::NeverExceededThreshold);
    }
    trace.wmax_threshold = inferred_wmax.unwrap_or(0);
    Some(ConnectionObservation {
        start: flow.start,
        trace,
        inferred_wmax,
    })
}

/// All connections between one prober and one server, in capture order —
/// the unit that yields one identification verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSession {
    /// The prober's IPv4 address.
    pub client_ip: [u8; 4],
    /// The server's IPv4 address.
    pub server_ip: [u8; 4],
    /// Reconstructed connections, ordered by first packet.
    pub connections: Vec<ConnectionObservation>,
    /// Flows grouped into this session (including dataless ones).
    pub flows: usize,
}

/// Groups a reassembled capture into probe sessions by (prober IP,
/// server IP), preserving capture order within and across sessions.
pub fn sessions(reassembly: &Reassembly, ladder: &[u32]) -> Vec<ProbeSession> {
    let mut out: Vec<ProbeSession> = Vec::new();
    let mut position: HashMap<([u8; 4], [u8; 4]), usize> = HashMap::new();
    for flow in &reassembly.flows {
        let key = (flow.client.0, flow.server.0);
        let at = *position.entry(key).or_insert_with(|| {
            out.push(ProbeSession {
                client_ip: key.0,
                server_ip: key.1,
                connections: Vec::new(),
                flows: 0,
            });
            out.len() - 1
        });
        let session = &mut out[at];
        session.flows += 1;
        if let Some(obs) = observe_connection(flow, ladder) {
            session.connections.push(obs);
        }
    }
    for s in &mut out {
        s.connections
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite timestamps"));
    }
    out
}

/// Replays a session's reconstructed connections through the ladder
/// walk (a driver of [`caai_core::ladder`]), assigning threshold rungs to
/// attempts that never crossed and assembling the same [`GatherOutcome`]
/// the prober produced: the usable environment-A/B pair when one exists,
/// and every failed attempt otherwise.
pub fn session_outcome(session: &ProbeSession, ladder: &[u32]) -> GatherOutcome {
    let mut walk = LadderWalk::new();
    for conn in &session.connections {
        let mut trace = conn.trace.clone();
        trace.wmax_threshold = match conn.inferred_wmax {
            Some(w) => {
                // The wire pinned the rung; keep the replay in sync.
                if let Some(pos) = ladder.iter().position(|&r| r == w) {
                    walk.seek(pos);
                }
                w
            }
            None => walk.rung_wmax(ladder),
        };
        walk.record(trace);
    }
    walk.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowBuilder, SegmentHeader};
    use crate::packet::flags;

    /// One captured packet: its timestamp and header.
    type Packet = (f64, SegmentHeader);

    const CLIENT: ([u8; 4], u16) = ([192, 0, 2, 1], 40000);
    const SERVER: ([u8; 4], u16) = ([198, 51, 100, 1], 80);
    /// The server's ISN; its first data byte is packet 0.
    const ISN: u32 = 7_000;

    /// The server's 100-byte data packet `pkt`.
    fn data(t: f64, pkt: u64) -> Packet {
        let header = SegmentHeader {
            src_ip: SERVER.0,
            dst_ip: CLIENT.0,
            src_port: SERVER.1,
            dst_port: CLIENT.1,
            seq: ISN.wrapping_add(1).wrapping_add((pkt * 100) as u32),
            ack: 0,
            flags: flags::ACK,
            mss_option: None,
            payload_len: 100,
        };
        (t, header)
    }

    /// The prober's cumulative ACK of packets `0..pkt`.
    fn ack(t: f64, pkt: u64) -> Packet {
        let header = SegmentHeader {
            src_ip: CLIENT.0,
            dst_ip: SERVER.0,
            src_port: CLIENT.1,
            dst_port: SERVER.1,
            seq: 0,
            ack: ISN.wrapping_add(1).wrapping_add((pkt * 100) as u32),
            flags: flags::ACK,
            mss_option: None,
            payload_len: 0,
        };
        (t, header)
    }

    /// The flow reassembly makes of `packets` (the first one is server
    /// data), closed by `closed_by`.
    fn flow_of(packets: Vec<Packet>, closed_by: Option<Endpoint>) -> Flow {
        let (t0, first) = packets[0];
        let mut builder = FlowBuilder::new(&first, t0);
        for (t, header) in &packets {
            assert_eq!(builder.feed(*t, header), None);
        }
        Flow {
            closed_by,
            ..builder.into_flow()
        }
    }

    /// Slow start 2, 4 at 1 s rounds, crossing burst of 8 at w_max 4
    /// (toy rungs), timeout, then a short recovery.
    fn toy_events(post_rounds: usize) -> Vec<Packet> {
        let mut ev = Vec::new();
        let mut t = 0.0;
        let mut pkt = 0u64;
        for w in [2u64, 4] {
            for i in 0..w {
                ev.push(data(t, pkt + i));
            }
            pkt += w;
            t += 1.0;
            for i in 0..w {
                ev.push(ack(t, pkt - w + i + 1));
            }
        }
        // Crossing burst: 8 packets, never ACKed.
        for i in 0..8 {
            ev.push(data(t, pkt + i));
        }
        // Timeout: head retransmission 3 s later, then doubling recovery.
        let mut rt = t + 3.0;
        let mut una = pkt;
        for r in 0..post_rounds {
            let w = 1u64 << r.min(3);
            for i in 0..w {
                ev.push(data(rt, una + i));
            }
            una += w;
            rt += 1.0;
            for i in 0..w {
                ev.push(ack(rt, una - w + i + 1));
            }
        }
        ev
    }

    #[test]
    fn reconstructs_rounds_timeout_and_rung() {
        let flow = flow_of(toy_events(18), None);
        let obs = observe_connection(&flow, &[4, 2]).expect("observable");
        assert_eq!(obs.trace.env, EnvironmentId::A);
        assert_eq!(obs.trace.pre, vec![2, 4, 8]);
        assert_eq!(
            obs.inferred_wmax,
            Some(4),
            "largest rung below the crossing w=8"
        );
        assert_eq!(obs.trace.post.len(), 18);
        assert_eq!(&obs.trace.post[..4], &[1, 2, 4, 8]);
        assert!(obs.trace.is_valid(), "{:?}", obs.trace);
    }

    #[test]
    fn short_recovery_is_recovery_too_short() {
        let flow = flow_of(toy_events(5), Some(Endpoint::Server));
        let obs = observe_connection(&flow, &[4]).unwrap();
        assert_eq!(obs.trace.invalid, Some(InvalidReason::RecoveryTooShort));
    }

    #[test]
    fn unanswered_withholding_is_no_timeout_response() {
        let mut ev = toy_events(0);
        // Truncate at the crossing burst: keep everything up to the last
        // pre-timeout data packet.
        ev.truncate(2 + 2 + 4 + 4 + 8);
        let flow = flow_of(ev, Some(Endpoint::Client));
        let obs = observe_connection(&flow, &[4]).unwrap();
        assert_eq!(obs.inferred_wmax, Some(4));
        assert_eq!(obs.trace.invalid, Some(InvalidReason::NoTimeoutResponse));
    }

    #[test]
    fn server_close_before_crossing_is_page_too_short() {
        let ev = vec![data(0.0, 0), data(0.0, 1), ack(1.0, 1), ack(1.0, 2)];
        let flow = flow_of(ev, Some(Endpoint::Server));
        let obs = observe_connection(&flow, &[512]).unwrap();
        assert_eq!(obs.trace.invalid, Some(InvalidReason::PageTooShort));
        assert_eq!(obs.inferred_wmax, None);
        assert_eq!(
            obs.trace.wmax_threshold, 0,
            "rung comes from the session replay"
        );
    }

    #[test]
    fn prober_close_without_crossing_is_never_exceeded() {
        let ev = vec![
            data(0.0, 0),
            data(0.0, 1),
            ack(1.0, 2),
            data(1.0, 2),
            data(1.0, 3),
            ack(2.0, 4),
        ];
        let flow = flow_of(ev, Some(Endpoint::Client));
        let obs = observe_connection(&flow, &[512]).unwrap();
        assert_eq!(
            obs.trace.invalid,
            Some(InvalidReason::NeverExceededThreshold)
        );
    }

    #[test]
    fn environment_b_inferred_from_short_first_round() {
        let ev = vec![
            data(0.0, 0),
            data(0.0, 1),
            ack(0.8, 2),
            data(0.8, 2),
            ack(1.6, 3),
        ];
        let flow = flow_of(ev, Some(Endpoint::Client));
        let obs = observe_connection(&flow, &[512]).unwrap();
        assert_eq!(obs.trace.env, EnvironmentId::B);
    }

    #[test]
    fn silent_rounds_reappear_as_zero_windows() {
        // Round 1 at t=0 (w=2, ACKed), then a 2-round silence (ACKs lost,
        // server stalled), then a round at t=3.
        let ev = vec![
            data(0.0, 0),
            data(0.0, 1),
            ack(1.0, 2),
            data(3.0, 2),
            ack(4.0, 3),
        ];
        let flow = flow_of(ev, Some(Endpoint::Client));
        let obs = observe_connection(&flow, &[512]).unwrap();
        assert_eq!(obs.trace.pre, vec![2, 0, 0, 1]);
    }

    #[test]
    fn sessions_group_by_address_pair_in_first_appearance_order() {
        // One probed pair whose two connections sit 20,000 flows apart —
        // the later one with the earlier start — around 20,000 one-flow
        // sessions of other servers.
        const OTHERS: usize = 20_000;
        let probed = |start: f64| {
            let mut f = flow_of(toy_events(18), None);
            f.start = start;
            f
        };
        let other = |i: usize| Flow {
            server: ([172, 16, (i >> 8) as u8, i as u8], 80),
            bursts: Vec::new(),
            ..probed(0.0)
        };
        let mut flows = vec![probed(500.0)];
        flows.extend((0..OTHERS).map(other));
        flows.push(probed(100.0));
        let reassembly = Reassembly {
            flows,
            skipped: Vec::new(),
            truncated: None,
            packets: 0,
        };
        let out = sessions(&reassembly, &[4, 2]);
        assert_eq!(out.len(), OTHERS + 1);
        assert_eq!(
            (out[0].client_ip, out[0].server_ip),
            ([192, 0, 2, 1], [198, 51, 100, 1])
        );
        assert_eq!(out[0].flows, 2);
        let starts: Vec<f64> = out[0].connections.iter().map(|c| c.start).collect();
        assert_eq!(starts, vec![100.0, 500.0], "sorted by start");
        for (i, s) in out[1..].iter().enumerate() {
            assert_eq!(s.server_ip, [172, 16, (i >> 8) as u8, i as u8]);
            assert_eq!((s.flows, s.connections.len()), (1, 0));
        }
    }

    #[test]
    fn session_replay_assigns_descending_rungs() {
        // Connection 1 (env A): never exceeds; connection 2 (env A):
        // crosses at the 2-rung; connection 3 (env B): valid pair leg.
        let c1 = {
            let ev = vec![data(0.0, 0), ack(1.0, 1), data(1.0, 1), ack(2.0, 2)];
            observe_connection(&flow_of(ev, Some(Endpoint::Client)), &[4, 2]).unwrap()
        };
        let mk_crossing = |base: f64, env_b: bool| {
            let rtt = if env_b { 0.8 } else { 1.0 };
            let mut ev = vec![data(base, 0), data(base, 1)];
            ev.push(ack(base + rtt, 2));
            ev.push(ack(base + rtt, 2));
            for i in 0..3 {
                ev.push(data(base + rtt, 2 + i));
            }
            // timeout + 18 post rounds of one packet each
            let mut t = base + rtt + 3.0;
            let mut una = 2u64;
            let mut ev2 = Vec::new();
            for _ in 0..18 {
                ev2.push(data(t, una));
                una += 1;
                t += rtt;
                ev2.push(ack(t, una));
            }
            ev.extend(ev2);
            let mut f = flow_of(ev, Some(Endpoint::Client));
            f.start = base;
            f
        };
        let c2 = observe_connection(&mk_crossing(100.0, false), &[4, 2]).unwrap();
        let c3 = observe_connection(&mk_crossing(200.0, true), &[4, 2]).unwrap();
        let session = ProbeSession {
            client_ip: [192, 0, 2, 1],
            server_ip: [198, 51, 100, 1],
            connections: vec![c1, c2, c3],
            flows: 3,
        };
        let outcome = session_outcome(&session, &[4, 2]);
        assert_eq!(outcome.failed_attempts.len(), 1);
        assert_eq!(
            outcome.failed_attempts[0].wmax_threshold, 4,
            "first attempt replayed at the top rung"
        );
        let pair = outcome.pair.expect("pair assembled");
        assert_eq!(pair.wmax_threshold(), 2, "crossing w=3 pins the 2-rung");
        assert_eq!(pair.env_b.env, EnvironmentId::B);
    }
}
