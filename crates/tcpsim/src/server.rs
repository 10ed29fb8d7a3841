//! The simulated web-server TCP sender.
//!
//! The server is driven by the prober: the prober asks it to
//! [`transmit`](TcpServer::transmit) — one [`Burst`], a run of sequence
//! numbers — delivers ACKs singly ([`on_ack`](TcpServer::on_ack)) or as
//! the train a round's ACKs are ([`on_ack_run`](TcpServer::on_ack_run)),
//! and fires the retransmission timeout by advancing time past
//! [`rto_deadline`](TcpServer::rto_deadline) and calling
//! [`fire_rto`](TcpServer::fire_rto). Sequence numbers are counted in
//! packets.

use caai_congestion::{Ack, AlgorithmId, CongestionControl, LossKind, Transport};

use crate::cache::SsthreshCache;
use crate::config::{SenderQuirk, ServerConfig, SlowStartVariant};
use crate::segment::{AckPacket, Burst};

/// F-RTO (RFC 5682) state: armed after an RTO, resolved by the next two
/// ACKs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrtoState {
    /// F-RTO disabled or already resolved.
    Inactive,
    /// The RTO retransmission was sent; waiting for the first ACK.
    Armed,
    /// First ACK advanced the window; two *new* segments were allowed out.
    Probing,
}

/// HyStart (hybrid slow start) round state, as kept by Linux CUBIC.
///
/// Only the *delay-increase* heuristic is modelled: the ACK-train
/// heuristic compares sub-RTT ACK spacing, which a round-driven simulation
/// cannot produce (all ACKs of an emulated round arrive together) — the
/// same reason the paper's long emulated RTTs neutralize it (§V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HystartRound {
    /// `snd_nxt` at the start of the round; the round ends when `snd_una`
    /// passes it.
    end_seq: u64,
    /// Minimum RTT sampled this round.
    curr_rtt: f64,
    /// Samples taken this round (HyStart looks at the first 8).
    sample_cnt: u32,
}

/// HyStart only engages above this window (Linux `hystart_low_window`).
const HYSTART_LOW_WINDOW: u32 = 16;
/// RTT samples per round consulted by the delay heuristic.
const HYSTART_MIN_SAMPLES: u32 = 8;
/// Delay-threshold clamp bounds, seconds (Linux: 4–16 ms).
const HYSTART_DELAY_MIN: f64 = 0.004;
/// Upper clamp of the delay threshold, seconds.
const HYSTART_DELAY_MAX: f64 = 0.016;

/// The simulated web-server TCP sender.
#[derive(Debug)]
pub struct TcpServer {
    tp: Transport,
    cc: Box<dyn CongestionControl>,
    config: ServerConfig,
    /// Packets of *new* data still available to send (the page bytes the
    /// HTTP layer will produce, in MSS units).
    data_budget: u64,
    /// Next packet to put on the wire; rewound to `snd_una` on RTO.
    send_cursor: u64,
    /// RTO deadline while unacknowledged data is outstanding.
    rto_deadline: Option<f64>,
    frto: FrtoState,
    pre_rto_cwnd: u32,
    pre_rto_ssthresh: u32,
    dup_acks: u32,
    timeouts: u32,
    /// Snapshot of the window right before the last RTO (for quirks).
    pre_timeout_window: u32,
    /// Clamp installed by the NonIncreasing quirk at slow-start exit.
    quirk_freeze: Option<u32>,
    /// High-water mark of a fast-retransmit recovery; the cumulative ACK
    /// that crosses it ends the recovery and triggers window moderation.
    recovery_point: Option<u64>,
    /// Timestamp of the last emulated round the ApproachPreTimeoutMax
    /// quirk stepped in (all ACKs of a round share one arrival time).
    approach_round_mark: f64,
    /// The window level that quirk holds for the current round.
    approach_level: u32,
    /// HyStart round state, present while the Hybrid variant is armed.
    hystart: Option<HystartRound>,
}

impl TcpServer {
    /// Establishes a connection: the server will serve `data_budget`
    /// packets of new data using the given congestion avoidance algorithm.
    ///
    /// `cache` carries cross-connection TCP metrics (ssthresh caching); pass
    /// a fresh cache for a first connection.
    pub fn connect(
        algorithm: AlgorithmId,
        config: ServerConfig,
        data_budget: u64,
        cache: &SsthreshCache,
        now: f64,
    ) -> Self {
        Self::with_controller(algorithm.build(), config, data_budget, cache, now)
    }

    /// Like [`connect`](Self::connect) but with an explicit controller
    /// (used to inject custom algorithms in tests).
    pub fn with_controller(
        cc: Box<dyn CongestionControl>,
        config: ServerConfig,
        data_budget: u64,
        cache: &SsthreshCache,
        now: f64,
    ) -> Self {
        let mut tp = Transport::new(config.mss);
        tp.cwnd = config.initial_window;
        if let SlowStartVariant::Limited { max_ssthresh } = config.slow_start {
            tp.max_ssthresh = max_ssthresh;
        }
        if config.ssthresh_caching {
            if let Some(cached) = cache.lookup(now) {
                tp.ssthresh = cached;
            }
        }
        if let SenderQuirk::BoundedBuffer { clamp } = config.quirk {
            tp.cwnd_clamp = clamp.max(2);
        }
        let mut server = TcpServer {
            tp,
            cc,
            config,
            data_budget,
            send_cursor: 0,
            rto_deadline: None,
            frto: FrtoState::Inactive,
            pre_rto_cwnd: 0,
            pre_rto_ssthresh: 0,
            dup_acks: 0,
            timeouts: 0,
            pre_timeout_window: 0,
            quirk_freeze: None,
            recovery_point: None,
            approach_round_mark: f64::NEG_INFINITY,
            approach_level: 0,
            hystart: None,
        };
        if server.config.slow_start == SlowStartVariant::Hybrid {
            server.hystart_reset();
        }
        server.cc.init(&mut server.tp);
        server
    }

    /// The congestion window the sender currently operates with.
    pub fn cwnd(&self) -> u32 {
        self.tp.cwnd
    }

    /// The current slow start threshold.
    pub fn ssthresh(&self) -> u32 {
        self.tp.ssthresh
    }

    /// Highest cumulatively acknowledged packet.
    pub fn snd_una(&self) -> u64 {
        self.tp.snd_una
    }

    /// Next new packet the stream would produce.
    pub fn snd_nxt(&self) -> u64 {
        self.tp.snd_nxt
    }

    /// Packets of new data still available.
    pub fn data_budget(&self) -> u64 {
        self.data_budget
    }

    /// Number of RTOs experienced so far.
    pub fn timeouts(&self) -> u32 {
        self.timeouts
    }

    /// Name of the congestion avoidance algorithm in use.
    pub fn algorithm_name(&self) -> &'static str {
        self.cc.name()
    }

    /// The RTO deadline, if the timer is armed.
    pub fn rto_deadline(&self) -> Option<f64> {
        self.rto_deadline
    }

    /// True when every produced packet has been acknowledged and no new
    /// data remains.
    pub fn finished(&self) -> bool {
        self.data_budget == 0 && self.tp.snd_una >= self.tp.snd_nxt
    }

    /// Effective window limit after applying quirks.
    fn effective_cwnd(&self) -> u32 {
        let mut w = self.tp.cwnd;
        if let Some(freeze) = self.quirk_freeze {
            w = w.min(freeze);
        }
        w.max(1)
    }

    /// Puts as many segments on the wire as the window and data allow.
    ///
    /// Retransmissions (cursor below `snd_nxt`) go out first, then new
    /// data while the budget lasts. During the F-RTO probe only the
    /// RFC-prescribed segments are released. The burst is one run of
    /// sequence numbers, computed, not collected.
    pub fn transmit(&mut self, now: f64) -> Burst {
        let limit = match self.frto {
            FrtoState::Armed => self.tp.snd_una + 1, // only the RTO retransmission
            _ => self.tp.snd_una + u64::from(self.effective_cwnd()),
        };
        let first = self.send_cursor;
        // Everything below `snd_nxt` has been sent before.
        let fresh_from = limit.min(self.tp.snd_nxt).max(first);
        let mut end = fresh_from;
        if fresh_from >= self.tp.snd_nxt && limit > end {
            let fresh = (limit - end).min(self.data_budget);
            if fresh > 0 {
                end += fresh;
                self.data_budget -= fresh;
                self.tp.snd_nxt = end;
            }
        }
        self.send_cursor = end;
        if end > first && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.config.rto);
        }
        Burst::new(first, end - first, fresh_from - first)
    }

    /// Processes one cumulative ACK arriving at `now`.
    ///
    /// An ACK for data never sent is ignored: the window it would open,
    /// and `snd_una` past `snd_nxt`, belong to no connection state.
    pub fn on_ack(&mut self, now: f64, ack: AckPacket) {
        if ack.cum_ack <= self.tp.snd_una {
            self.handle_dup_ack(now);
            return;
        }
        if ack.cum_ack > self.tp.snd_nxt {
            return;
        }
        let acked = (ack.cum_ack - self.tp.snd_una) as u32;
        self.tp.snd_una = ack.cum_ack;
        self.dup_acks = 0;

        self.restart_rto(now);

        // F-RTO resolution (RFC 5682 basic algorithm).
        match self.frto {
            FrtoState::Armed => {
                // First ACK advanced the window: probe with new data only.
                self.frto = FrtoState::Probing;
                // RFC 5682 step 2b: transmit up to two *new* segments.
                // The probe data sits beyond the pre-RTO high-water mark,
                // so the window must open to in-flight + 2 for exactly
                // two to fit (Linux `tcp_process_frto`).
                self.send_cursor = self.send_cursor.max(self.tp.snd_nxt);
                let in_flight = (self.send_cursor - self.tp.snd_una) as u32;
                self.tp.cwnd = in_flight + 2;
            }
            FrtoState::Probing => {
                // Second advancing ACK: the timeout was spurious. Restore
                // the pre-RTO state (Eifel response) — no slow start.
                self.frto = FrtoState::Inactive;
                self.tp.cwnd = self.pre_rto_cwnd;
                self.tp.ssthresh = self.pre_rto_ssthresh;
            }
            FrtoState::Inactive => {}
        }

        if ack.rtt > 0.0 {
            self.tp.observe_rtt(ack.rtt);
            self.hystart_sample(ack.rtt);
        }
        let cc_ack = Ack {
            now,
            acked,
            rtt: ack.rtt,
        };
        self.cc.pkts_acked(&mut self.tp, &cc_ack);
        self.cc.cong_avoid(&mut self.tp, &cc_ack);
        // End of a fast-retransmit recovery: the (often huge) cumulative
        // ACK empties the pipe, and Linux window moderation caps the next
        // burst at in-flight + 3 — far below the β·w a loss-event-based
        // probe would hope to observe (§IV-B).
        if let Some(recovery_point) = self.recovery_point {
            if ack.cum_ack >= recovery_point {
                self.recovery_point = None;
                if self.config.burstiness_control {
                    let in_flight = self.send_cursor.saturating_sub(self.tp.snd_una) as u32;
                    self.tp.cwnd = self.tp.cwnd.min(in_flight + 3).max(1);
                }
            }
        }
        self.apply_quirks_after_growth(now);
    }

    /// Processes the ACK train `first, first + 1, …, first + count - 1`,
    /// every ACK arriving at `now` with the RTT sample `rtt`: exactly
    /// what `count` calls of [`on_ack`](Self::on_ack) do. Each stretch of
    /// it whose ACKs are all ordinary (`ordinary_acks`) is one call
    /// into the controller ([`CongestionControl::on_ack_train`]); the ACKs
    /// between stretches go through `on_ack` one by one.
    pub fn on_ack_run(&mut self, now: f64, first: u64, count: u64, rtt: f64) {
        let (mut cum_ack, mut left) = (first, count);
        // ACKs for data never sent are ignored, as `on_ack` ignores them.
        while left > 0 && cum_ack <= self.tp.snd_nxt {
            let train = self.ordinary_acks(cum_ack, rtt).min(left);
            if train == 0 {
                self.on_ack(now, AckPacket { cum_ack, rtt });
            } else {
                let acked = (cum_ack - self.tp.snd_una) as u32;
                self.cc
                    .on_ack_train(&mut self.tp, &Ack { now, acked, rtt }, train);
                self.dup_acks = 0;
                self.restart_rto(now);
            }
            (cum_ack, left) = (cum_ack + train.max(1), left - train.max(1));
        }
    }

    /// How many ACKs of a train that starts at `first` this connection's
    /// own state makes ordinary: advancing, RTT-bearing, for data that was
    /// sent, no F-RTO step, recovery point or per-ACK quirk waiting (none
    /// can arise inside such a stretch) and nothing for HyStart to do —
    /// which acts on the ACK that takes `snd_una` to its round's `end_seq`
    /// and, in slow start, on a round's ACKs up to the 8th at a window of
    /// 16. No controller re-enters slow start at a window that large.
    fn ordinary_acks(&self, first: u64, rtt: f64) -> u64 {
        // `apply_quirks_after_growth` does nothing before the first
        // timeout, and nothing more once `NonIncreasing` has frozen.
        let per_ack_quirk = self.timeouts > 0
            && match self.config.quirk {
                SenderQuirk::NonIncreasing => self.quirk_freeze.is_none(),
                SenderQuirk::ApproachPreTimeoutMax => true,
                _ => false,
            };
        let ordinary = rtt > 0.0
            && first > self.tp.snd_una
            && self.frto == FrtoState::Inactive
            && self.recovery_point.is_none()
            && !per_ack_quirk;
        if !ordinary {
            return 0;
        }
        let sent = self.tp.snd_nxt + 1 - first;
        match &self.hystart {
            Some(round) if round.sample_cnt < HYSTART_MIN_SAMPLES && self.tp.in_slow_start() => 0,
            Some(round) => sent.min(round.end_seq.saturating_sub(first)),
            None => sent,
        }
    }

    /// Restarts the retransmission timer on progress.
    fn restart_rto(&mut self, now: f64) {
        let outstanding = self.tp.snd_una < self.tp.snd_nxt.max(self.send_cursor);
        self.rto_deadline = outstanding.then_some(now + self.config.rto);
    }

    /// Re-arms HyStart for a fresh slow start.
    fn hystart_reset(&mut self) {
        self.hystart = Some(HystartRound {
            end_seq: self.tp.snd_nxt,
            curr_rtt: f64::INFINITY,
            sample_cnt: 0,
        });
    }

    /// HyStart delay-increase detection (Linux CUBIC `hystart_update`):
    /// when the minimum of the first 8 RTT samples of a slow-start round
    /// exceeds the connection minimum by η = clamp(min_rtt/16, 4 ms,
    /// 16 ms), slow start ends *now* by setting `ssthresh` to the current
    /// window.
    fn hystart_sample(&mut self, rtt: f64) {
        let Some(round) = self.hystart.as_mut() else {
            return;
        };
        if !self.tp.in_slow_start() || self.tp.cwnd < HYSTART_LOW_WINDOW {
            // Below the engagement window HyStart only tracks rounds.
            if self.tp.snd_una >= round.end_seq {
                round.end_seq = self.tp.snd_nxt;
                round.curr_rtt = f64::INFINITY;
                round.sample_cnt = 0;
            }
            return;
        }
        if self.tp.snd_una >= round.end_seq {
            round.end_seq = self.tp.snd_nxt;
            round.curr_rtt = f64::INFINITY;
            round.sample_cnt = 0;
        }
        if round.sample_cnt < HYSTART_MIN_SAMPLES {
            round.curr_rtt = round.curr_rtt.min(rtt);
            round.sample_cnt += 1;
            if round.sample_cnt == HYSTART_MIN_SAMPLES {
                let eta = (self.tp.min_rtt / 16.0).clamp(HYSTART_DELAY_MIN, HYSTART_DELAY_MAX);
                if round.curr_rtt >= self.tp.min_rtt + eta {
                    self.tp.ssthresh = self.tp.cwnd;
                }
            }
        }
    }

    fn handle_dup_ack(&mut self, now: f64) {
        self.dup_acks += 1;
        if self.frto != FrtoState::Inactive {
            // A duplicate ACK during F-RTO means the timeout was genuine:
            // fall back to conventional recovery (RFC 5682 step 2a). This
            // is exactly the reaction CAAI's counter-measure provokes.
            self.frto = FrtoState::Inactive;
            self.tp.cwnd = 1;
            self.send_cursor = self.tp.snd_una;
            return;
        }
        if self.dup_acks == 3 {
            self.fast_retransmit(now);
        }
    }

    /// Triple-duplicate-ACK loss recovery. CAAI never triggers this on
    /// purpose; it exists to demonstrate why (§IV-B): with burstiness
    /// control the post-recovery window is moderated far below β·w.
    fn fast_retransmit(&mut self, now: f64) {
        self.tp.ssthresh = self.cc.ssthresh(&self.tp);
        self.cc.on_loss(&mut self.tp, LossKind::FastRetransmit, now);
        let mut cwnd = self.tp.ssthresh;
        if self.config.burstiness_control {
            // Linux window moderation: no burst larger than in-flight + 3,
            // where dup-ACKed (sacked) segments and the presumed-lost head
            // have left the network and count out of flight.
            // (Nothing is outstanding when a late ACK has carried `snd_una`
            // past a cursor the timeout rewound.)
            let outstanding = self.send_cursor.saturating_sub(self.tp.snd_una) as u32;
            let in_flight = outstanding.saturating_sub(self.dup_acks + 1);
            cwnd = cwnd.min(in_flight + 3);
        }
        self.tp.cwnd = cwnd.max(1);
        self.tp.cwnd_cnt = 0;
        self.recovery_point = Some(self.send_cursor.max(self.tp.snd_nxt));
        // Retransmit the presumed-lost head segment.
        self.send_cursor = self.send_cursor.min(self.tp.snd_una);
    }

    /// Fires the retransmission timeout. Returns false when the server
    /// ignores timeouts (the §VII-B "does not respond" quirk).
    pub fn fire_rto(&mut self, now: f64) -> bool {
        if self.config.quirk == SenderQuirk::IgnoresTimeout {
            self.rto_deadline = Some(now + self.config.rto);
            return false;
        }
        self.timeouts += 1;
        self.pre_timeout_window = self.tp.cwnd;
        self.pre_rto_cwnd = self.tp.cwnd;
        self.pre_rto_ssthresh = self.tp.ssthresh;

        // tcp_enter_loss: ssthresh from the CC module, then window to one
        // packet and go-back-N from snd_una.
        self.tp.ssthresh = self.cc.ssthresh(&self.tp);
        self.cc.on_loss(&mut self.tp, LossKind::Timeout, now);
        self.tp.cwnd = 1;
        self.tp.cwnd_cnt = 0;
        self.send_cursor = self.tp.snd_una;
        self.rto_deadline = Some(now + self.config.rto);
        self.dup_acks = 0;
        self.recovery_point = None;
        self.frto = if self.config.frto {
            FrtoState::Armed
        } else {
            FrtoState::Inactive
        };
        if self.config.slow_start == SlowStartVariant::Hybrid {
            self.hystart_reset();
        }
        match self.config.quirk {
            SenderQuirk::RemainAtOne => self.quirk_freeze = Some(1),
            SenderQuirk::ApproachPreTimeoutMax => {
                // Fig. 16: the recovery exits slow start low; the window
                // then saturates toward w^B (see apply_quirks_after_growth).
                self.tp.ssthresh = (self.pre_timeout_window * 3 / 10).max(2);
            }
            SenderQuirk::BufferBoundedRecovery { percent_of_wmax } => {
                // Fig. 17: slow start runs past w^B up to the buffer bound
                // and pins there.
                let bound = (self.pre_timeout_window.saturating_mul(percent_of_wmax) / 100).max(2);
                self.tp.ssthresh = bound;
                self.quirk_freeze = Some(bound);
            }
            _ => {}
        }
        true
    }

    /// Reads the threshold this connection would deposit in the metrics
    /// cache when it closes.
    pub fn closing_ssthresh(&self) -> u32 {
        self.tp.ssthresh
    }

    fn apply_quirks_after_growth(&mut self, now: f64) {
        match self.config.quirk {
            SenderQuirk::NonIncreasing
                // Freeze the window at the level where the first
                // post-timeout slow start ends.
                if self.timeouts > 0 && self.quirk_freeze.is_none() && !self.tp.in_slow_start() => {
                    self.quirk_freeze = Some(self.tp.cwnd);
                }
            SenderQuirk::ApproachPreTimeoutMax
                // Saturating approach (Fig. 16): once the post-timeout
                // slow start ends, the window closes 40% of the remaining
                // gap to the pre-timeout maximum per round — fast at
                // first, then asymptotically flat just under w^B,
                // regardless of what the underlying algorithm would do.
                if self.timeouts > 0 && !self.tp.in_slow_start() && self.pre_timeout_window > 0 => {
                    let limit = self.pre_timeout_window;
                    if now > self.approach_round_mark {
                        self.approach_round_mark = now;
                        if self.approach_level == 0 {
                            // Slow start just ended: hold this round at the
                            // exit level so the knee stays visible.
                            self.approach_level = self.tp.cwnd.min(limit);
                        } else {
                            let gap = limit.saturating_sub(self.approach_level);
                            self.approach_level = self
                                .approach_level
                                .saturating_add((gap * 2 / 5).max(1))
                                .min(limit);
                        }
                    }
                    // Hold the window on the curve for the whole round,
                    // whatever the underlying algorithm computed.
                    self.tp.cwnd = self.approach_level;
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    fn ideal_server(algo: AlgorithmId, budget: u64) -> TcpServer {
        TcpServer::connect(
            algo,
            ServerConfig::ideal(),
            budget,
            &SsthreshCache::new(),
            0.0,
        )
    }

    /// The first segment of a non-empty burst.
    fn head(burst: &Burst) -> Segment {
        burst.into_iter().next().expect("a non-empty burst")
    }

    /// Deliver one round of per-packet cumulative ACKs for `segs`.
    fn ack_all(server: &mut TcpServer, segs: &Burst, now: f64, rtt: f64) {
        let mut cum = server.snd_una();
        for s in segs {
            cum = cum.max(s.seq + 1);
            server.on_ack(now, AckPacket { cum_ack: cum, rtt });
        }
    }

    #[test]
    fn initial_transmission_is_the_initial_window() {
        let mut s = ideal_server(AlgorithmId::Reno, 1000);
        let segs = s.transmit(0.0);
        assert_eq!(segs.len(), 2);
        assert_eq!(head(&segs).seq, 0);
        assert!(!head(&segs).retransmit);
    }

    #[test]
    fn slow_start_doubles_each_round() {
        let mut s = ideal_server(AlgorithmId::Reno, 10_000);
        let mut now = 0.0;
        let mut sizes = Vec::new();
        for _ in 0..5 {
            let segs = s.transmit(now);
            sizes.push(segs.len());
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        assert_eq!(sizes, vec![2, 4, 8, 16, 32]);
    }

    #[test]
    fn budget_exhaustion_stops_transmission() {
        let mut s = ideal_server(AlgorithmId::Reno, 5);
        let segs = s.transmit(0.0);
        assert_eq!(segs.len(), 2);
        ack_all(&mut s, &segs, 1.0, 1.0);
        let segs = s.transmit(1.0);
        assert_eq!(segs.len(), 3, "only 3 packets of budget remain");
        ack_all(&mut s, &segs, 2.0, 1.0);
        assert!(s.finished());
        assert!(s.transmit(2.0).is_empty());
    }

    #[test]
    fn rto_enters_slow_start_and_retransmits() {
        let mut s = ideal_server(AlgorithmId::Reno, 10_000);
        let mut now = 0.0;
        // Grow to a sizeable window.
        for _ in 0..6 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let w_before = s.cwnd();
        assert!(w_before >= 64);
        let burst = s.transmit(now);
        assert_eq!(burst.len() as u32, s.cwnd());
        // No ACKs: fire the timeout.
        let deadline = s.rto_deadline().expect("timer armed");
        assert!(s.fire_rto(deadline));
        assert_eq!(s.cwnd(), 1);
        assert_eq!(s.ssthresh(), w_before / 2, "RENO halves on timeout");
        let retrans = s.transmit(deadline);
        assert_eq!(retrans.len(), 1);
        assert!(head(&retrans).retransmit);
        assert_eq!(head(&retrans).seq, s.snd_una());
    }

    #[test]
    fn post_rto_recovery_resends_the_lost_burst_in_order() {
        let mut s = ideal_server(AlgorithmId::Reno, 10_000);
        let mut now = 0.0;
        for _ in 0..4 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let lost = s.transmit(now);
        let first_lost = head(&lost).seq;
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        // Recovery proceeds go-back-N with doubling windows.
        let mut seen = Vec::new();
        for _ in 0..4 {
            let segs = s.transmit(now);
            seen.extend(segs.into_iter().map(|x| x.seq));
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        assert_eq!(seen[0], first_lost);
        for w in seen.windows(2) {
            assert_eq!(w[1], w[0] + 1, "retransmissions are contiguous");
        }
    }

    #[test]
    fn frto_restores_window_when_not_countered() {
        let mut cfg = ServerConfig::ideal().with_frto(true);
        cfg.rto = 3.0;
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 10_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        for _ in 0..5 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let w_before = s.cwnd();
        let _burst = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        // Only the head retransmission goes out while F-RTO is armed.
        let probe = s.transmit(now);
        assert_eq!(probe.len(), 1);
        // A "naive" prober ACKs it; F-RTO advances to the probing step.
        s.on_ack(
            now + 1.0,
            AckPacket {
                cum_ack: head(&probe).seq + 1,
                rtt: 1.0,
            },
        );
        now += 1.0;
        let new_segs = s.transmit(now);
        assert!(!new_segs.is_empty());
        assert!(!head(&new_segs).retransmit, "F-RTO probes with new data");
        // ACK advances again: timeout declared spurious, window restored.
        s.on_ack(
            now + 1.0,
            AckPacket {
                cum_ack: head(&new_segs).seq + 1,
                rtt: 1.0,
            },
        );
        assert!(
            s.cwnd() >= w_before,
            "spurious detection must restore the window: {} < {w_before}",
            s.cwnd()
        );
    }

    #[test]
    fn duplicate_ack_defeats_frto() {
        let cfg = ServerConfig::ideal().with_frto(true);
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 10_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        for _ in 0..5 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let _burst = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        let _probe = s.transmit(now);
        // CAAI's counter-measure: a duplicate ACK before anything else.
        s.on_ack(now + 1.0, AckPacket::duplicate(s.snd_una()));
        assert_eq!(s.cwnd(), 1, "conventional recovery forced");
        // Subsequent recovery is a regular slow start of retransmissions.
        let segs = s.transmit(now + 1.0);
        assert_eq!(segs.len(), 1);
        assert!(head(&segs).retransmit);
    }

    #[test]
    fn ssthresh_cache_seeds_new_connections() {
        let mut cache = SsthreshCache::new();
        cache.store(64, 0.0);
        let cfg = ServerConfig::ideal().with_ssthresh_caching(true);
        let s = TcpServer::connect(AlgorithmId::Reno, cfg, 100, &cache, 1.0);
        assert_eq!(s.ssthresh(), 64);
        // Waiting past the TTL (CAAI's counter-measure) yields a fresh
        // threshold.
        let s2 = TcpServer::connect(AlgorithmId::Reno, cfg, 100, &cache, 1000.0);
        assert!(s2.ssthresh() > 1 << 20);
    }

    #[test]
    fn ignores_timeout_quirk_never_retransmits() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::IgnoresTimeout);
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 10_000, &SsthreshCache::new(), 0.0);
        let _ = s.transmit(0.0);
        let deadline = s.rto_deadline().unwrap();
        assert!(!s.fire_rto(deadline));
        assert_eq!(s.timeouts(), 0);
    }

    #[test]
    fn remain_at_one_quirk_freezes_after_timeout() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::RemainAtOne);
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 10_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        for _ in 0..4 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let _ = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        for _ in 0..5 {
            let segs = s.transmit(now);
            assert_eq!(segs.len(), 1, "window frozen at one packet");
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
    }

    #[test]
    fn bounded_buffer_quirk_clamps_the_window() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::BoundedBuffer { clamp: 16 });
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 10_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        for _ in 0..8 {
            let segs = s.transmit(now);
            assert!(segs.len() <= 16);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        assert_eq!(s.cwnd(), 16);
    }

    /// Drives `rounds` full transmit/ACK rounds at the given RTT; returns
    /// the per-round burst sizes.
    fn drive_rounds(s: &mut TcpServer, rounds: usize, rtt: f64, now: &mut f64) -> Vec<usize> {
        let mut sizes = Vec::new();
        for _ in 0..rounds {
            let segs = s.transmit(*now);
            sizes.push(segs.len());
            ack_all(s, &segs, *now + rtt, rtt);
            *now += rtt;
        }
        sizes
    }

    #[test]
    fn limited_slow_start_flattens_growth_past_the_knob() {
        let cfg =
            ServerConfig::ideal().with_slow_start(SlowStartVariant::Limited { max_ssthresh: 32 });
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 100_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        let sizes = drive_rounds(&mut s, 8, 1.0, &mut now);
        // Doubling up to 32, then ≈ +16/round (RFC 3742).
        assert_eq!(&sizes[..5], &[2, 4, 8, 16, 32]);
        for w in sizes[5..].windows(2) {
            let delta = w[1] as i64 - w[0] as i64;
            assert!(delta <= 17, "growth {delta} must stay near max_ssthresh/2");
        }
        assert!(sizes[7] >= 70, "window keeps climbing, got {:?}", sizes);
    }

    #[test]
    fn hystart_matches_standard_slow_start_at_constant_rtt() {
        // §V-A's claim: with the emulated environments' constant RTTs,
        // hybrid slow start is indistinguishable from the standard one.
        let std_cfg = ServerConfig::ideal();
        let hyb_cfg = ServerConfig::ideal().with_slow_start(SlowStartVariant::Hybrid);
        let mut a = TcpServer::connect(
            AlgorithmId::CubicV2,
            std_cfg,
            100_000,
            &SsthreshCache::new(),
            0.0,
        );
        let mut b = TcpServer::connect(
            AlgorithmId::CubicV2,
            hyb_cfg,
            100_000,
            &SsthreshCache::new(),
            0.0,
        );
        let (mut ta, mut tb) = (0.0, 0.0);
        let wa = drive_rounds(&mut a, 9, 1.0, &mut ta);
        let wb = drive_rounds(&mut b, 9, 1.0, &mut tb);
        assert_eq!(wa, wb, "identical traces at fixed RTT");
    }

    #[test]
    fn hystart_exits_early_on_rtt_increase() {
        let cfg = ServerConfig::ideal().with_slow_start(SlowStartVariant::Hybrid);
        let mut s = TcpServer::connect(
            AlgorithmId::CubicV2,
            cfg,
            100_000,
            &SsthreshCache::new(),
            0.0,
        );
        let mut now = 0.0;
        // Three rounds at 0.8 s (cwnd reaches 16), then the RTT steps to
        // 1.0 s as in environment B before the timeout.
        drive_rounds(&mut s, 3, 0.8, &mut now);
        assert_eq!(s.cwnd(), 16);
        drive_rounds(&mut s, 2, 1.0, &mut now);
        assert!(
            s.ssthresh() < 1 << 20,
            "delay increase must cap ssthresh, got {}",
            s.ssthresh()
        );
        assert!(!s.tp.in_slow_start(), "slow start exited early");
    }

    #[test]
    fn hystart_rearms_after_timeout_and_stays_quiet_post_timeout() {
        // Post-timeout recovery in environment B keeps a constant RTT
        // until round 12 — by then slow start has ended, so HyStart must
        // not distort the recovery ramp CAAI measures.
        let cfg = ServerConfig::ideal().with_slow_start(SlowStartVariant::Hybrid);
        let mut s = TcpServer::connect(
            AlgorithmId::CubicV2,
            cfg,
            100_000,
            &SsthreshCache::new(),
            0.0,
        );
        let mut now = 0.0;
        drive_rounds(&mut s, 7, 0.8, &mut now);
        let _ = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        let sizes = drive_rounds(&mut s, 4, 0.8, &mut now);
        assert_eq!(sizes, vec![1, 2, 4, 8], "clean post-timeout slow start");
    }

    #[test]
    fn burstiness_control_moderates_fast_retransmit() {
        // The §IV-B rationale: after a dup-ACK loss event the window is
        // moderated to in_flight + 3, far below β·w — so β measured from a
        // loss event would be wrong.
        let mut s = ideal_server(AlgorithmId::Bic, 10_000);
        let mut now = 0.0;
        for _ in 0..7 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let w = s.cwnd();
        assert!(w > 100);
        let _burst = s.transmit(now);
        // Ack only the first packet, then three dups for the second.
        let una = s.snd_una();
        s.on_ack(
            now + 1.0,
            AckPacket {
                cum_ack: una + 1,
                rtt: 1.0,
            },
        );
        for _ in 0..3 {
            s.on_ack(now + 1.0, AckPacket::duplicate(una + 1));
        }
        let beta_w = s.ssthresh();
        assert!(beta_w >= w * 7 / 10, "BIC's β·w is high: {beta_w}");
        // The head goes out again; the prober then ACKs the whole burst at
        // once (exactly what a loss-event-based β probe does). The big
        // cumulative ACK empties the pipe and window moderation caps the
        // next burst far below β·w — the §IV-B measurement corruption.
        let retrans = s.transmit(now + 1.0);
        assert!(head(&retrans).retransmit, "head must be retransmitted");
        let high = s.snd_nxt();
        s.on_ack(
            now + 2.0,
            AckPacket {
                cum_ack: high,
                rtt: 1.0,
            },
        );
        assert!(
            s.cwnd() < beta_w / 2,
            "moderated window {} must fall far below β·w {}",
            s.cwnd(),
            beta_w
        );
    }

    #[test]
    fn approach_quirk_exits_slow_start_low_and_saturates() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::ApproachPreTimeoutMax);
        let mut s =
            TcpServer::connect(AlgorithmId::Bic, cfg, 1_000_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        drive_rounds(&mut s, 7, 1.0, &mut now);
        let w_before = s.cwnd();
        let _ = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        // Slow start exits at ≈ 0.3·w^B even though BIC's β is 0.8.
        assert_eq!(s.ssthresh(), w_before * 3 / 10);
        let sizes = drive_rounds(&mut s, 18, 1.0, &mut now);
        let last = *sizes.last().unwrap() as f64;
        assert!(
            last >= 0.85 * f64::from(w_before) && last <= f64::from(w_before),
            "saturates just below w^B: {last} vs {w_before}"
        );
        // Increments decelerate.
        let tail: Vec<i64> = sizes[10..]
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        for w in tail.windows(2) {
            assert!(w[1] <= w[0] + 1, "deceleration: {tail:?}");
        }
    }

    #[test]
    fn buffer_bounded_recovery_pins_above_wmax() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::BufferBoundedRecovery {
            percent_of_wmax: 125,
        });
        let mut s = TcpServer::connect(
            AlgorithmId::Reno,
            cfg,
            1_000_000,
            &SsthreshCache::new(),
            0.0,
        );
        let mut now = 0.0;
        drive_rounds(&mut s, 7, 1.0, &mut now);
        let w_before = s.cwnd();
        let _ = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        let sizes = drive_rounds(&mut s, 14, 1.0, &mut now);
        let bound = (w_before * 125 / 100) as usize;
        assert!(
            sizes.iter().any(|&w| w > w_before as usize),
            "climbs beyond w^B"
        );
        let flat = sizes.iter().rev().take_while(|&&w| w == bound).count();
        assert!(flat >= 4, "pins at the buffer bound {bound}: {sizes:?}");
    }

    #[test]
    fn nonincreasing_quirk_flattens_avoidance() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::NonIncreasing);
        let mut s = TcpServer::connect(AlgorithmId::Reno, cfg, 100_000, &SsthreshCache::new(), 0.0);
        let mut now = 0.0;
        for _ in 0..6 {
            let segs = s.transmit(now);
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        let _ = s.transmit(now);
        let deadline = s.rto_deadline().unwrap();
        s.fire_rto(deadline);
        now = deadline;
        let mut last = 0usize;
        let mut flat_rounds = 0;
        for _ in 0..16 {
            let segs = s.transmit(now);
            if !segs.is_empty() {
                if segs.len() == last {
                    flat_rounds += 1;
                }
                last = segs.len();
            }
            ack_all(&mut s, &segs, now + 1.0, 1.0);
            now += 1.0;
        }
        assert!(
            flat_rounds >= 5,
            "window must flatten, got {flat_rounds} flat rounds"
        );
    }

    #[test]
    fn an_ack_for_data_never_sent_changes_nothing() {
        let mut s = ideal_server(AlgorithmId::Reno, 10_000);
        let mut twin = ideal_server(AlgorithmId::Reno, 10_000);
        for server in [&mut s, &mut twin] {
            let mut now = 0.0;
            drive_rounds(server, 4, 1.0, &mut now);
            let _ = server.transmit(now);
        }
        let rtt = 1.0;
        s.on_ack(
            5.0,
            AckPacket {
                cum_ack: 1 << 40,
                rtt,
            },
        );
        assert_eq!(format!("{s:?}"), format!("{twin:?}"));
        s.on_ack_run(5.0, 1 << 40, 3, 1.0);
        s.on_ack_run(5.0, s.snd_nxt() + 1, 3, 1.0);
        assert_eq!(format!("{s:?}"), format!("{twin:?}"));
        assert_eq!(s.transmit(5.0), twin.transmit(5.0), "the next burst");
        // A train that starts inside what was sent stops where it ends.
        let (una, nxt) = (s.snd_una(), s.snd_nxt());
        s.on_ack_run(6.0, una + 1, 1 << 40, 1.0);
        assert_eq!(s.snd_una(), nxt);
    }

    /// The per-segment `transmit` that the closed form replaced, kept as
    /// its oracle.
    fn transmit_per_segment(s: &mut TcpServer, now: f64) -> Vec<Segment> {
        let mut out = Vec::new();
        let window_end = s.tp.snd_una + u64::from(s.effective_cwnd());
        let limit = match s.frto {
            FrtoState::Armed => s.tp.snd_una + 1,
            _ => window_end,
        };
        while s.send_cursor < limit {
            if s.send_cursor < s.tp.snd_nxt {
                out.push(Segment {
                    seq: s.send_cursor,
                    retransmit: true,
                });
                s.send_cursor += 1;
            } else if s.data_budget > 0 {
                out.push(Segment {
                    seq: s.send_cursor,
                    retransmit: false,
                });
                s.send_cursor += 1;
                s.tp.snd_nxt = s.send_cursor;
                s.data_budget -= 1;
            } else {
                break;
            }
        }
        if !out.is_empty() && s.rto_deadline.is_none() {
            s.rto_deadline = Some(now + s.config.rto);
        }
        out
    }

    /// The tests' own event source (SplitMix64), so one `u64` names a case.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Mostly small, sometimes large.
        fn size(&mut self) -> u64 {
            match self.below(4) {
                0 => self.below(4),
                1 => self.below(40),
                _ => self.below(3000),
            }
        }

        fn config(&mut self) -> ServerConfig {
            let quirk = match self.below(7) {
                0 => SenderQuirk::None,
                1 => SenderQuirk::RemainAtOne,
                2 => SenderQuirk::NonIncreasing,
                3 => SenderQuirk::ApproachPreTimeoutMax,
                4 => SenderQuirk::BoundedBuffer {
                    clamp: 2 + self.below(300) as u32,
                },
                5 => SenderQuirk::BufferBoundedRecovery {
                    percent_of_wmax: 50 + self.below(100) as u32,
                },
                _ => SenderQuirk::IgnoresTimeout,
            };
            let slow_start = match self.below(3) {
                0 => SlowStartVariant::Standard,
                1 => SlowStartVariant::Limited {
                    max_ssthresh: 1 + self.below(100) as u32,
                },
                _ => SlowStartVariant::Hybrid,
            };
            ServerConfig {
                initial_window: 1 + self.below(10) as u32,
                frto: self.below(2) == 0,
                burstiness_control: self.below(2) == 0,
                quirk,
                slow_start,
                ..ServerConfig::ideal()
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn closed_form_transmit_is_the_per_segment_loop(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            // Any relation between cursor, snd_una and snd_nxt, reachable
            // or not: the closed form is the loop, not a special case of it.
            let una = draw.size();
            let state = (
                una + draw.size(),                   // snd_nxt
                (una + draw.size()).saturating_sub(draw.below(8)), // send_cursor
                draw.size(),                         // data_budget
                draw.size() as u32,                  // cwnd
                (draw.below(3) == 0).then(|| draw.size() as u32),
                [FrtoState::Inactive, FrtoState::Armed, FrtoState::Probing][draw.below(3) as usize],
                (draw.below(2) == 0).then_some(7.5),
            );
            let build = || {
                let mut s = ideal_server(AlgorithmId::Reno, 0);
                s.tp.snd_una = una;
                (s.tp.snd_nxt, s.send_cursor, s.data_budget, s.tp.cwnd, s.quirk_freeze, s.frto,
                    s.rto_deadline) = state;
                s
            };
            let (mut closed, mut looped) = (build(), build());
            let burst = closed.transmit(3.0);
            let segments = transmit_per_segment(&mut looped, 3.0);
            prop_assert!(
                burst.into_iter().collect::<Vec<_>>() == segments && burst.len() == segments.len(),
                "{burst:?} is not {segments:?}"
            );
            prop_assert!(
                format!("{closed:?}") == format!("{looped:?}"),
                "{closed:?} is not {looped:?}"
            );
        }

        #[test]
        fn an_ack_train_is_its_acks_one_by_one(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let algorithm = caai_congestion::ALL_WITH_EXTENSIONS[draw.below(16) as usize];
            let config = draw.config();
            let budget = 1 + draw.below(200_000);
            let connect = || TcpServer::connect(algorithm, config, budget, &SsthreshCache::new(), 0.0);
            // `trains` hears every train whole, `singles` ACK by ACK.
            let (mut trains, mut singles) = (connect(), connect());
            let mut now = 0.0;
            for step in 0..draw.below(60) {
                // Unending ACKs with no threshold to cross grow windows no
                // probe reaches (HYBLA's by 2^40 per ACK at these RTTs);
                // `w_max` tops out at 512.
                if trains.cwnd() > 1 << 20 {
                    break;
                }
                match draw.below(10) {
                    0 => {
                        // The timeout, planned or not.
                        now += 3.0;
                        prop_assert!(trains.fire_rto(now) == singles.fire_rto(now));
                    }
                    1 | 2 => {
                        // Duplicate ACKs: a train without an RTT sample
                        // that does not advance.
                        let (first, count) = (trains.snd_una(), draw.below(5));
                        trains.on_ack_run(now, first, count, 0.0);
                        for i in 0..count {
                            singles.on_ack(now, AckPacket::duplicate(first + i));
                        }
                    }
                    3 | 4 => {
                        now += [0.8, 1.0, 1.3][draw.below(3) as usize];
                        prop_assert!(trains.transmit(now) == singles.transmit(now));
                    }
                    _ => {
                        // A train anywhere around the outstanding data:
                        // starting with a jump, behind `snd_una`, or
                        // running past `snd_nxt`.
                        let outstanding = trains.snd_nxt() - trains.snd_una();
                        let first = (trains.snd_una() + draw.below(outstanding + 3))
                            .saturating_sub(draw.below(3));
                        let count = draw.below(outstanding + 4);
                        let rtt = [0.8, 1.0, 1.07, 0.0, -1.0][draw.below(5) as usize];
                        trains.on_ack_run(now, first, count, rtt);
                        for i in 0..count {
                            singles.on_ack(now, AckPacket { cum_ack: first + i, rtt });
                        }
                    }
                }
                prop_assert!(
                    format!("{trains:?}") == format!("{singles:?}"),
                    "step {step}: {trains:?} is not {singles:?}"
                );
            }
        }

        /// The same oracle where probes live: slow start to `w_max`, the
        /// emulated timeout, then 18 or more full-window rounds — every
        /// packet acknowledged (§IV-C), the ACKs between two the path
        /// lost arriving as a train, the RTT stepping 0.8 ↔ 1.0 between
        /// rounds so the smoothed estimate has to converge again.
        #[test]
        fn a_probe_heard_in_trains_is_the_probe_heard_ack_by_ack(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let algorithm = caai_congestion::ALL_WITH_EXTENSIONS[draw.below(16) as usize];
            let w_max = 64 + draw.below(449) as u32;
            let config = ServerConfig {
                initial_window: 1 + draw.below(10) as u32,
                frto: draw.below(4) == 0,
                quirk: match draw.below(4) {
                    0 => SenderQuirk::BoundedBuffer { clamp: w_max / 2 + draw.below(u64::from(w_max)) as u32 },
                    1 => SenderQuirk::BufferBoundedRecovery { percent_of_wmax: 50 + draw.below(100) as u32 },
                    _ => SenderQuirk::None,
                },
                slow_start: match draw.below(3) {
                    0 => SlowStartVariant::Standard,
                    1 => SlowStartVariant::Limited { max_ssthresh: 8 + draw.below(120) as u32 },
                    _ => SlowStartVariant::Hybrid,
                },
                ..ServerConfig::ideal()
            };
            let connect = || TcpServer::connect(algorithm, config, 1 << 40, &SsthreshCache::new(), 0.0);
            let (mut trains, mut singles) = (connect(), connect());
            let most_lost = [0, 0, 1, 4][draw.below(4) as usize];
            let (mut now, mut rtt) = (0.0, 0.8);
            let mut timed_out = false;
            let mut rounds_left = 40;
            while rounds_left > 0 {
                rounds_left -= 1;
                let burst = trains.transmit(now);
                prop_assert!(burst == singles.transmit(now));
                // No probe follows a window there (HYBLA's, at these RTTs).
                if burst.len() > 1 << 12 {
                    break;
                }
                if !timed_out && trains.cwnd() >= w_max {
                    // Nobody answers this burst.
                    now = trains.rto_deadline().expect("data is outstanding");
                    prop_assert!(trains.fire_rto(now) && singles.fire_rto(now));
                    (timed_out, rounds_left) = (true, 18 + draw.below(8));
                    if config.frto {
                        trains.on_ack_run(now, trains.snd_una(), 1, 0.0);
                        singles.on_ack(now, AckPacket::duplicate(singles.snd_una()));
                    }
                    continue;
                }
                now += rtt;
                let mut lost: Vec<u64> = (0..draw.below(most_lost + 1))
                    .map(|_| burst.seqs().start + 1 + draw.below(burst.len().max(1) as u64))
                    .collect();
                lost.sort_unstable();
                let mut first = burst.seqs().start + 1;
                for stop in lost.into_iter().chain([burst.seqs().end + 1]) {
                    let count = stop.saturating_sub(first);
                    trains.on_ack_run(now, first, count, rtt);
                    for cum_ack in first..first + count {
                        singles.on_ack(now, AckPacket { cum_ack, rtt });
                    }
                    prop_assert!(
                        format!("{trains:?}") == format!("{singles:?}"),
                        "{rounds_left} rounds to go, train {first}+{count}: {trains:?} is not {singles:?}"
                    );
                    first = first.max(stop + 1);
                }
                if draw.below(3) == 0 {
                    rtt = if rtt == 0.8 { 1.0 } else { 0.8 };
                }
            }
        }
    }
}
