//! CTCP: Compound TCP (Tan, Song, Zhang, Sridharan, INFOCOM'06), the
//! Windows default since Vista/Server 2008 and available as a hotfix for
//! XP/Server 2003.
//!
//! The window is the sum of a loss-based component (RENO's `cwnd`) and a
//! delay-based component (`dwnd`): `win = cwnd + dwnd`. Once per RTT the
//! backlog estimate `diff = win·(rtt − baseRTT)/rtt` decides whether the
//! delay window keeps growing binomially (`dwnd += (α·win^k − 1)⁺`, α=1/8,
//! k=0.75, while `diff < γ`) or is drained (`dwnd −= ζ·diff`, ζ=1). On loss
//! the total window is halved (`β = 0.5`), which is why the paper cannot
//! distinguish CTCP from RENO at small `w_max` ("RC-small").
//!
//! ## The two deployed versions
//!
//! Windows is closed source; the paper itself distinguishes **CTCP v1**
//! (Server 2003 / XP) from **CTCP v2** (Server 2008 / Vista / 7) purely by
//! observed behaviour: in environment B the post-timeout RTT step
//! (0.8 s → 1.0 s after round 12) changes v2's window growth but not v1's
//! (Fig. 3(c) vs 3(d)). We reproduce that observable with a documented
//! substitution: v1 feeds the backlog estimator a *heavily smoothed* RTT
//! (legacy coarse RTT sampling), so a 200 ms step barely registers within
//! the 6-round feature window, while v2 uses the per-round RTT sample as
//! the INFOCOM'06 paper specifies, reacting immediately.

use crate::transport::{Ack, CongestionControl, LossKind, RoundTracker, Transport};

/// Binomial delay-window increase exponent `k`.
const K_EXP: f64 = 0.75;
/// Binomial delay-window increase gain `α`.
const ALPHA: f64 = 0.125;
/// Delay-window drain gain `ζ`.
const ZETA: f64 = 1.0;
/// Backlog threshold `γ` (packets).
const GAMMA: f64 = 30.0;
/// Total-window multiplicative decrease `β`.
const BETA: f64 = 0.5;
/// Below this total window the delay component stays inactive and CTCP is
/// behaviourally identical to RENO (§IV-B of the paper: "CTCP = RENO when
/// their window sizes are less than 41").
const LOW_WINDOW: f64 = 41.0;

/// Which deployed CTCP generation to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtcpVersion {
    /// Windows Server 2003 / XP (the paper's CTCP').
    V1,
    /// Windows Server 2008 / Vista / 7 (the paper's CTCP'').
    V2,
}

/// Compound TCP.
#[derive(Debug, Clone)]
pub struct Ctcp {
    version: CtcpVersion,
    /// Loss-based window component, fractional (RENO-rate growth).
    cwnd_loss: f64,
    /// Delay-based window component.
    dwnd: f64,
    /// Connection minimum RTT.
    base_rtt: f64,
    /// Minimum RTT sample within the current round.
    round_min_rtt: f64,
    /// Smoothed RTT used by v1's backlog estimator.
    smoothed_rtt: f64,
    rounds: RoundTracker,
}

impl Ctcp {
    /// CTCP as deployed on Windows Server 2003 / XP.
    pub fn v1() -> Self {
        Self::with_version(CtcpVersion::V1)
    }

    /// CTCP as deployed on Windows Server 2008 / Vista / 7.
    pub fn v2() -> Self {
        Self::with_version(CtcpVersion::V2)
    }

    /// Creates the requested CTCP generation.
    pub fn with_version(version: CtcpVersion) -> Self {
        Ctcp {
            version,
            cwnd_loss: 0.0,
            dwnd: 0.0,
            base_rtt: f64::INFINITY,
            round_min_rtt: f64::INFINITY,
            smoothed_rtt: 0.0,
            rounds: RoundTracker::new(),
        }
    }

    /// The delay window, exposed for tests and trace annotation.
    pub fn dwnd(&self) -> f64 {
        self.dwnd
    }

    fn sync_total(&self, tp: &mut Transport) {
        let total = (self.cwnd_loss + self.dwnd).floor().max(2.0) as u32;
        tp.cwnd = total.min(tp.cwnd_clamp);
    }

    /// The RTT the backlog estimator sees: v1 smooths heavily, v2 uses the
    /// round's sample.
    fn estimator_rtt(&self) -> f64 {
        match self.version {
            CtcpVersion::V1 => self.smoothed_rtt,
            CtcpVersion::V2 => self.round_min_rtt,
        }
    }

    /// Legacy v1 estimator: slow EWMA (gain 1/256) over *one sample per
    /// round*, modelling the older stack's coarse RTT timer. The gain must
    /// be small against the whole trace, not one round: environment B's
    /// long-RTT rounds accumulate (late pre-timeout rounds plus every
    /// post-step round), and v1 must still sit far below the γ backlog
    /// threshold through the post-timeout feature window, while v2 — fed
    /// by the per-round sample — reacts within one round.
    fn update_smoothed_rtt(&mut self) {
        if !self.round_min_rtt.is_finite() {
            return;
        }
        if self.smoothed_rtt == 0.0 {
            self.smoothed_rtt = self.round_min_rtt;
        } else {
            self.smoothed_rtt += (self.round_min_rtt - self.smoothed_rtt) / 256.0;
        }
    }

    fn update_dwnd_once_per_round(&mut self, tp: &Transport) {
        let win = self.cwnd_loss + self.dwnd;
        if win < LOW_WINDOW {
            self.dwnd = 0.0;
            return;
        }
        let rtt = self.estimator_rtt();
        if !rtt.is_finite() || rtt <= 0.0 || !self.base_rtt.is_finite() {
            return;
        }
        let diff = win * (rtt - self.base_rtt).max(0.0) / rtt;
        if diff < GAMMA {
            self.dwnd += (ALPHA * win.powf(K_EXP) - 1.0).max(0.0);
        } else {
            self.dwnd = (self.dwnd - ZETA * diff).max(0.0);
        }
        let _ = tp;
    }
}

impl CongestionControl for Ctcp {
    fn name(&self) -> &'static str {
        match self.version {
            CtcpVersion::V1 => "CTCP_v1",
            CtcpVersion::V2 => "CTCP_v2",
        }
    }

    fn init(&mut self, tp: &mut Transport) {
        self.cwnd_loss = f64::from(tp.cwnd);
    }

    fn pkts_acked(&mut self, _tp: &mut Transport, ack: &Ack) {
        if ack.rtt <= 0.0 {
            return;
        }
        if ack.rtt < self.base_rtt {
            self.base_rtt = ack.rtt;
        }
        if ack.rtt < self.round_min_rtt {
            self.round_min_rtt = ack.rtt;
        }
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        if tp.in_slow_start() {
            // Standard slow start on the total window; the delay component
            // stays at zero.
            tp.slow_start(ack.acked);
            self.cwnd_loss = f64::from(tp.cwnd) - self.dwnd;
            if tp.in_slow_start() {
                // Round bookkeeping still advances during slow start.
                if self.rounds.round_elapsed(tp) {
                    self.update_smoothed_rtt();
                    self.round_min_rtt = f64::INFINITY;
                }
                return;
            }
        }
        // Loss-based component grows at RENO's rate: +1/win per ACK, with
        // `win` the *integer* window actually in flight (fractional state
        // would lag RENO by a packet every few rounds).
        let win = (self.cwnd_loss + self.dwnd).floor().max(1.0);
        self.cwnd_loss += f64::from(ack.acked) / win;
        if self.rounds.round_elapsed(tp) {
            self.update_smoothed_rtt();
            self.update_dwnd_once_per_round(tp);
            self.round_min_rtt = f64::INFINITY;
        }
        self.sync_total(tp);
    }

    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        // Past slow start, `cwnd_loss += 1/win` with the division hoisted,
        // for as long as neither the integer window nor the round moves.
        let left = if tp.in_slow_start() { 0 } else { left };
        let total = (self.cwnd_loss + self.dwnd).floor();
        let step = 1.0 / total.max(1.0);
        let quiet = left.min(self.rounds.quiet_acks(tp));
        let mut coasted = 0;
        while coasted < quiet && (self.cwnd_loss + step + self.dwnd).floor() == total {
            self.cwnd_loss += step;
            coasted += 1;
        }
        if coasted > 0 {
            // A round boundary in the ACK before forgot the round's RTT;
            // the first of these restores it.
            self.pkts_acked(tp, ack);
        }
        coasted
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        ((f64::from(tp.cwnd) * (1.0 - BETA)) as u32).max(2)
    }

    fn on_loss(&mut self, tp: &mut Transport, kind: LossKind, _now: f64) {
        match kind {
            LossKind::Timeout => {
                // Loss window restarts from one packet; the delay window is
                // discarded with the transfer state.
                self.cwnd_loss = 1.0;
                self.dwnd = 0.0;
                self.rounds.reset();
                self.round_min_rtt = f64::INFINITY;
            }
            LossKind::FastRetransmit => {
                // dwnd = (win·(1−β) − cwnd/2)⁺ per the CTCP paper.
                let win = self.cwnd_loss + self.dwnd;
                self.cwnd_loss /= 2.0;
                self.dwnd = (win * (1.0 - BETA) - self.cwnd_loss).max(0.0);
                self.sync_total(tp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one emulated RTT round: the server sends `cwnd` packets, all
    /// are ACKed individually with the given RTT sample.
    fn one_round(cc: &mut Ctcp, tp: &mut Transport, now: f64, rtt: f64) {
        let w = tp.cwnd;
        tp.snd_nxt += u64::from(w);
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack { now, acked: 1, rtt };
            cc.pkts_acked(tp, &ack);
            cc.cong_avoid(tp, &ack);
        }
    }

    fn enter_avoidance(cc: &mut Ctcp, tp: &mut Transport, cwnd: u32) {
        tp.cwnd = cwnd;
        tp.ssthresh = cwnd;
        cc.cwnd_loss = f64::from(cwnd);
        cc.dwnd = 0.0;
    }

    #[test]
    fn beta_is_half() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        assert_eq!(cc.ssthresh(&tp), 256);
    }

    #[test]
    fn grows_faster_than_reno_at_large_windows() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 256);
        let start = tp.cwnd;
        let mut now = 0.0;
        for _ in 0..6 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
        }
        let growth = tp.cwnd - start;
        // RENO would add 6; the binomial delay window adds ~α·win^0.75 ≈ 8
        // per round on an uncongested path.
        assert!(growth > 20, "compound growth {growth} must beat RENO's 6");
    }

    #[test]
    fn reno_equivalent_below_low_window() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 20);
        let mut now = 0.0;
        for _ in 0..5 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
        }
        assert_eq!(tp.cwnd, 25, "below win=41 CTCP is RENO");
    }

    #[test]
    fn v2_delay_window_drains_on_rtt_increase() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 256);
        let mut now = 0.0;
        for _ in 0..5 {
            one_round(&mut cc, &mut tp, now, 0.8);
            now += 0.8;
        }
        let dwnd_before = cc.dwnd();
        assert!(dwnd_before > 10.0);
        for _ in 0..4 {
            one_round(&mut cc, &mut tp, now, 1.0); // RTT step: queueing signal
            now += 1.0;
        }
        assert!(
            cc.dwnd() < dwnd_before / 2.0,
            "v2 dwnd must collapse when diff exceeds gamma: {} -> {}",
            dwnd_before,
            cc.dwnd()
        );
    }

    #[test]
    fn v1_keeps_growing_through_rtt_step() {
        let mut cc = Ctcp::v1();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 256);
        let mut now = 0.0;
        for _ in 0..5 {
            one_round(&mut cc, &mut tp, now, 0.8);
            now += 0.8;
        }
        let dwnd_before = cc.dwnd();
        for _ in 0..4 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
        }
        assert!(
            cc.dwnd() > dwnd_before,
            "v1's smoothed estimator must not register a 200 ms step within \
             a few rounds: {} -> {}",
            dwnd_before,
            cc.dwnd()
        );
    }

    #[test]
    fn timeout_resets_both_components() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 256);
        one_round(&mut cc, &mut tp, 0.0, 1.0);
        cc.on_loss(&mut tp, LossKind::Timeout, 1.0);
        assert_eq!(cc.dwnd(), 0.0);
        assert_eq!(cc.cwnd_loss, 1.0);
    }

    #[test]
    fn fast_retransmit_halves_total_window() {
        let mut cc = Ctcp::v2();
        let mut tp = Transport::new(1460);
        enter_avoidance(&mut cc, &mut tp, 100);
        cc.dwnd = 60.0;
        cc.cwnd_loss = 40.0;
        cc.on_loss(&mut tp, LossKind::FastRetransmit, 1.0);
        let total = cc.cwnd_loss + cc.dwnd;
        assert!(
            (total - 50.0).abs() < 1.0,
            "total window halves, got {total}"
        );
    }
}
