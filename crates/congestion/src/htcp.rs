//! H-TCP (Leith & Shorten, PFLDNet'04): increase grows quadratically with
//! the time elapsed since the last congestion event.
//!
//! Port of `net/ipv4/tcp_htcp.c`. Per RTT the window grows by
//! `2·(1−β)·α(Δ)` packets with `α(Δ) = 1 + 10(Δ−Δ_L) + ((Δ−Δ_L)/2)²`
//! (seconds, `Δ_L = 1 s`) and `β = RTT_min / RTT_max` clamped to
//! `[0.5, 0.8]` — the RTT-ratio-dependent multiplicative decrease the paper
//! highlights in §III-B.

use crate::transport::{Ack, CongestionControl, LossKind, Transport};

/// `ALPHA_BASE`: α = 1 inside the low-speed regime.
const ALPHA_BASE: f64 = 1.0;
/// Lower bound on β (`BETA_MIN = 0.5`).
const BETA_MIN: f64 = 0.5;
/// Upper bound on β (`BETA_MAX = 0.8` — kernel stores 102/128).
const BETA_MAX: f64 = 0.8;
/// Low-speed regime duration `Δ_L` in seconds.
const DELTA_L: f64 = 1.0;

/// H-TCP congestion avoidance.
#[derive(Debug, Clone)]
pub struct Htcp {
    alpha: f64,
    beta: f64,
    /// Time of the last congestion event, seconds.
    last_cong: f64,
    /// Minimum and maximum RTT observed since the last congestion event.
    min_rtt: f64,
    max_rtt: f64,
    /// Set once the first congestion event has happened (`modeswitch`):
    /// before it H-TCP stays in its low-speed RENO-like regime.
    mode_switch: bool,
}

impl Default for Htcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Htcp {
    /// Creates an H-TCP controller with kernel-default parameters.
    pub fn new() -> Self {
        Htcp {
            alpha: ALPHA_BASE,
            beta: BETA_MIN,
            last_cong: 0.0,
            min_rtt: f64::INFINITY,
            max_rtt: 0.0,
            mode_switch: false,
        }
    }

    /// `htcp_alpha_update`: quadratic ramp after Δ_L seconds without loss,
    /// scaled by `2(1−β)` so that average throughput matches an AIMD flow
    /// with the same β.
    fn alpha_at(&self, now: f64) -> f64 {
        let diff = (now - self.last_cong).max(0.0);
        let mut factor = ALPHA_BASE;
        if diff > DELTA_L {
            let d = diff - DELTA_L;
            factor = 1.0 + 10.0 * d + (d / 2.0) * (d / 2.0);
        }
        (2.0 * factor * (1.0 - self.beta)).max(ALPHA_BASE)
    }

    /// Growth by α packets per RTT: one packet per `cwnd/α` ACKs.
    fn acks_per_increment(&self, cwnd: u32) -> u32 {
        (f64::from(cwnd) / self.alpha).max(1.0) as u32
    }

    /// `htcp_beta_update`: β = RTTmin/RTTmax clamped to [0.5, 0.8], active
    /// only after the first congestion event.
    fn beta_update(&mut self) {
        if self.mode_switch && self.min_rtt.is_finite() && self.max_rtt > 0.0 {
            self.beta = (self.min_rtt / self.max_rtt).clamp(BETA_MIN, BETA_MAX);
        } else {
            self.beta = BETA_MIN;
            self.mode_switch = true;
        }
    }

    /// Current β, exposed for tests.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl CongestionControl for Htcp {
    fn name(&self) -> &'static str {
        "HTCP"
    }

    fn pkts_acked(&mut self, _tp: &mut Transport, ack: &Ack) {
        if ack.rtt <= 0.0 {
            return;
        }
        if ack.rtt < self.min_rtt {
            self.min_rtt = ack.rtt;
        }
        if ack.rtt > self.max_rtt {
            self.max_rtt = ack.rtt;
        }
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        let mut acked = ack.acked;
        if tp.in_slow_start() {
            acked = tp.slow_start(acked);
            if acked == 0 {
                return;
            }
        }
        self.alpha = self.alpha_at(ack.now);
        tp.cong_avoid_ai(self.acks_per_increment(tp.cwnd), acked);
    }

    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        // α depends on the instant: the ACK before set it or ended slow start.
        let current = self.alpha == self.alpha_at(ack.now);
        tp.coast(left, |tp| current.then(|| self.acks_per_increment(tp.cwnd)))
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        self.beta_update();
        ((f64::from(tp.cwnd) * self.beta) as u32).max(2)
    }

    fn on_loss(&mut self, _tp: &mut Transport, _kind: LossKind, now: f64) {
        self.last_cong = now;
        self.min_rtt = f64::INFINITY;
        self.max_rtt = 0.0;
        self.alpha = ALPHA_BASE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(cc: &mut Htcp, tp: &mut Transport, now: f64, rtt: f64) {
        let w = tp.cwnd;
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack { now, acked: 1, rtt };
            cc.pkts_acked(tp, &ack);
            cc.cong_avoid(tp, &ack);
        }
    }

    #[test]
    fn beta_is_rtt_ratio_clamped() {
        let mut cc = Htcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        // First loss: mode switch, β = 0.5.
        assert_eq!(cc.ssthresh(&tp), 50);
        // With RTTs 0.8/1.0 observed, β = 0.8.
        cc.pkts_acked(
            &mut tp,
            &Ack {
                now: 0.0,
                acked: 1,
                rtt: 0.8,
            },
        );
        cc.pkts_acked(
            &mut tp,
            &Ack {
                now: 0.0,
                acked: 1,
                rtt: 1.0,
            },
        );
        assert_eq!(cc.ssthresh(&tp), 80);
        assert!((cc.beta() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn beta_clamps_to_point_eight_on_constant_rtt() {
        let mut cc = Htcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let _ = cc.ssthresh(&tp); // mode switch
        cc.pkts_acked(
            &mut tp,
            &Ack {
                now: 0.0,
                acked: 1,
                rtt: 1.0,
            },
        );
        // min = max → ratio 1.0 → clamped to 0.8 (environment A's fingerprint).
        let ss = cc.ssthresh(&tp);
        assert_eq!(ss, 409);
    }

    #[test]
    fn growth_accelerates_quadratically_after_a_second() {
        let mut cc = Htcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 200;
        tp.ssthresh = 100;
        cc.on_loss(&mut tp, LossKind::Timeout, 0.0);
        let mut deltas = Vec::new();
        for round in 0..10 {
            let now = round as f64; // 1-second RTTs
            let before = tp.cwnd;
            one_round(&mut cc, &mut tp, now, 1.0);
            deltas.push(tp.cwnd - before);
        }
        // α(Δ=0..1) = base, then 1+10(Δ−1)+((Δ−1)/2)² kicks in.
        assert!(deltas[0] <= 2, "low-speed regime first, got {:?}", deltas);
        assert!(
            deltas[9] > deltas[4] && deltas[4] > deltas[1],
            "quadratic ramp expected, got {deltas:?}"
        );
        let expected_late = 2.0 * (1.0 + 10.0 * 8.0 + 16.0) * (1.0 - cc.beta());
        let got = f64::from(deltas[9]);
        assert!(
            (got - expected_late).abs() / expected_late < 0.35,
            "round 10 growth {got} vs analytic {expected_late}"
        );
    }

    #[test]
    fn loss_resets_the_ramp() {
        let mut cc = Htcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.ssthresh = 50;
        one_round(&mut cc, &mut tp, 10.0, 1.0);
        let fast = tp.cwnd - 100;
        assert!(fast > 20, "10 s after loss the ramp is steep: {fast}");
        cc.on_loss(&mut tp, LossKind::Timeout, 10.0);
        tp.cwnd = 100;
        tp.cwnd_cnt = 0;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp, 10.5, 1.0);
        assert!(tp.cwnd - before <= 2, "ramp must restart after loss");
    }
}
