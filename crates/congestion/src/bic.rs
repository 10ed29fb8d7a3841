//! BIC: Binary Increase Congestion control (Xu, Harfoush, Rhee, INFOCOM'04),
//! the Linux default from kernel 2.6.8 to 2.6.18.
//!
//! Port of `net/ipv4/tcp_bic.c` with the kernel's default module parameters.
//! Growth is a binary search between the current window and the window at
//! the last loss (`last_max_cwnd`), switching to linear "max probing" above
//! it. The multiplicative decrease parameter is `β = 819/1024 ≈ 0.8` for
//! windows of at least `low_window = 14` packets and RENO's 0.5 below —
//! exactly the behaviour the paper cites in §III-B.

use crate::transport::{Ack, CongestionControl, LossKind, Transport};

/// Kernel fixed-point scale for β (`BICTCP_BETA_SCALE`).
const BETA_SCALE: u64 = 1024;
/// `beta` module parameter: β = 819/1024 ≈ 0.8.
const BETA: u64 = 819;
/// `max_increment`: cap on the additive increase, packets per RTT.
const MAX_INCREMENT: u32 = 16;
/// `low_window`: below this window BIC behaves like RENO.
const LOW_WINDOW: u32 = 14;
/// `smooth_part`: RTTs spent in the "plateau" just below `last_max_cwnd`.
const SMOOTH_PART: u32 = 20;
/// `BICTCP_B`: the binary search changes the window by `dist/B` per step.
const BICTCP_B: u32 = 4;
/// `fast_convergence` module parameter (enabled by default).
const FAST_CONVERGENCE: bool = true;

/// Binary Increase Congestion control.
#[derive(Debug, Clone)]
pub struct Bic {
    cnt: u32,
    last_max_cwnd: u32,
    last_cwnd: u32,
    last_time: f64,
    epoch_start: Option<f64>,
}

impl Default for Bic {
    fn default() -> Self {
        Self::new()
    }
}

impl Bic {
    /// Creates a BIC controller with the kernel's default parameters.
    pub fn new() -> Self {
        Bic {
            cnt: 0,
            last_max_cwnd: 0,
            last_cwnd: 0,
            last_time: 0.0,
            epoch_start: None,
        }
    }

    /// `cnt`, while the kernel's rate limit on recomputing it holds
    /// (HZ/32 ≈ 31 ms, lifted when the window moved).
    fn fresh_cnt(&self, cwnd: u32, now: f64) -> Option<u32> {
        let fresh = self.last_cwnd == cwnd && (now - self.last_time) <= 1.0 / 32.0;
        fresh.then_some(self.cnt)
    }

    /// Compute `cnt` (ACKs per one-packet window increment), mirroring
    /// `bictcp_update`.
    fn update(&mut self, cwnd: u32, now: f64) {
        if self.fresh_cnt(cwnd, now).is_some() {
            return;
        }
        self.last_cwnd = cwnd;
        self.last_time = now;
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
        }

        if cwnd <= LOW_WINDOW {
            self.cnt = cwnd; // RENO-equivalent growth
            return;
        }

        if cwnd < self.last_max_cwnd {
            // Binary search increase toward the last maximum.
            let dist = (self.last_max_cwnd - cwnd) / BICTCP_B;
            if dist > MAX_INCREMENT {
                self.cnt = cwnd / MAX_INCREMENT; // additive increase
            } else if dist <= 1 {
                self.cnt = (cwnd * SMOOTH_PART) / BICTCP_B; // binary search plateau
            } else {
                self.cnt = cwnd / dist; // binary search
            }
        } else {
            // Max probing above the last maximum: slow start (smoothed),
            // then linear.
            if cwnd < self.last_max_cwnd + BICTCP_B {
                self.cnt = (cwnd * SMOOTH_PART) / BICTCP_B;
            } else if cwnd < self.last_max_cwnd + MAX_INCREMENT * (BICTCP_B - 1) {
                self.cnt = (cwnd * (BICTCP_B - 1)) / (cwnd - self.last_max_cwnd);
            } else {
                self.cnt = cwnd / MAX_INCREMENT;
            }
        }

        // Initial epoch (no loss yet): keep growth at slow-start-ish rate.
        if self.last_max_cwnd == 0 && self.cnt > 20 {
            self.cnt = 20;
        }
        self.cnt = self.cnt.max(2);
    }
}

impl CongestionControl for Bic {
    fn name(&self) -> &'static str {
        "BIC"
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        let mut acked = ack.acked;
        if tp.in_slow_start() {
            acked = tp.slow_start(acked);
            if acked == 0 {
                return;
            }
        }
        self.update(tp.cwnd, ack.now);
        tp.cong_avoid_ai(self.cnt, acked);
    }

    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        tp.coast(left, |tp| self.fresh_cnt(tp.cwnd, ack.now))
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        // `bictcp_recalc_ssthresh`.
        self.epoch_start = None;
        let cwnd = tp.cwnd;
        if cwnd < self.last_max_cwnd && FAST_CONVERGENCE {
            self.last_max_cwnd = ((cwnd as u64 * (BETA_SCALE + BETA)) / (2 * BETA_SCALE)) as u32;
        } else {
            self.last_max_cwnd = cwnd;
        }
        if cwnd <= LOW_WINDOW {
            (cwnd / 2).max(2)
        } else {
            (((cwnd as u64 * BETA) / BETA_SCALE) as u32).max(2)
        }
    }

    fn on_loss(&mut self, _tp: &mut Transport, kind: LossKind, _now: f64) {
        if kind == LossKind::Timeout {
            // Reset the epoch but keep the W_max anchor (`last_max_cwnd`,
            // already updated by `ssthresh`). The paper's measured traces
            // (Fig. 3(b)) show BIC's post-timeout growth binary-searching
            // toward the pre-timeout maximum, and Table III's ≥97% BIC vs
            // CUBIC separation requires it: with the anchor wiped, BIC and
            // CUBIC both fall into the identical 5%-per-RTT fresh-epoch
            // ramp and become indistinguishable. ARCHITECTURE.md lists this
            // with the other substitutions ("Substitutions").
            let keep = self.last_max_cwnd;
            *self = Bic::new();
            self.last_max_cwnd = keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(cc: &mut Bic, tp: &mut Transport, now: f64) {
        let w = tp.cwnd;
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack {
                now,
                acked: 1,
                rtt: 1.0,
            };
            cc.cong_avoid(tp, &ack);
        }
    }

    #[test]
    fn beta_is_point_eight_above_low_window() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let ss = cc.ssthresh(&tp);
        let beta = ss as f64 / 512.0;
        assert!((beta - 0.7998).abs() < 0.002, "beta was {beta}");
    }

    #[test]
    fn beta_is_half_below_low_window() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        assert_eq!(cc.ssthresh(&tp), 5);
    }

    #[test]
    fn binary_search_converges_to_last_max() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        // Simulate a loss at 512 to set history, then recover into CA.
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp);
        tp.cwnd = tp.ssthresh;
        let mut now = 0.0;
        let mut prev = tp.cwnd;
        for _ in 0..40 {
            one_round(&mut cc, &mut tp, now);
            now += 1.0;
            assert!(tp.cwnd >= prev, "BIC growth is monotone between losses");
            prev = tp.cwnd;
        }
        // The binary search approaches — and max probing may slightly
        // exceed — the previous maximum within a few tens of RTTs.
        assert!(
            tp.cwnd >= 500,
            "cwnd {} should approach last max 512",
            tp.cwnd
        );
    }

    #[test]
    fn growth_is_capped_at_max_increment_per_rtt() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let _ = cc.ssthresh(&tp); // last_max = 512
        tp.cwnd = 100; // far below last max -> additive increase phase
        tp.ssthresh = 50;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp, 0.0);
        let delta = tp.cwnd - before;
        assert!(
            delta <= MAX_INCREMENT,
            "per-RTT growth {delta} exceeds Smax"
        );
        assert!(
            delta >= MAX_INCREMENT / 2,
            "far from wmax BIC grows near Smax, got {delta}"
        );
    }

    #[test]
    fn fast_convergence_shrinks_history_on_consecutive_losses() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let _ = cc.ssthresh(&tp);
        assert_eq!(cc.last_max_cwnd, 512);
        tp.cwnd = 400; // second loss below previous max
        let _ = cc.ssthresh(&tp);
        // last_max = 400 * (1024+819)/2048 = 400 * 0.8999
        assert!(cc.last_max_cwnd < 400 && cc.last_max_cwnd > 350);
    }

    #[test]
    fn reno_equivalent_at_small_windows() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        tp.ssthresh = 5;
        one_round(&mut cc, &mut tp, 0.0);
        assert_eq!(tp.cwnd, 11, "below low_window BIC grows like RENO");
    }

    #[test]
    fn timeout_resets_epoch_but_keeps_the_anchor() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let ss = cc.ssthresh(&tp);
        assert!(ss > 400, "beta=0.8 decrease computed before the reset");
        cc.on_loss(&mut tp, LossKind::Timeout, 5.0);
        assert_eq!(cc.last_max_cwnd, 512, "W_max anchor survives the timeout");
        assert!(cc.epoch_start.is_none());
        assert_eq!(cc.cnt, 0);
    }

    #[test]
    fn post_timeout_growth_binary_searches_toward_w_max() {
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp);
        cc.on_loss(&mut tp, LossKind::Timeout, 0.0);
        tp.cwnd = tp.ssthresh; // slow start done
        let mut now = 1.0;
        let mut increments = Vec::new();
        let mut prev = tp.cwnd;
        for _ in 0..8 {
            one_round(&mut cc, &mut tp, now);
            now += 1.0;
            increments.push(tp.cwnd - prev);
            prev = tp.cwnd;
        }
        // Additive phase at Smax=16, decelerating as the window nears 512.
        assert!(increments[0] >= 14, "{increments:?}");
        let last = *increments.last().unwrap();
        assert!(
            last < increments[0],
            "binary search decelerates: {increments:?}"
        );
        assert!(
            tp.cwnd <= 520,
            "plateau near the old maximum, at {}",
            tp.cwnd
        );
    }

    #[test]
    fn fresh_epoch_growth_is_about_five_percent_per_rtt() {
        // After a timeout (history wiped) BIC grows with cnt=20, i.e. by
        // cwnd/20 packets per RTT.
        let mut cc = Bic::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 400;
        tp.ssthresh = 400;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp, 0.0);
        assert_eq!(tp.cwnd - before, before / 20);
    }
}
