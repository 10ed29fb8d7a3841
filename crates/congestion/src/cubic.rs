//! CUBIC (Ha, Rhee, Xu, 2008): the Linux default since kernel 2.6.19.
//!
//! Port of `net/ipv4/tcp_cubic.c`. The window grows as a cubic function of
//! the time elapsed since the last loss: `W(t) = C·(t−K)³ + W_max` with
//! `K = ∛(W_max·β_decrease/C)`, independent of the RTT, plus a
//! "TCP-friendly region" that keeps CUBIC at least as fast as an
//! AIMD(1, β) flow.
//!
//! The paper distinguishes two deployed versions (§III-A):
//!
//! * **CUBIC v1** — kernels ≤ 2.6.25 — multiplicative decrease
//!   `β = 819/1024 ≈ 0.8`;
//! * **CUBIC v2** — kernels ≥ 2.6.26 — multiplicative decrease
//!   `β = 717/1024 ≈ 0.7` (and the TCP-friendly window recomputed for the
//!   new β).
//!
//! Kernel fixed-point time (`BICTCP_HZ`) is replaced by `f64` seconds; the
//! cubic coefficient `C = 0.4` and all observable quotients are identical.

use crate::transport::{Ack, CongestionControl, LossKind, Transport};

/// The cubic coefficient `C` (kernel `bic_scale = 41`, i.e. 41·10/1024).
const C: f64 = 0.4;
/// `fast_convergence` module parameter (enabled by default).
const FAST_CONVERGENCE: bool = true;
/// `tcp_friendliness` module parameter (enabled by default).
const TCP_FRIENDLINESS: bool = true;

/// Which deployed CUBIC generation to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubicVersion {
    /// Linux ≤ 2.6.25, β ≈ 0.8.
    V1,
    /// Linux ≥ 2.6.26, β ≈ 0.7.
    V2,
}

/// CUBIC congestion avoidance.
#[derive(Debug, Clone)]
pub struct Cubic {
    version: CubicVersion,
    /// Fixed-point β numerator over 1024, matching the kernel constants.
    beta_scaled: u64,
    cnt: u32,
    last_max_cwnd: u32,
    last_cwnd: u32,
    last_time: f64,
    origin_point: u32,
    k: f64,
    delay_min: f64,
    epoch_start: Option<f64>,
    ack_cnt: u64,
    tcp_cwnd: u32,
}

impl Cubic {
    /// CUBIC as shipped in kernels up to 2.6.25 (β ≈ 0.8).
    pub fn v1() -> Self {
        Self::with_version(CubicVersion::V1)
    }

    /// CUBIC as shipped in kernels from 2.6.26 on (β ≈ 0.7).
    pub fn v2() -> Self {
        Self::with_version(CubicVersion::V2)
    }

    /// Creates the requested CUBIC generation.
    pub fn with_version(version: CubicVersion) -> Self {
        Cubic {
            version,
            beta_scaled: match version {
                CubicVersion::V1 => 819,
                CubicVersion::V2 => 717,
            },
            cnt: 0,
            last_max_cwnd: 0,
            last_cwnd: 0,
            last_time: 0.0,
            origin_point: 0,
            k: 0.0,
            delay_min: f64::INFINITY,
            epoch_start: None,
            ack_cnt: 0,
            tcp_cwnd: 0,
        }
    }

    fn beta(&self) -> f64 {
        self.beta_scaled as f64 / 1024.0
    }

    /// `bictcp_reset`: wipe the whole epoch (runs on TCP_CA_Loss).
    fn reset(&mut self) {
        let version = self.version;
        *self = Cubic::with_version(version);
    }

    /// `cnt`, while the kernel's rate limit on recomputing it holds
    /// (HZ/32 ≈ 31 ms, lifted when the window moved).
    fn fresh_cnt(&self, cwnd: u32, now: f64) -> Option<u32> {
        let fresh = self.last_cwnd == cwnd && (now - self.last_time) <= 1.0 / 32.0;
        fresh.then_some(self.cnt)
    }

    /// `bictcp_update`: compute `cnt`, the number of ACKs per one-packet
    /// window increment.
    fn update(&mut self, cwnd: u32, acked: u32, now: f64) {
        self.ack_cnt += u64::from(acked);
        if self.fresh_cnt(cwnd, now).is_some() {
            return;
        }
        self.last_cwnd = cwnd;
        self.last_time = now;

        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            self.ack_cnt = u64::from(acked);
            self.tcp_cwnd = cwnd;
            if self.last_max_cwnd <= cwnd {
                self.k = 0.0;
                self.origin_point = cwnd;
            } else {
                self.k = (f64::from(self.last_max_cwnd - cwnd) / C).cbrt();
                self.origin_point = self.last_max_cwnd;
            }
        }

        // Elapsed time on the cubic curve; the kernel adds the propagation
        // delay (`dMin`) to look one RTT ahead.
        let dmin = if self.delay_min.is_finite() {
            self.delay_min
        } else {
            0.0
        };
        let t = now + dmin - self.epoch_start.unwrap_or(now);
        let offs = t - self.k;
        let target = f64::from(self.origin_point) + C * offs * offs * offs;

        let target_pkts = target.floor();
        if target_pkts > f64::from(cwnd) {
            let gap = (target_pkts - f64::from(cwnd)).max(1.0);
            self.cnt = (f64::from(cwnd) / gap).max(1.0) as u32;
        } else {
            self.cnt = 100 * cwnd; // very small increment into the plateau
        }

        // First epoch of the connection: ramp comparable to slow start.
        if self.last_max_cwnd == 0 && self.cnt > 20 {
            self.cnt = 20;
        }

        if TCP_FRIENDLINESS {
            // Estimate of the window an AIMD(1, β) flow would have: W_est
            // grows by 3(1−β)/(1+β) packets per RTT, implemented exactly as
            // the kernel does with an ACK budget `delta`.
            let beta = self.beta();
            let delta = (f64::from(cwnd) * (1.0 + beta) / (3.0 * (1.0 - beta))).max(1.0) as u64;
            while self.ack_cnt > delta {
                self.ack_cnt -= delta;
                self.tcp_cwnd += 1;
            }
            if self.tcp_cwnd > cwnd {
                let friendly_gap = self.tcp_cwnd - cwnd;
                let max_cnt = cwnd / friendly_gap;
                if self.cnt > max_cnt {
                    self.cnt = max_cnt;
                }
            }
        }

        self.cnt = self.cnt.max(2);
    }

    /// Current distance `K` (seconds) to the curve's inflection point;
    /// exposed for tests and trace annotation.
    pub fn k_seconds(&self) -> f64 {
        self.k
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        match self.version {
            CubicVersion::V1 => "CUBIC_v1",
            CubicVersion::V2 => "CUBIC_v2",
        }
    }

    fn pkts_acked(&mut self, _tp: &mut Transport, ack: &Ack) {
        if ack.rtt > 0.0 && ack.rtt < self.delay_min {
            self.delay_min = ack.rtt;
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
        self.update(tp.cwnd, acked, ack.now);
        tp.cong_avoid_ai(self.cnt, acked);
    }

    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        // Past slow start `update` counts every ACK, and only then looks
        // at its rate limit.
        let counted = !tp.in_slow_start();
        let coasted = tp.coast(left, |tp| self.fresh_cnt(tp.cwnd, ack.now));
        self.ack_cnt += if counted { coasted } else { 0 };
        coasted
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        // `bictcp_recalc_ssthresh`.
        self.epoch_start = None;
        let cwnd = u64::from(tp.cwnd);
        if tp.cwnd < self.last_max_cwnd && FAST_CONVERGENCE {
            self.last_max_cwnd = ((cwnd * (1024 + self.beta_scaled)) / 2048) as u32;
        } else {
            self.last_max_cwnd = tp.cwnd;
        }
        (((cwnd * self.beta_scaled) / 1024) as u32).max(2)
    }

    fn on_loss(&mut self, _tp: &mut Transport, kind: LossKind, _now: f64) {
        if kind == LossKind::Timeout {
            // Reset the epoch but keep the W_max anchor: the paper's
            // measured CUBIC traces (Fig. 3(e)(f)) show the post-timeout
            // window following the concave cubic curve back toward the
            // pre-timeout maximum, which requires `last_max_cwnd` to
            // survive. ARCHITECTURE.md lists this substitution
            // ("Substitutions"); see also the matching note in `bic.rs`.
            let keep = self.last_max_cwnd;
            self.reset();
            self.last_max_cwnd = keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(cc: &mut Cubic, tp: &mut Transport, now: f64, rtt: f64) {
        let w = tp.cwnd;
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack { now, acked: 1, rtt };
            cc.pkts_acked(tp, &ack);
            cc.cong_avoid(tp, &ack);
        }
    }

    #[test]
    fn v1_beta_is_point_eight() {
        let mut cc = Cubic::v1();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let beta = cc.ssthresh(&tp) as f64 / 512.0;
        assert!((beta - 0.7998).abs() < 0.002, "beta was {beta}");
    }

    #[test]
    fn v2_beta_is_point_seven() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let beta = cc.ssthresh(&tp) as f64 / 512.0;
        assert!((beta - 0.70).abs() < 0.002, "beta was {beta}");
    }

    #[test]
    fn growth_is_rtt_independent() {
        // CUBIC's defining property: the window is a function of wall-clock
        // time since the epoch, not of the RTT count. Two flows with RTTs
        // 0.5s and 1.0s reach (nearly) the same window after 20 seconds.
        let run = |rtt: f64| {
            let mut cc = Cubic::v2();
            let mut tp = Transport::new(1460);
            tp.cwnd = 512;
            tp.ssthresh = cc.ssthresh(&tp);
            tp.cwnd = tp.ssthresh;
            let mut now = 0.0;
            while now < 20.0 {
                one_round(&mut cc, &mut tp, now, rtt);
                now += rtt;
            }
            tp.cwnd
        };
        let fast = run(0.5);
        let slow = run(1.0);
        let ratio = f64::from(fast) / f64::from(slow);
        assert!(
            (0.85..=1.15).contains(&ratio),
            "cwnd after 20 s should not depend on RTT: {fast} vs {slow}"
        );
    }

    #[test]
    fn concave_then_convex_around_last_max() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp); // last_max = 512, ssthresh = 358
        tp.cwnd = tp.ssthresh;
        let mut now = 0.0;
        let mut deltas = Vec::new();
        let mut prev = tp.cwnd;
        for _ in 0..30 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
            deltas.push(tp.cwnd as i64 - prev as i64);
            prev = tp.cwnd;
        }
        // Concave region: early growth outpaces the growth right before
        // reaching the plateau at last_max.
        let early: i64 = deltas[..3].iter().sum();
        let mid_idx = deltas.iter().position(|&d| d == 0).unwrap_or(10).min(25);
        let near_plateau: i64 = deltas[mid_idx.saturating_sub(3)..mid_idx].iter().sum();
        assert!(
            early >= near_plateau,
            "growth should decelerate approaching W_max: early {early}, plateau {near_plateau}"
        );
        // And the window eventually probes beyond the old maximum (convex).
        assert!(
            tp.cwnd > 512,
            "convex region must exceed the old W_max, got {}",
            tp.cwnd
        );
    }

    #[test]
    fn k_matches_cube_root_formula() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp);
        tp.cwnd = tp.ssthresh;
        // One ACK in avoidance state arms the epoch.
        tp.snd_una += 1;
        let ack = Ack {
            now: 0.0,
            acked: 1,
            rtt: 1.0,
        };
        cc.pkts_acked(&mut tp, &ack);
        cc.cong_avoid(&mut tp, &ack);
        let expected = ((512.0 - f64::from(tp.cwnd)) / C).cbrt();
        assert!(
            (cc.k_seconds() - expected).abs() < 0.05,
            "K = {} expected {expected}",
            cc.k_seconds()
        );
    }

    #[test]
    fn timeout_resets_epoch_but_keeps_the_anchor() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let _ = cc.ssthresh(&tp);
        assert_eq!(cc.last_max_cwnd, 512);
        cc.on_loss(&mut tp, LossKind::Timeout, 3.0);
        assert_eq!(cc.last_max_cwnd, 512, "W_max anchor survives the timeout");
        assert!(cc.epoch_start.is_none());
        assert!(
            !cc.delay_min.is_finite(),
            "delay samples reset with the epoch"
        );
    }

    #[test]
    fn post_timeout_recovery_plateaus_at_w_max_then_probes() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp);
        cc.on_loss(&mut tp, LossKind::Timeout, 0.0);
        tp.cwnd = tp.ssthresh; // 358 after slow start
        let mut now = 1.0;
        let mut hit_plateau = false;
        for _ in 0..20 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
            if (500..=524).contains(&tp.cwnd) {
                hit_plateau = true;
            }
        }
        assert!(hit_plateau, "the concave region must level off near 512");
        assert!(tp.cwnd > 512, "the convex region must then probe beyond");
    }

    #[test]
    fn fast_convergence_shrinks_history() {
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let _ = cc.ssthresh(&tp);
        tp.cwnd = 400;
        let _ = cc.ssthresh(&tp);
        let expected = (400 * (1024 + 717)) / 2048;
        assert_eq!(cc.last_max_cwnd, expected as u32);
    }

    #[test]
    fn tcp_friendly_floor_matches_aimd_rate() {
        // In the TCP-friendly region (tiny C contribution) CUBIC v2 grows at
        // least at 3(1-β)/(1+β) ≈ 0.53 packets per RTT.
        let mut cc = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = cc.ssthresh(&tp);
        tp.cwnd = tp.ssthresh;
        let start = tp.cwnd;
        let mut now = 0.0;
        for _ in 0..10 {
            one_round(&mut cc, &mut tp, now, 1.0);
            now += 1.0;
        }
        let growth = tp.cwnd - start;
        assert!(growth >= 4, "ten RTTs of friendly growth, got {growth}");
    }

    #[test]
    fn versions_share_the_growth_engine_but_not_beta() {
        let mut v1 = Cubic::v1();
        let mut v2 = Cubic::v2();
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        assert!(v1.ssthresh(&tp) > v2.ssthresh(&tp));
        assert_eq!(v1.name(), "CUBIC_v1");
        assert_eq!(v2.name(), "CUBIC_v2");
    }
}
