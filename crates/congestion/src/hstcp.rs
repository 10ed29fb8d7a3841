//! HSTCP: HighSpeed TCP for large congestion windows (Floyd, RFC 3649).
//!
//! HSTCP generalizes RENO's AIMD to window-dependent parameters: per RTT
//! the window grows by `a(w)` packets and on loss it shrinks by the factor
//! `b(w)`, where `a` and `b` follow the RFC 3649 response function. For
//! `w ≤ 38` HSTCP is exactly RENO (`a = 1`, `b = 0.5`); at `w = 83000` it
//! reaches `a = 72`, `b = 0.1`. The multiplicative decrease parameter that
//! CAAI measures is `β(w) = 1 − b(w) ∈ [0.5, 0.9]`, matching §III-B of the
//! paper ("HSTCP sets β between 0.5 and 0.9 depending on w").
//!
//! Linux (`tcp_highspeed.c`) hard-codes a 73-row table generated from the
//! same response function; we evaluate the function directly — the values
//! agree with the table to within the table's own rounding.

use crate::transport::{Ack, CongestionControl, Transport};

/// Window below which HSTCP behaves exactly like RENO (RFC 3649 `Low_Window`).
const LOW_WINDOW: f64 = 38.0;
/// Design point: window at which the response function reaches its target.
const HIGH_WINDOW: f64 = 83000.0;
/// Decrease factor at the design point (RFC 3649 `High_Decrease`).
const HIGH_DECREASE: f64 = 0.1;
/// Loss rate at the design point: `High_P = 10⁻⁷`, folded into the `a(w)`
/// expression below via `p(w) = 0.078 / w^1.2`.
const P_COEFF: f64 = 0.078;
const P_EXP: f64 = 1.2;

/// Per-loss decrease factor `b(w)` from RFC 3649 §5.
pub fn b_of_w(w: f64) -> f64 {
    if w <= LOW_WINDOW {
        return 0.5;
    }
    let frac = (w.ln() - LOW_WINDOW.ln()) / (HIGH_WINDOW.ln() - LOW_WINDOW.ln());
    ((HIGH_DECREASE - 0.5) * frac + 0.5).clamp(HIGH_DECREASE, 0.5)
}

/// Per-RTT additive increase `a(w)` from RFC 3649 §5:
/// `a(w) = w² · p(w) · 2 · b(w) / (2 − b(w))` with `p(w) = 0.078/w^1.2`.
pub fn a_of_w(w: f64) -> f64 {
    if w <= LOW_WINDOW {
        return 1.0;
    }
    let b = b_of_w(w);
    let p = P_COEFF / w.powf(P_EXP);
    (w * w * p * 2.0 * b / (2.0 - b)).max(1.0)
}

/// Growth by `a(w)` packets per RTT: one packet per `w/a(w)` ACKs.
fn acks_per_increment(cwnd: u32) -> u32 {
    let w = f64::from(cwnd);
    (w / a_of_w(w)).max(1.0) as u32
}

/// HighSpeed TCP.
#[derive(Debug, Clone, Default)]
pub struct Hstcp {
    _private: (),
}

impl Hstcp {
    /// Creates an HSTCP controller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CongestionControl for Hstcp {
    fn name(&self) -> &'static str {
        "HSTCP"
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        let mut acked = ack.acked;
        if tp.in_slow_start() {
            acked = tp.slow_start(acked);
            if acked == 0 {
                return;
            }
        }
        tp.cong_avoid_ai(acks_per_increment(tp.cwnd), acked);
    }

    fn coast(&mut self, tp: &mut Transport, _ack: &Ack, left: u64) -> u64 {
        tp.coast(left, |tp| Some(acks_per_increment(tp.cwnd)))
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        let w = f64::from(tp.cwnd);
        let b = b_of_w(w);
        ((w * (1.0 - b)) as u32).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(cc: &mut Hstcp, tp: &mut Transport) {
        let w = tp.cwnd;
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack {
                now: 0.0,
                acked: 1,
                rtt: 1.0,
            };
            cc.cong_avoid(tp, &ack);
        }
    }

    #[test]
    fn reno_regime_below_low_window() {
        assert_eq!(a_of_w(10.0), 1.0);
        assert_eq!(b_of_w(10.0), 0.5);
        assert_eq!(a_of_w(38.0), 1.0);
    }

    #[test]
    fn response_function_hits_the_design_point() {
        let b = b_of_w(HIGH_WINDOW);
        assert!((b - HIGH_DECREASE).abs() < 1e-9);
        let a = a_of_w(HIGH_WINDOW);
        // RFC 3649 table gives a(83000) = 72 (to rounding: a ≈ 71.6).
        assert!((70.0..74.0).contains(&a), "a(83000) = {a}");
    }

    #[test]
    fn beta_at_512_matches_the_rfc_table_row() {
        let mut cc = Hstcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        let beta = cc.ssthresh(&tp) as f64 / 512.0;
        // b(512) ≈ 0.365 → β ≈ 0.635.
        assert!((beta - 0.635).abs() < 0.02, "beta(512) = {beta}");
    }

    #[test]
    fn growth_at_512_is_about_five_packets_per_rtt() {
        let mut cc = Hstcp::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        tp.ssthresh = 256;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp);
        let delta = tp.cwnd - before;
        assert!((4..=7).contains(&delta), "a(512) ≈ 5, grew by {delta}");
    }

    #[test]
    fn increase_is_monotone_in_window() {
        let mut prev = 0.0;
        for w in [50.0, 100.0, 500.0, 1000.0, 10_000.0, 83_000.0] {
            let a = a_of_w(w);
            assert!(a > prev, "a({w}) = {a} must exceed a at smaller windows");
            prev = a;
        }
    }

    #[test]
    fn decrease_is_monotone_in_window() {
        let mut prev = 0.51;
        for w in [39.0, 100.0, 500.0, 1000.0, 10_000.0, 83_000.0] {
            let b = b_of_w(w);
            assert!(b < prev, "b({w}) = {b} must shrink as windows grow");
            prev = b;
        }
    }
}
