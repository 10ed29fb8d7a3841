//! Scalable TCP — the paper's STCP (Kelly, CCR'03).
//!
//! Port of `net/ipv4/tcp_scalable.c`: the window grows by one packet per
//! `min(cwnd, 50)` ACKs — i.e. multiplicatively, by 2% per RTT once the
//! window exceeds 50 packets (the paper's "exponential window growth
//! function") — and shrinks by 1/8 on loss (`β = 0.875`).

use crate::transport::{Ack, CongestionControl, Transport};

/// `TCP_SCALABLE_AI_CNT`: ACKs per one-packet increment.
const AI_CNT: u32 = 50;
/// `TCP_SCALABLE_MD_SCALE`: decrease is `cwnd >> 3`.
const MD_SHIFT: u32 = 3;

/// Scalable TCP.
#[derive(Debug, Clone, Default)]
pub struct Scalable {
    _private: (),
}

impl Scalable {
    /// Creates a Scalable TCP controller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CongestionControl for Scalable {
    fn name(&self) -> &'static str {
        "STCP"
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        let mut acked = ack.acked;
        if tp.in_slow_start() {
            acked = tp.slow_start(acked);
            if acked == 0 {
                return;
            }
        }
        tp.cong_avoid_ai(tp.cwnd.min(AI_CNT), acked);
    }

    fn coast(&mut self, tp: &mut Transport, _ack: &Ack, left: u64) -> u64 {
        tp.coast(left, |tp| Some(tp.cwnd.min(AI_CNT)))
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        (tp.cwnd - (tp.cwnd >> MD_SHIFT)).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(cc: &mut Scalable, tp: &mut Transport) {
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
    fn beta_is_seven_eighths() {
        let mut cc = Scalable::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        assert_eq!(cc.ssthresh(&tp), 448);
    }

    #[test]
    fn growth_is_two_percent_per_rtt_at_large_windows() {
        let mut cc = Scalable::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 500;
        tp.ssthresh = 250;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp);
        assert_eq!(tp.cwnd - before, before / AI_CNT);
    }

    #[test]
    fn growth_compounds_exponentially() {
        let mut cc = Scalable::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.ssthresh = 50;
        for _ in 0..35 {
            one_round(&mut cc, &mut tp);
        }
        // 1.02^35 ≈ 2.0: the window should have doubled.
        assert!(
            (195..=210).contains(&tp.cwnd),
            "2%-per-RTT compounding expected ≈200, got {}",
            tp.cwnd
        );
    }

    #[test]
    fn reno_like_below_ai_cnt() {
        let mut cc = Scalable::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 20;
        tp.ssthresh = 10;
        let before = tp.cwnd;
        one_round(&mut cc, &mut tp);
        assert_eq!(tp.cwnd - before, 1, "below 50 packets growth is +1/RTT");
    }
}
