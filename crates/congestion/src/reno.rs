//! RENO: the traditional AIMD congestion avoidance algorithm (Jacobson '88,
//! RFC 5681). The paper uses "RENO" for the congestion avoidance component
//! shared by Reno, NewReno and SACK.
//!
//! Window growth function: `w(n) = w(0) + n` (one packet per RTT).
//! Multiplicative decrease parameter: `β = 0.5`.

use crate::transport::{Ack, CongestionControl, Transport};

/// The standard Additive-Increase-Multiplicative-Decrease algorithm.
#[derive(Debug, Clone, Default)]
pub struct Reno {
    _private: (),
}

impl Reno {
    /// Creates a RENO controller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "RENO"
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        let mut acked = ack.acked;
        if tp.in_slow_start() {
            acked = tp.slow_start(acked);
            if acked == 0 {
                return;
            }
        }
        tp.cong_avoid_ai(tp.cwnd, acked);
    }

    fn coast(&mut self, tp: &mut Transport, _ack: &Ack, left: u64) -> u64 {
        tp.coast(left, |tp| Some(tp.cwnd))
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        (tp.cwnd / 2).max(2)
    }
}

/// RENO's ssthresh rule, exported because several delay-based algorithms
/// (VEGAS, WESTWOOD+ fallback paths) reuse it, exactly as Linux modules
/// reuse `tcp_reno_ssthresh`.
pub fn reno_ssthresh(tp: &Transport) -> u32 {
    (tp.cwnd / 2).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    fn drive_one_round(cc: &mut Reno, tp: &mut Transport, rtt: f64, now: f64) {
        let w = tp.cwnd;
        for _ in 0..w {
            tp.snd_una += 1;
            let ack = Ack { now, acked: 1, rtt };
            cc.pkts_acked(tp, &ack);
            cc.cong_avoid(tp, &ack);
        }
    }

    #[test]
    fn linear_growth_in_congestion_avoidance() {
        let mut cc = Reno::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.ssthresh = 50;
        for round in 0..10 {
            drive_one_round(&mut cc, &mut tp, 1.0, round as f64);
        }
        assert_eq!(tp.cwnd, 110, "one packet per RTT over ten RTTs");
    }

    #[test]
    fn beta_is_half() {
        let mut cc = Reno::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 512;
        assert_eq!(cc.ssthresh(&tp), 256);
        tp.cwnd = 3;
        assert_eq!(cc.ssthresh(&tp), 2, "floor of 2 packets");
    }

    #[test]
    fn slow_start_then_avoidance_transition() {
        let mut cc = Reno::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 4;
        tp.ssthresh = 8;
        // 4 ACKs double to 8, which hits ssthresh; the leftover ACKed
        // packets spill into linear growth.
        for _ in 0..4 {
            let ack = Ack {
                now: 0.0,
                acked: 1,
                rtt: 1.0,
            };
            cc.cong_avoid(&mut tp, &ack);
        }
        assert_eq!(tp.cwnd, 8);
        assert!(!tp.in_slow_start());
    }

    #[test]
    fn aggregate_ack_spills_from_slow_start_into_avoidance() {
        let mut cc = Reno::new();
        let mut tp = Transport::new(1460);
        tp.cwnd = 6;
        tp.ssthresh = 8;
        let ack = Ack {
            now: 0.0,
            acked: 10,
            rtt: 1.0,
        };
        cc.cong_avoid(&mut tp, &ack);
        // 2 packets consumed reaching ssthresh=8, remaining 8 accumulate
        // toward linear growth: 8 >= w(8) adds exactly one packet.
        assert_eq!(tp.cwnd, 9);
    }
}
