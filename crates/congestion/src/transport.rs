//! Shared sender-side transport state and the [`CongestionControl`] trait.
//!
//! The [`Transport`] struct mirrors the handful of `tcp_sock` fields that
//! Linux congestion control modules read and write (`snd_cwnd`,
//! `snd_ssthresh`, `snd_cwnd_cnt`, `snd_cwnd_clamp`, `snd_una`, `snd_nxt`),
//! plus the RTT estimates every delay-based algorithm consumes. Windows
//! sizes are counted in **packets** (maximum-segment-size units), exactly
//! the unit in which CAAI measures window traces.

use std::fmt;

/// Initial slow-start threshold: effectively infinite, as in Linux
/// (`TCP_INFINITE_SSTHRESH`). A fresh connection is in slow start until the
/// first loss establishes a real threshold.
pub const INFINITE_SSTHRESH: u32 = 0x7fff_ffff;

/// Sender-side transport state shared between the host TCP machinery (the
/// `caai-tcpsim` crate) and the pluggable congestion avoidance module.
#[derive(Debug, Clone, PartialEq)]
pub struct Transport {
    /// Congestion window in packets (`snd_cwnd`).
    pub cwnd: u32,
    /// Slow start threshold in packets (`snd_ssthresh`).
    pub ssthresh: u32,
    /// Linear-increase accumulator (`snd_cwnd_cnt`): counts ACKed packets
    /// toward the next one-packet window increment.
    pub cwnd_cnt: u32,
    /// Hard upper bound on the window (`snd_cwnd_clamp`), used to model
    /// send-buffer-limited servers ("Bounded Window" servers in §VII-B).
    pub cwnd_clamp: u32,
    /// Highest cumulatively ACKed sequence number, in packets (`snd_una`).
    pub snd_una: u64,
    /// Next sequence number to be sent, in packets (`snd_nxt`).
    pub snd_nxt: u64,
    /// Maximum segment size in bytes. The congestion avoidance algorithms
    /// themselves are MSS-agnostic (they count packets), but bandwidth-based
    /// algorithms (WESTWOOD+) need it to convert estimates.
    pub mss: u32,
    /// Limited-slow-start knob (RFC 3742; Linux `sysctl_tcp_max_ssthresh`):
    /// past this window, slow start grows by at most `max_ssthresh / 2`
    /// packets per RTT instead of doubling. `0` disables the limit
    /// (standard slow start).
    pub max_ssthresh: u32,
    /// Smoothed RTT estimate in seconds (EWMA with gain 1/8, RFC 6298).
    pub srtt: f64,
    /// Minimum RTT observed over the whole connection, in seconds.
    pub min_rtt: f64,
}

impl Transport {
    /// Creates transport state for a fresh connection with the given MSS.
    ///
    /// The initial window is 2 packets (RFC 2581; the CAAI paper notes the
    /// initial window does not affect identification, §V-A) and the
    /// slow-start threshold is infinite.
    pub fn new(mss: u32) -> Self {
        Transport {
            cwnd: 2,
            ssthresh: INFINITE_SSTHRESH,
            cwnd_cnt: 0,
            cwnd_clamp: u32::MAX,
            snd_una: 0,
            snd_nxt: 0,
            mss,
            max_ssthresh: 0,
            srtt: 0.0,
            min_rtt: f64::INFINITY,
        }
    }

    /// True while the connection is in the slow start state
    /// (`tcp_in_slow_start`: `snd_cwnd < snd_ssthresh`).
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Slow start (Linux `tcp_slow_start`): grow the window by one packet
    /// per newly ACKed packet, up to `ssthresh`. Returns the number of
    /// ACKed packets left over after reaching `ssthresh`, which the caller
    /// should feed to the congestion avoidance growth rule.
    ///
    /// When [`max_ssthresh`](Self::max_ssthresh) is set and the window has
    /// passed it, growth switches to **limited slow start** (RFC 3742):
    /// at most `max_ssthresh / 2` packets per RTT, via the same
    /// `snd_cwnd_cnt` accumulator Linux uses.
    pub fn slow_start(&mut self, acked: u32) -> u32 {
        if self.max_ssthresh > 0 && self.cwnd > self.max_ssthresh {
            let ceiling = self.ssthresh.min(self.cwnd_clamp);
            let cnt = (self.max_ssthresh / 2).max(1);
            self.cwnd_cnt = self.cwnd_cnt.saturating_add(cnt.saturating_mul(acked));
            while self.cwnd_cnt >= self.cwnd && self.cwnd < ceiling {
                self.cwnd_cnt -= self.cwnd;
                self.cwnd += 1;
            }
            if self.cwnd >= self.ssthresh {
                self.cwnd_cnt = 0;
            }
            return 0;
        }
        let target = self.cwnd.saturating_add(acked).min(self.ssthresh);
        let used = target - self.cwnd;
        self.cwnd = target.min(self.cwnd_clamp);
        acked - used
    }

    /// Linear window growth (Linux `tcp_cong_avoid_ai`): the window grows by
    /// one packet for every `w` ACKed packets, i.e. by `cwnd/w` packets per
    /// RTT. `w == cwnd` yields RENO's one-packet-per-RTT growth.
    pub fn cong_avoid_ai(&mut self, w: u32, acked: u32) {
        let w = w.max(1);
        if self.cwnd_cnt >= w {
            self.cwnd_cnt = 0;
            self.cwnd += 1;
        }
        self.cwnd_cnt += acked;
        if self.cwnd_cnt >= w {
            let delta = self.cwnd_cnt / w;
            self.cwnd_cnt -= delta * w;
            self.cwnd += delta;
        }
        self.cwnd = self.cwnd.min(self.cwnd_clamp);
    }

    /// The closed form of the steps that only count, for a controller
    /// whose `cong_avoid` is [`slow_start`](Self::slow_start), then
    /// [`cong_avoid_ai`](Self::cong_avoid_ai)`(w, acked)`: takes up to
    /// `left` one-packet ACKs and returns how many. In standard slow start
    /// each is `cwnd = min(cwnd + 1, cwnd_clamp)`, until `ssthresh`; past it
    /// the first `w − 1 − cwnd_cnt` are `cwnd_cnt += 1` (`w` is asked for
    /// only there, and may decline). None while the clamp pulls the window
    /// down, nor under limited slow start.
    pub fn coast(&mut self, left: u64, w: impl FnOnce(&Self) -> Option<u32>) -> u64 {
        let slow_start = self.in_slow_start();
        if self.cwnd > self.cwnd_clamp || (slow_start && self.max_ssthresh > 0) {
            return 0;
        }
        if slow_start {
            let room = u64::from(self.ssthresh.min(self.cwnd_clamp) - self.cwnd);
            // A clamp under `ssthresh` keeps the window in slow start for good.
            let pinned = self.cwnd_clamp < self.ssthresh;
            let k = if pinned { left } else { left.min(room) };
            self.cwnd += k.min(room) as u32;
            return k;
        }
        let Some(w) = w(self) else { return 0 };
        let k = left.min(u64::from((w.max(1) - 1).saturating_sub(self.cwnd_cnt)));
        self.cwnd_cnt += k as u32;
        k
    }

    /// Records an RTT sample into the smoothed estimate and the connection
    /// minimum (RFC 6298 smoothing with gain 1/8).
    pub fn observe_rtt(&mut self, rtt: f64) {
        if rtt <= 0.0 {
            return;
        }
        if self.srtt == 0.0 {
            self.srtt = rtt;
        } else {
            self.srtt += (rtt - self.srtt) / 8.0;
        }
        if rtt < self.min_rtt {
            self.min_rtt = rtt;
        }
    }
}

/// [`Transport::observe_rtt`] of one sample, `times` over. A fold that
/// leaves `(srtt, min_rtt)` as it found them is followed only by folds that
/// do, so at such an estimate (`settled`, kept for the train) none is taken:
/// a converged sample costs a comparison, not the serial `srtt` chain.
fn fold_rtt(tp: &mut Transport, rtt: f64, times: u64, settled: &mut Option<(u64, u64)>) {
    for _ in 0..times {
        let found = Some((tp.srtt.to_bits(), tp.min_rtt.to_bits()));
        if *settled == found {
            return;
        }
        tp.observe_rtt(rtt);
        if found == Some((tp.srtt.to_bits(), tp.min_rtt.to_bits())) {
            *settled = found;
        }
    }
}

/// A cumulative acknowledgement delivered to the congestion controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ack {
    /// Simulation time at which the ACK arrived, in seconds.
    pub now: f64,
    /// Number of packets newly acknowledged by this ACK (>1 when a previous
    /// ACK was lost on the reverse path and this one covers its range too).
    pub acked: u32,
    /// RTT sample carried by this ACK, in seconds (send-to-ACK delay of the
    /// most recently acknowledged packet).
    pub rtt: f64,
}

/// The kind of loss event being signalled to the congestion controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossKind {
    /// Retransmission timeout (the event CAAI emulates; §IV-B explains why
    /// CAAI prefers timeouts over triple-duplicate-ACK loss events).
    Timeout,
    /// Fast retransmit after three duplicate ACKs.
    FastRetransmit,
}

/// A pluggable TCP congestion avoidance algorithm.
///
/// The host transport calls, per received cumulative ACK and in this order:
/// [`pkts_acked`](CongestionControl::pkts_acked) (RTT bookkeeping) then
/// [`cong_avoid`](CongestionControl::cong_avoid) (window growth, both slow
/// start and congestion avoidance, mirroring Linux `cong_avoid` hooks). On a
/// loss event it calls [`ssthresh`](CongestionControl::ssthresh) to obtain
/// the new slow-start threshold — this is where the multiplicative decrease
/// parameter β that CAAI extracts lives — followed by
/// [`on_loss`](CongestionControl::on_loss) so the module can reset its
/// internal epoch state.
///
/// This trait is object-safe; algorithm selection happens at runtime via
/// [`AlgorithmId::build`](crate::AlgorithmId::build).
pub trait CongestionControl: fmt::Debug + Send {
    /// Short stable name of the algorithm (e.g. `"CUBIC_v2"`).
    fn name(&self) -> &'static str;

    /// Called once when the connection is established.
    fn init(&mut self, tp: &mut Transport) {
        let _ = tp;
    }

    /// Per-ACK measurement hook (Linux `pkts_acked`): delay-based algorithms
    /// sample RTTs here. Called before [`cong_avoid`](Self::cong_avoid).
    fn pkts_acked(&mut self, tp: &mut Transport, ack: &Ack) {
        let _ = (tp, ack);
    }

    /// Per-ACK window growth (Linux `cong_avoid`): covers both slow start
    /// and congestion avoidance, since several algorithms (VEGAS, YEAH)
    /// modify slow start behaviour.
    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack);

    /// A train of `count` cumulative ACKs arriving together: `first`,
    /// then `count - 1` more that each acknowledge one further packet at
    /// the same instant with the same RTT sample. Leaves `tp` and the
    /// controller exactly where the host transport's steps for `count`
    /// ordinary ACKs would — advance `snd_una`,
    /// fold the RTT sample in, [`pkts_acked`](Self::pkts_acked),
    /// [`cong_avoid`](Self::cong_avoid) — but takes them only for the ACKs
    /// that do more than count: after each, the controller may
    /// [`coast`](Self::coast). Called through `dyn CongestionControl` it costs
    /// one indirect call per train, and the per-ACK hooks inside it are
    /// direct calls the compiler can inline.
    fn on_ack_train(&mut self, tp: &mut Transport, first: &Ack, count: u64) {
        let mut ack = *first;
        let mut left = count;
        let mut settled = None;
        while left > 0 {
            tp.snd_una += u64::from(ack.acked);
            fold_rtt(tp, ack.rtt, 1, &mut settled);
            self.pkts_acked(tp, &ack);
            self.cong_avoid(tp, &ack);
            ack.acked = 1;
            let coasted = self.coast(tp, &ack, left - 1);
            tp.snd_una += coasted;
            fold_rtt(tp, ack.rtt, coasted, &mut settled);
            left -= 1 + coasted;
        }
    }

    /// Between two ACKs of a train: `ack` has just been taken and `left`
    /// more like it follow, each acknowledging one further packet. Takes
    /// those that leave [`pkts_acked`](Self::pkts_acked) nothing to do and
    /// [`cong_avoid`](Self::cong_avoid) one counter to move (in slow start,
    /// the window), moves it and returns how many they were; `snd_una` and
    /// the RTT estimate are the caller's. The default, for a controller
    /// that samples, sums or times every ACK: none.
    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        let _ = (tp, ack, left);
        0
    }

    /// The slow start threshold to adopt on a loss event: `β · cwnd` for a
    /// multiplicative-decrease parameter β. This is CAAI's Feature 1.
    fn ssthresh(&mut self, tp: &Transport) -> u32;

    /// Loss-event notification, delivered after [`ssthresh`](Self::ssthresh)
    /// has been applied; used to reset epoch state (growth-function clocks,
    /// bandwidth filters, round trackers).
    fn on_loss(&mut self, tp: &mut Transport, kind: LossKind, now: f64) {
        let _ = (tp, kind, now);
    }
}

/// Detects RTT round boundaries from cumulative ACK progress, the way Linux
/// delay-based modules do (VEGAS: "one pass per RTT" via `beg_snd_nxt`).
///
/// A round ends when `snd_una` passes the `snd_nxt` recorded at the start of
/// the round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTracker {
    beg_snd_nxt: u64,
}

impl RoundTracker {
    /// Creates a tracker that will report its first round boundary once the
    /// currently outstanding data is acknowledged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns true exactly once per RTT round, and arms the next round.
    pub fn round_elapsed(&mut self, tp: &Transport) -> bool {
        if tp.snd_una >= self.beg_snd_nxt {
            self.beg_snd_nxt = tp.snd_nxt;
            true
        } else {
            false
        }
    }

    /// How many further one-packet ACKs leave `round_elapsed` false.
    pub fn quiet_acks(&self, tp: &Transport) -> u64 {
        self.beg_snd_nxt.saturating_sub(tp.snd_una + 1)
    }

    /// Forget round progress (used after timeouts).
    pub fn reset(&mut self) {
        self.beg_snd_nxt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_transport_is_in_slow_start() {
        let tp = Transport::new(1460);
        assert!(tp.in_slow_start());
        assert_eq!(tp.cwnd, 2);
        assert_eq!(tp.ssthresh, INFINITE_SSTHRESH);
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 8;
        // ACKing 8 packets one at a time doubles the window.
        for _ in 0..8 {
            let left = tp.slow_start(1);
            assert_eq!(left, 0);
        }
        assert_eq!(tp.cwnd, 16);
    }

    #[test]
    fn limited_slow_start_caps_per_rtt_growth() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.max_ssthresh = 50;
        // One RTT: 100 ACKs of one packet each. RFC 3742 allows about
        // max_ssthresh/2 = 25 new packets instead of doubling (slightly
        // less here because the divisor grows as the window grows
        // mid-round, exactly as in Linux's accumulator).
        for _ in 0..100 {
            let left = tp.slow_start(1);
            assert_eq!(left, 0, "limited slow start consumes all ACKs");
        }
        assert!((118..=126).contains(&tp.cwnd), "cwnd {} ≈ 122", tp.cwnd);
    }

    #[test]
    fn limited_slow_start_inactive_below_the_knob() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 8;
        tp.max_ssthresh = 50;
        for _ in 0..8 {
            tp.slow_start(1);
        }
        assert_eq!(tp.cwnd, 16, "doubling still applies below max_ssthresh");
    }

    #[test]
    fn limited_slow_start_respects_ssthresh_ceiling() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.max_ssthresh = 50;
        tp.ssthresh = 110;
        for _ in 0..400 {
            tp.slow_start(1);
        }
        assert_eq!(tp.cwnd, 110, "growth stops at ssthresh");
        assert_eq!(tp.cwnd_cnt, 0, "accumulator cleared at slow-start exit");
    }

    #[test]
    fn slow_start_stops_at_ssthresh_and_returns_leftover() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        tp.ssthresh = 12;
        let left = tp.slow_start(5);
        assert_eq!(tp.cwnd, 12);
        assert_eq!(left, 3);
    }

    #[test]
    fn cong_avoid_ai_grows_one_packet_per_window() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        tp.ssthresh = 5;
        for _ in 0..10 {
            tp.cong_avoid_ai(10, 1);
        }
        assert_eq!(tp.cwnd, 11);
    }

    #[test]
    fn cong_avoid_ai_handles_aggregate_acks() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 4;
        tp.ssthresh = 2;
        // One ACK covering 8 packets grows the window by 8/4 = 2.
        tp.cong_avoid_ai(4, 8);
        assert_eq!(tp.cwnd, 6);
    }

    #[test]
    fn cong_avoid_ai_respects_clamp() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        tp.cwnd_clamp = 10;
        for _ in 0..100 {
            tp.cong_avoid_ai(10, 1);
        }
        assert_eq!(tp.cwnd, 10);
    }

    #[test]
    fn slow_start_respects_clamp() {
        let mut tp = Transport::new(1460);
        tp.cwnd = 10;
        tp.cwnd_clamp = 12;
        tp.slow_start(10);
        assert_eq!(tp.cwnd, 12);
    }

    #[test]
    fn observe_rtt_tracks_minimum_and_smooths() {
        let mut tp = Transport::new(1460);
        tp.observe_rtt(1.0);
        assert_eq!(tp.srtt, 1.0);
        assert_eq!(tp.min_rtt, 1.0);
        tp.observe_rtt(0.8);
        assert!(tp.srtt < 1.0 && tp.srtt > 0.8);
        assert_eq!(tp.min_rtt, 0.8);
        tp.observe_rtt(2.0);
        assert_eq!(tp.min_rtt, 0.8);
    }

    #[test]
    fn observe_rtt_ignores_nonpositive_samples() {
        let mut tp = Transport::new(1460);
        tp.observe_rtt(-1.0);
        tp.observe_rtt(0.0);
        assert_eq!(tp.srtt, 0.0);
        assert!(tp.min_rtt.is_infinite());
    }

    #[test]
    fn round_tracker_fires_once_per_round() {
        let mut tp = Transport::new(1460);
        let mut rt = RoundTracker::new();
        tp.snd_nxt = 10;
        tp.snd_una = 0;
        assert!(rt.round_elapsed(&tp)); // first call arms the tracker
        tp.snd_una = 5;
        assert!(!rt.round_elapsed(&tp));
        tp.snd_una = 10;
        tp.snd_nxt = 30;
        assert!(rt.round_elapsed(&tp));
        assert!(!rt.round_elapsed(&tp));
    }
}
