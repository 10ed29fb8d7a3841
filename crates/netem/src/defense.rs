//! Server-side traffic-analysis defenses against CAAI probing.
//!
//! ROADMAP item 4: a server that suspects it is being fingerprinted can
//! deploy maybenot-style defenses — dummy-packet padding, timing jitter,
//! burst shaping — to distort the window trace the prober measures. This
//! module models those defenses as composable transforms over the server's
//! per-round transmit burst, under a configurable overhead budget.
//!
//! The defense sits between the server's congestion-controlled sender and
//! the path: it sees the burst of real segments the server released this
//! round and decides what actually goes on the wire. Three transforms are
//! modelled:
//!
//! * **Padding** ([`DefenseConfig::Padding`]): inject dummy packets at the
//!   top of the wire sequence space, inflating the window the prober
//!   measures (§IV-D measures windows from sequence-number progress, so
//!   extra distinct sequence numbers directly inflate `w`).
//! * **Jitter** ([`DefenseConfig::Jitter`]): hold randomly chosen packets
//!   until the next round, smearing the burst across round boundaries the
//!   way path-induced late arrivals do — but adversarially, at a chosen
//!   rate.
//! * **Shaping** ([`DefenseConfig::Shaping`]): cap the packets released
//!   per round, flattening the very window growth curve the classifier
//!   keys on.
//!
//! Because padding renumbers real data into an inflated wire sequence
//! space, the defense also answers the reverse question: given a
//! cumulative ACK in wire space, what does it acknowledge in real
//! (server) space? [`DefenseState::unmap_ack`] is that translation — the
//! same bookkeeping a real padding middlebox must do to strip dummy
//! acknowledgements before they reach the TCP stack.
//!
//! Every transform is bounded by [`DefenseSpec::budget`]: the fraction of
//! overhead actions (dummies injected + packets delayed) relative to real
//! packets carried. A defense that has spent its budget passes traffic
//! through unchanged, so the degradation curve measured by
//! `caai defense-sweep` is monotone in the budget.

use caai_tcpsim::{Burst, WirePacket};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One composable defense transform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefenseConfig {
    /// Inject dummy packets: `rate` expected dummies per real packet
    /// (deterministic accumulator, so overhead is exactly `rate` until the
    /// budget binds).
    Padding {
        /// Expected dummy packets per real packet (≥ 0).
        rate: f64,
    },
    /// Hold each wire packet until the next round with probability
    /// `delay_prob`.
    Jitter {
        /// Per-packet probability of being delayed one round.
        delay_prob: f64,
    },
    /// Release at most `burst_cap` packets per round; the excess carries
    /// into later rounds.
    Shaping {
        /// Maximum packets released per round (≥ 1).
        burst_cap: u32,
    },
}

impl DefenseConfig {
    /// A short stable name for reports and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseConfig::Padding { .. } => "padding",
            DefenseConfig::Jitter { .. } => "jitter",
            DefenseConfig::Shaping { .. } => "shaping",
        }
    }
}

/// A composed defense: transforms applied in order, under one shared
/// overhead budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseSpec {
    /// Transforms, applied in declaration order each round.
    pub defenses: Vec<DefenseConfig>,
    /// Maximum overhead fraction: (dummies + delayed) / real packets.
    /// `0.0` disables every transform; `0.3` allows ~30% overhead.
    pub budget: f64,
}

impl DefenseSpec {
    /// A single-transform spec.
    pub fn single(defense: DefenseConfig, budget: f64) -> Self {
        DefenseSpec {
            defenses: vec![defense],
            budget,
        }
    }

    /// Validates rates and the budget.
    pub fn validate(&self) -> Result<(), String> {
        if !self.budget.is_finite() || self.budget < 0.0 {
            return Err(format!("defense budget out of range: {}", self.budget));
        }
        for d in &self.defenses {
            match *d {
                DefenseConfig::Padding { rate } => {
                    if !rate.is_finite() || rate < 0.0 {
                        return Err(format!("padding rate out of range: {rate}"));
                    }
                }
                DefenseConfig::Jitter { delay_prob } => {
                    if !(0.0..=1.0).contains(&delay_prob) || !delay_prob.is_finite() {
                        return Err(format!("jitter delay_prob out of range: {delay_prob}"));
                    }
                }
                DefenseConfig::Shaping { burst_cap } => {
                    if burst_cap == 0 {
                        return Err("shaping burst_cap must be >= 1".to_string());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Overhead accounting for one defended connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefenseOverhead {
    /// Real data packets carried.
    pub real: u64,
    /// Dummy packets injected.
    pub dummy: u64,
    /// Real packets delayed at least one round (jitter + shaping).
    pub delayed: u64,
}

impl DefenseOverhead {
    /// Folds another connection's overhead into this accumulator.
    pub fn absorb(&mut self, other: DefenseOverhead) {
        self.real += other.real;
        self.dummy += other.dummy;
        self.delayed += other.delayed;
    }

    /// Overhead actions per real packet (0 when nothing real flowed).
    pub fn fraction(&self) -> f64 {
        if self.real == 0 {
            0.0
        } else {
            (self.dummy + self.delayed) as f64 / self.real as f64
        }
    }
}

/// Wire-sequence renumbering: real sequence space → inflated wire space.
///
/// Kept as a monotone breakpoint list `(real_start, offset)`: a real
/// sequence `r` in region `[real_start_i, real_start_{i+1})` maps to
/// `r + offset_i`. Dummies occupy the gaps between regions, always
/// allocated at the current top of the wire space, so offsets only grow.
#[derive(Debug, Clone, Default)]
struct SeqMap {
    /// `(real_start, offset)` pairs, both strictly increasing.
    breakpoints: Vec<(u64, u64)>,
    /// Next never-mapped real sequence number.
    max_real: u64,
    /// Next unused wire sequence number.
    frontier: u64,
    /// Offset the next *new* real packet will get.
    cur_offset: u64,
}

impl SeqMap {
    fn new() -> Self {
        SeqMap {
            breakpoints: vec![(0, 0)],
            max_real: 0,
            frontier: 0,
            cur_offset: 0,
        }
    }

    /// Maps one real segment to wire space. Retransmissions reuse their
    /// original mapping; new data extends the frontier.
    fn map(&mut self, real: u64) -> u64 {
        if real < self.max_real {
            // Retransmission: find its historical region.
            let i = self
                .breakpoints
                .partition_point(|&(start, _)| start <= real)
                - 1;
            return real + self.breakpoints[i].1;
        }
        let last = self.breakpoints.last_mut().expect("never empty");
        if last.1 != self.cur_offset {
            if last.0 == real {
                last.1 = self.cur_offset;
            } else {
                self.breakpoints.push((real, self.cur_offset));
            }
        }
        let wire = real + self.cur_offset;
        self.max_real = real + 1;
        self.frontier = self.frontier.max(wire + 1);
        wire
    }

    /// Allocates one dummy at the top of the wire space.
    fn alloc_dummy(&mut self) -> u64 {
        let wire = self.frontier;
        self.frontier += 1;
        self.cur_offset = self.frontier - self.max_real;
        wire
    }

    /// Translates a wire-space cumulative ACK back to real space: the
    /// number of real packets fully acknowledged by `wire_cum`.
    fn unmap_cum(&self, wire_cum: u64) -> u64 {
        // Last region whose wire start is <= the ACK.
        let i = self
            .breakpoints
            .partition_point(|&(start, off)| start + off <= wire_cum)
            .saturating_sub(1);
        let (start, off) = self.breakpoints[i];
        let next_start = self.breakpoints.get(i + 1).map_or(u64::MAX, |&(s, _)| s);
        if wire_cum < start + off {
            // ACK predates even the first region's wire start.
            return 0;
        }
        (wire_cum - off).min(next_start).min(self.max_real)
    }
}

/// Per-connection runtime state of a [`DefenseSpec`].
///
/// Create one per probing connection; feed every transmitted burst through
/// [`on_burst`](Self::on_burst) and translate every outgoing cumulative
/// ACK with [`unmap_ack`](Self::unmap_ack).
#[derive(Debug, Clone)]
pub struct DefenseState {
    spec: DefenseSpec,
    map: SeqMap,
    /// Packets held by jitter/shaping for a later round.
    held: Vec<WirePacket>,
    /// Fractional-dummy accumulator for the padding transform.
    pad_acc: f64,
    overhead: DefenseOverhead,
}

impl DefenseState {
    /// Fresh per-connection state for a spec.
    pub fn new(spec: &DefenseSpec) -> Self {
        DefenseState {
            spec: spec.clone(),
            map: SeqMap::new(),
            held: Vec::new(),
            pad_acc: 0.0,
            overhead: DefenseOverhead::default(),
        }
    }

    /// True when jitter/shaping still holds packets for a later round. The
    /// prober must keep running rounds until these drain even if the
    /// server has nothing new to send.
    pub fn has_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// Drops packets still held across a phase boundary (the prober's
    /// emulated timeout): the round structure they were delayed into no
    /// longer exists.
    pub fn drop_held(&mut self) {
        self.held.clear();
    }

    /// Overhead accounted so far.
    pub fn overhead(&self) -> DefenseOverhead {
        self.overhead
    }

    /// How many more overhead actions fit the budget right now.
    fn budget_headroom(&self) -> u64 {
        let spent = (self.overhead.dummy + self.overhead.delayed) as f64;
        let allowed = self.spec.budget * self.overhead.real.max(1) as f64;
        (allowed - spent).max(0.0).floor() as u64
    }

    /// True when one more overhead action still fits the budget.
    fn budget_allows(&self) -> bool {
        self.budget_headroom() >= 1
    }

    /// Transforms one round's transmit burst into the wire packets that
    /// actually leave the server this round.
    ///
    /// Previously held packets are released first (subject to shaping),
    /// then the new burst, then padding dummies. Transforms apply in the
    /// spec's declaration order; every overhead action checks the shared
    /// budget first.
    pub fn on_burst(&mut self, burst: Burst, rng: &mut impl Rng) -> Vec<WirePacket> {
        // Map the real burst into wire space and merge the held backlog.
        // This is where a defended round becomes packets: padding, jitter
        // and shaping pick them one by one.
        let mut round: Vec<WirePacket> = std::mem::take(&mut self.held);
        for seq in burst.seqs() {
            self.overhead.real += 1;
            round.push(WirePacket::data(self.map.map(seq)));
        }

        for i in 0..self.spec.defenses.len() {
            match self.spec.defenses[i] {
                DefenseConfig::Padding { rate } => {
                    // One accumulator tick per real packet this round.
                    self.pad_acc += rate * burst.len() as f64;
                    while self.pad_acc >= 1.0 {
                        self.pad_acc -= 1.0;
                        if !self.budget_allows() {
                            self.pad_acc = 0.0;
                            break;
                        }
                        self.overhead.dummy += 1;
                        round.push(WirePacket::padding(self.map.alloc_dummy()));
                    }
                }
                DefenseConfig::Jitter { delay_prob } => {
                    round.retain(|&p| {
                        let delay = rng.random::<f64>() < delay_prob && self.budget_allows();
                        if delay {
                            self.overhead.delayed += 1;
                            self.held.push(p);
                        }
                        !delay
                    });
                }
                DefenseConfig::Shaping { burst_cap } => {
                    // Delay the tail of the burst: the highest sequence
                    // numbers are the window growth the defense wants to
                    // hide. The tail is held as a slice (order preserved)
                    // so the backlog drains lowest-sequence-first — a
                    // LIFO drain would re-expose the full seq span in one
                    // round and hide nothing.
                    let cap = burst_cap as usize;
                    let hold = round
                        .len()
                        .saturating_sub(cap)
                        .min(self.budget_headroom() as usize);
                    if hold > 0 {
                        let keep = round.len() - hold;
                        self.overhead.delayed += hold as u64;
                        self.held.extend(round.drain(keep..));
                    }
                }
            }
        }
        round
    }

    /// Translates a wire-space cumulative ACK to the real-space cumulative
    /// ACK the server's TCP stack should see.
    pub fn unmap_ack(&self, wire_cum: u64) -> u64 {
        self.map.unmap_cum(wire_cum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn segs(range: std::ops::Range<u64>) -> Burst {
        Burst::new(range.start, range.end - range.start, 0)
    }

    #[test]
    fn no_defenses_is_identity() {
        let spec = DefenseSpec {
            defenses: vec![],
            budget: 1.0,
        };
        let mut st = DefenseState::new(&spec);
        let out = st.on_burst(segs(0..5), &mut seeded(1));
        assert_eq!(
            out,
            (0..5).map(WirePacket::data).collect::<Vec<_>>(),
            "no transform, no renumbering"
        );
        assert_eq!(st.unmap_ack(5), 5);
        assert_eq!(st.overhead().fraction(), 0.0);
    }

    #[test]
    fn padding_inflates_wire_space_and_unmaps() {
        let spec = DefenseSpec::single(DefenseConfig::Padding { rate: 0.5 }, 10.0);
        let mut st = DefenseState::new(&spec);
        // Round 1: reals 0..4 -> wires 0..4, then 2 dummies at 4,5.
        let out = st.on_burst(segs(0..4), &mut seeded(1));
        assert_eq!(out.len(), 6);
        assert_eq!(out[4], WirePacket::padding(4));
        assert_eq!(out[5], WirePacket::padding(5));
        // Round 2: reals 4..8 -> wires 6..10 (offset 2).
        let out = st.on_burst(segs(4..8), &mut seeded(1));
        assert_eq!(out[0], WirePacket::data(6));
        assert_eq!(out[3], WirePacket::data(9));
        // A wire cum-ack covering everything (including dummies) unmaps to
        // the real count.
        assert_eq!(st.unmap_ack(12), 8);
        // A cum-ack inside the dummy gap acknowledges reals before it.
        assert_eq!(st.unmap_ack(5), 4);
        assert_eq!(st.unmap_ack(6), 4);
        assert_eq!(st.unmap_ack(7), 5);
        assert_eq!(st.overhead().dummy, 4);
    }

    #[test]
    fn retransmissions_reuse_their_original_mapping() {
        let spec = DefenseSpec::single(DefenseConfig::Padding { rate: 1.0 }, 10.0);
        let mut st = DefenseState::new(&spec);
        let r1 = st.on_burst(segs(0..2), &mut seeded(1));
        assert_eq!(r1[0], WirePacket::data(0));
        assert_eq!(r1[1], WirePacket::data(1));
        let _r2 = st.on_burst(segs(2..4), &mut seeded(1));
        // Retransmit real 0: must map back to wire 0, not the frontier.
        let rt = st.on_burst(segs(0..1), &mut seeded(1));
        assert_eq!(rt[0], WirePacket::data(0));
    }

    #[test]
    fn jitter_holds_packets_for_the_next_round() {
        let spec = DefenseSpec::single(DefenseConfig::Jitter { delay_prob: 1.0 }, 10.0);
        let mut st = DefenseState::new(&spec);
        let out = st.on_burst(segs(0..3), &mut seeded(2));
        assert!(out.is_empty(), "everything held: {out:?}");
        assert!(st.has_held());
        // Next round with an empty burst releases them (jitter re-rolls,
        // but budget: 3 delays already spent vs 10*3 allowed -> re-held
        // only while budget lasts; with delay_prob 1.0 and budget 10 they
        // keep being held. Use a zero-prob follow-up spec instead: the
        // held queue drains through on_burst of the *same* state, so
        // model the drain by exhausting the budget.)
        let mut st = DefenseState::new(&DefenseSpec::single(
            DefenseConfig::Jitter { delay_prob: 1.0 },
            1.0,
        ));
        let r1 = st.on_burst(segs(0..2), &mut seeded(2));
        assert!(r1.len() < 2, "at least one held");
        let r2 = st.on_burst(Burst::default(), &mut seeded(3));
        let r3 = st.on_burst(Burst::default(), &mut seeded(4));
        assert_eq!(
            r1.len() + r2.len() + r3.len(),
            2,
            "every real packet eventually released"
        );
    }

    #[test]
    fn shaping_caps_each_round() {
        let spec = DefenseSpec::single(DefenseConfig::Shaping { burst_cap: 4 }, 10.0);
        let mut st = DefenseState::new(&spec);
        let r1 = st.on_burst(segs(0..10), &mut seeded(5));
        assert_eq!(r1.len(), 4);
        let r2 = st.on_burst(Burst::default(), &mut seeded(5));
        assert_eq!(r2.len(), 4);
        let r3 = st.on_burst(Burst::default(), &mut seeded(5));
        assert_eq!(r3.len(), 2);
        assert!(!st.has_held());
        assert_eq!(st.overhead().delayed, 6 + 2);
    }

    #[test]
    fn budget_zero_disables_every_transform() {
        let spec = DefenseSpec {
            defenses: vec![
                DefenseConfig::Padding { rate: 1.0 },
                DefenseConfig::Jitter { delay_prob: 1.0 },
                DefenseConfig::Shaping { burst_cap: 1 },
            ],
            budget: 0.0,
        };
        let mut st = DefenseState::new(&spec);
        let out = st.on_burst(segs(0..8), &mut seeded(6));
        assert_eq!(out.len(), 8, "budget 0 passes traffic through");
        assert_eq!(st.overhead().fraction(), 0.0);
    }

    #[test]
    fn budget_caps_overhead_fraction() {
        let spec = DefenseSpec::single(DefenseConfig::Padding { rate: 2.0 }, 0.5);
        let mut st = DefenseState::new(&spec);
        for r in 0..20u64 {
            let _ = st.on_burst(segs(r * 10..(r + 1) * 10), &mut seeded(7));
        }
        let o = st.overhead();
        assert!(
            o.fraction() <= 0.5 + 1e-9,
            "overhead {} exceeds budget",
            o.fraction()
        );
        assert!(o.dummy > 0, "budget 0.5 still allows dummies");
    }

    #[test]
    fn unmap_is_monotone_under_composed_defenses() {
        let spec = DefenseSpec {
            defenses: vec![
                DefenseConfig::Padding { rate: 0.7 },
                DefenseConfig::Jitter { delay_prob: 0.3 },
            ],
            budget: 2.0,
        };
        let mut st = DefenseState::new(&spec);
        let mut rng = seeded(8);
        for r in 0..30u64 {
            let _ = st.on_burst(segs(r * 7..(r + 1) * 7), &mut rng);
        }
        let mut prev = 0;
        for wire in 0..400u64 {
            let real = st.unmap_ack(wire);
            assert!(real >= prev, "unmap must be monotone at wire {wire}");
            assert!(real <= 210, "never unmaps past data sent");
            prev = real;
        }
        assert_eq!(st.unmap_ack(u64::MAX), 210, "full ack covers all reals");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(
            DefenseSpec::single(DefenseConfig::Padding { rate: -1.0 }, 1.0)
                .validate()
                .is_err()
        );
        assert!(
            DefenseSpec::single(DefenseConfig::Jitter { delay_prob: 1.5 }, 1.0)
                .validate()
                .is_err()
        );
        assert!(
            DefenseSpec::single(DefenseConfig::Shaping { burst_cap: 0 }, 1.0)
                .validate()
                .is_err()
        );
        let mut s = DefenseSpec::single(DefenseConfig::Padding { rate: 0.5 }, 0.3);
        assert!(s.validate().is_ok());
        s.budget = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let spec = DefenseSpec {
            defenses: vec![
                DefenseConfig::Padding { rate: 0.25 },
                DefenseConfig::Shaping { burst_cap: 32 },
            ],
            budget: 0.15,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: DefenseSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
