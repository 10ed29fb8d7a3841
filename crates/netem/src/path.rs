//! The uncontrolled Internet path between a CAAI prober and a web server.
//!
//! CAAI defers ACKs to emulate its RTT schedule, but the real path under it
//! still loses, duplicates, and jitters packets (§IV design challenge 2).
//! Three effects are observable in a window trace:
//!
//! * **data-packet loss / duplication** (server → prober): distorts the
//!   per-round window measurement (CAAI still ACKs "as if no loss", so the
//!   server never notices);
//! * **ACK loss** (prober → server): slows the server's per-ACK window
//!   growth — the noise the paper's equation (1) estimates;
//! * **RTT jitter**: a data packet can slip past the prober's round
//!   boundary and be counted one round late.

use crate::conditions::NetworkCondition;
use crate::schedule::RTT_SHORT;
use crate::stats::normal_cdf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fate of a data packet crossing the server → prober direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFate {
    /// Arrives in the round it was sent.
    Delivered,
    /// Dropped by the path.
    Lost,
    /// Arrives, plus a spurious copy in the next round.
    Duplicated,
    /// Arrives but only after the prober closed the round (jitter).
    Late,
}

/// Fate of an ACK crossing the prober → server direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AckFate {
    /// Delivered to the server.
    Delivered,
    /// Dropped by the path.
    Lost,
}

/// Stochastic model of one Internet path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathConfig {
    /// Per-packet loss probability, server → prober.
    pub data_loss: f64,
    /// Per-packet loss probability, prober → server (ACKs).
    pub ack_loss: f64,
    /// Per-packet duplication probability, server → prober.
    pub data_dup: f64,
    /// Probability that a delivered data packet lands one measurement round
    /// late due to RTT jitter.
    pub late_prob: f64,
}

impl PathConfig {
    /// A perfect path: the paper's local-testbed baseline for Fig. 3
    /// ("measured on our local testbed with a 0% packet-loss rate").
    pub fn clean() -> Self {
        PathConfig {
            data_loss: 0.0,
            ack_loss: 0.0,
            data_dup: 0.0,
            late_prob: 0.0,
        }
    }

    /// A path with symmetric random loss and no jitter or duplication.
    pub fn lossy(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        PathConfig {
            data_loss: loss,
            ack_loss: loss,
            data_dup: 0.0,
            late_prob: 0.0,
        }
    }

    /// Derives a path model from a measured network condition, the way the
    /// testbed replays conditions with Netem (§VII-A).
    ///
    /// Loss applies independently in each direction. Jitter is converted to
    /// a late-arrival probability: a packet is late when its extra one-way
    /// delay exceeds the slack between the real RTT and the shortest
    /// emulated RTT (0.8 s), i.e. `P(N(0, σ) > slack)`.
    pub fn from_condition(cond: &NetworkCondition) -> Self {
        let slack = (RTT_SHORT - cond.rtt_mean).max(0.02);
        let late_prob = if cond.rtt_std > 1e-9 {
            (1.0 - normal_cdf(slack / cond.rtt_std)).clamp(0.0, 0.25)
        } else {
            0.0
        };
        PathConfig {
            data_loss: cond.loss_rate,
            ack_loss: cond.loss_rate,
            data_dup: (cond.loss_rate / 10.0).min(0.01),
            late_prob,
        }
    }

    /// Samples the fate of one data packet.
    pub fn data_fate(&self, rng: &mut impl Rng) -> DataFate {
        self.fate_at(rng.random())
    }

    /// The fate the draw `u` stands for. The three thresholds are sums of
    /// non-negative terms and so ascend: a draw at or past the last is past
    /// all of them, and the common fate costs one comparison.
    fn fate_at(&self, u: f64) -> DataFate {
        if u >= self.data_loss + self.data_dup + self.late_prob {
            return DataFate::Delivered;
        }
        self.fate_by_chain(u)
    }

    /// Threshold by threshold: what [`fate_at`](Self::fate_at) falls back
    /// on, and the whole of what it must agree with.
    fn fate_by_chain(&self, u: f64) -> DataFate {
        if u < self.data_loss {
            DataFate::Lost
        } else if u < self.data_loss + self.data_dup {
            DataFate::Duplicated
        } else if u < self.data_loss + self.data_dup + self.late_prob {
            DataFate::Late
        } else {
            DataFate::Delivered
        }
    }

    /// Samples the fate of one ACK.
    pub fn ack_fate(&self, rng: &mut impl Rng) -> AckFate {
        if rng.random::<f64>() < self.ack_loss {
            AckFate::Lost
        } else {
            AckFate::Delivered
        }
    }

    /// [`data_fate`](Self::data_fate) for up to `n` packets, one draw
    /// each, stopping at the first that is not delivered: how many were
    /// delivered ahead of it, and its fate (`None`: all `n` arrived).
    pub fn data_run(&self, n: u64, rng: &mut impl Rng) -> (u64, Option<DataFate>) {
        // `max` skips a NaN, so a draw at or past this is past every
        // threshold that can compare at all, as in `fate_by_chain`.
        let any = self.data_loss + self.data_dup;
        let any = draws_below(self.data_loss.max(any).max(any + self.late_prob));
        for delivered in 0..n {
            let k = rng.next_u64() >> 11;
            if k < any {
                match self.fate_at(k as f64 * DRAW_UNIT) {
                    DataFate::Delivered => {}
                    fate => return (delivered, Some(fate)),
                }
            }
        }
        (n, None)
    }

    /// [`ack_fate`](Self::ack_fate) for up to `n` ACKs, one draw each,
    /// stopping at the first lost one: how many were delivered ahead of
    /// it (`n`: none was lost).
    pub fn ack_run(&self, n: u64, rng: &mut impl Rng) -> u64 {
        let lost = draws_below(self.ack_loss);
        // The loop `data_run` has: it keeps the generator's state in
        // registers where a `find` over the range would store it back
        // after every draw.
        for delivered in 0..n {
            if rng.next_u64() >> 11 < lost {
                return delivered;
            }
        }
        n
    }

    /// Validates that all probabilities are in range and jointly feasible.
    pub fn validate(&self) -> Result<(), InvalidPathConfig> {
        let fields = [
            ("data_loss", self.data_loss),
            ("ack_loss", self.ack_loss),
            ("data_dup", self.data_dup),
            ("late_prob", self.late_prob),
        ];
        for (name, v) in fields {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(InvalidPathConfig {
                    field: name,
                    value: v,
                });
            }
        }
        let total = self.data_loss + self.data_dup + self.late_prob;
        if total > 1.0 {
            return Err(InvalidPathConfig {
                field: "data_loss+data_dup+late_prob",
                value: total,
            });
        }
        Ok(())
    }
}

/// What one step of `random::<f64>()`'s 53-bit draw is worth: the draw is
/// `(next_u64() >> 11) as f64 * DRAW_UNIT`.
const DRAW_UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// `ceil(p · 2^53)`, the number of draws `k` with `k · 2^-53 < p`: scaling
/// by a power of two is exact, so `random::<f64>() < p` is exactly
/// `next_u64() >> 11 < draws_below(p)`, a test that stays in the integer
/// registers. Nothing lies below a NaN or a negative `p` (the cast
/// saturates), every draw below a `p` above one.
fn draws_below(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl Default for PathConfig {
    fn default() -> Self {
        Self::clean()
    }
}

/// Error returned by [`PathConfig::validate`] for out-of-range
/// probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidPathConfig {
    /// Name of the offending field.
    pub field: &'static str,
    /// The invalid value.
    pub value: f64,
}

impl std::fmt::Display for InvalidPathConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "path probability `{}` out of range: {}",
            self.field, self.value
        )
    }
}

impl std::error::Error for InvalidPathConfig {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn clean_path_never_drops() {
        let p = PathConfig::clean();
        let mut rng = seeded(3);
        for _ in 0..1000 {
            assert_eq!(p.data_fate(&mut rng), DataFate::Delivered);
            assert_eq!(p.ack_fate(&mut rng), AckFate::Delivered);
        }
    }

    #[test]
    fn loss_rates_are_respected() {
        let p = PathConfig::lossy(0.2);
        let mut rng = seeded(4);
        let n = 50_000;
        let lost = (0..n)
            .filter(|_| p.data_fate(&mut rng) == DataFate::Lost)
            .count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn condition_with_no_jitter_has_no_late_packets() {
        let cond = NetworkCondition {
            rtt_mean: 0.1,
            rtt_std: 0.0,
            loss_rate: 0.01,
        };
        let p = PathConfig::from_condition(&cond);
        assert_eq!(p.late_prob, 0.0);
        assert_eq!(p.data_loss, 0.01);
    }

    #[test]
    fn heavy_jitter_produces_late_packets_but_is_capped() {
        let cond = NetworkCondition {
            rtt_mean: 0.7,
            rtt_std: 0.5,
            loss_rate: 0.0,
        };
        let p = PathConfig::from_condition(&cond);
        assert!(p.late_prob > 0.1, "late_prob {}", p.late_prob);
        assert!(p.late_prob <= 0.25, "cap respected: {}", p.late_prob);
    }

    #[test]
    fn the_short_cut_is_the_chain_at_every_threshold() {
        let conditions = crate::ConditionDb::paper_2011();
        let mut rng = seeded(5);
        let mut paths = vec![
            PathConfig::clean(),
            PathConfig::lossy(0.02),
            PathConfig::lossy(1.0),
            PathConfig {
                data_loss: 0.3,
                ack_loss: 0.0,
                data_dup: 0.3,
                late_prob: 0.4,
            },
        ];
        paths.extend((0..200).map(|_| PathConfig::from_condition(&conditions.sample(&mut rng))));
        for p in &paths {
            p.validate().expect("a path the census could use");
            let thresholds = [
                p.data_loss,
                p.data_loss + p.data_dup,
                p.data_loss + p.data_dup + p.late_prob,
            ];
            let around = |t: f64| {
                [
                    t.next_down().next_down(),
                    t.next_down(),
                    t,
                    t.next_up(),
                    t.next_up().next_up(),
                ]
            };
            let draws =
                thresholds
                    .into_iter()
                    .flat_map(around)
                    .chain([0.0, 0.5, 1.0f64.next_down()]);
            for u in draws.filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(p.fate_at(u), p.fate_by_chain(u), "{p:?} at {u:e}");
            }
            for _ in 0..100 {
                let u: f64 = rng.random();
                assert_eq!(p.fate_at(u), p.fate_by_chain(u), "{p:?} at {u:e}");
            }
        }
    }

    /// Replays a list of draws, round and round.
    struct Scripted {
        draws: Vec<u64>,
        drawn: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 1;
            self.draws[(self.drawn - 1) % self.draws.len()]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn the_run_forms_are_the_one_packet_forms_draw_for_draw(seed in 0u64..u64::MAX) {
            use rand::RngCore;
            let mut rng = seeded(seed);
            // Probabilities whose comparison with a draw is decided in the
            // last place: `k · 2^-53` and its neighbours, the ends of the
            // unit interval, a subnormal, and what `validate` would refuse.
            let k = rng.next_u64() >> 11;
            let exact = k as f64 * DRAW_UNIT;
            let edges = [
                exact, exact.next_up(), exact.next_down(), 0.0, 1.0, 5e-324, 0.02, -0.1, 1.5, f64::NAN,
            ];
            let mut edge = |bound: u64| edges[(rng.next_u64() % bound) as usize];
            let path = match seed % 6 {
                0 => PathConfig::clean(),
                1 => PathConfig::lossy(edge(7)),
                2 => PathConfig::lossy(1.0),
                3 => PathConfig::from_condition(&crate::ConditionDb::paper_2011().sample(&mut rng)),
                4 => PathConfig {
                    data_loss: exact / 4.0,
                    ack_loss: edge(7),
                    data_dup: exact / 4.0,
                    late_prob: exact / 2.0,
                },
                _ => PathConfig {
                    data_loss: edge(10),
                    ack_loss: edge(10),
                    data_dup: edge(10),
                    late_prob: edge(10),
                },
            };
            // Draws of which every other one lands on a threshold or next
            // to it; the low 11 bits never count.
            let thresholds = [
                path.data_loss,
                path.data_loss + path.data_dup,
                path.data_loss + path.data_dup + path.late_prob,
                path.ack_loss,
            ];
            let draws = (0..200).map(|i: u32| {
                let t = thresholds[(rng.next_u64() % 4) as usize];
                let at = ((t / DRAW_UNIT) as u64 + rng.next_u64() % 3).saturating_sub(1);
                let noise = rng.next_u64();
                if i.is_multiple_of(2) { at.min((1 << 53) - 1) << 11 | noise >> 53 } else { noise }
            });
            let draws: Vec<u64> = draws.collect();
            let script = || Scripted { draws: draws.clone(), drawn: 0 };
            let n = 150 + seed % 100;

            let (mut by_run, mut one_by_one) = (script(), script());
            let mut fates = Vec::new();
            while (fates.len() as u64) < n {
                let (delivered, fate) = path.data_run(n - fates.len() as u64, &mut by_run);
                fates.extend((0..delivered).map(|_| DataFate::Delivered));
                fates.extend(fate);
                proptest::prop_assert!(fate != Some(DataFate::Delivered));
            }
            let expected: Vec<DataFate> = (0..n).map(|_| path.data_fate(&mut one_by_one)).collect();
            proptest::prop_assert!(fates == expected, "{path:?}: {fates:?} is not {expected:?}");
            proptest::prop_assert!(by_run.drawn == one_by_one.drawn, "{path:?}: data draws");

            let mut lost = Vec::new();
            let mut sent = 0;
            while sent < n {
                let delivered = path.ack_run(n - sent, &mut by_run);
                sent += delivered + 1;
                lost.push(sent - 1);
            }
            lost.retain(|&ack| ack < n);
            let expected: Vec<u64> =
                (0..n).filter(|_| path.ack_fate(&mut one_by_one) == AckFate::Lost).collect();
            proptest::prop_assert!(lost == expected, "{path:?}: {lost:?} is not {expected:?}");
            proptest::prop_assert!(by_run.drawn == one_by_one.drawn, "{path:?}: ACK draws");
        }
    }

    #[test]
    fn validate_catches_bad_probabilities() {
        let mut p = PathConfig::clean();
        p.data_loss = 1.5;
        assert!(p.validate().is_err());
        let mut p = PathConfig::clean();
        p.data_loss = 0.6;
        p.late_prob = 0.6;
        assert!(p.validate().is_err(), "joint mass above 1 rejected");
        assert!(PathConfig::lossy(0.3).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_out_of_range() {
        let _ = PathConfig::lossy(2.0);
    }
}
