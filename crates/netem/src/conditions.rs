//! The measured-network-condition database of §VII-A.
//!
//! The paper characterizes real paths to 5000 popular web servers by
//! (average RTT, RTT standard deviation, packet-loss rate), publishing the
//! three marginal CDFs as Figs. 4, 10 and 11, and replays randomly drawn
//! triples with Netem while collecting the 5600-vector training set.
//!
//! The raw measurements are not available, so this module encodes the three
//! CDFs as piecewise-linear curves matched to the shapes the paper reports
//! (e.g. "almost all actual RTTs are less than 0.8 s" in Fig. 4) — one of
//! the substitutions listed in ARCHITECTURE.md. Conditions are drawn with
//! independent marginals, exactly like the paper's random triple selection.

use crate::stats::Cdf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One measured network condition: the triple the paper replays per
/// training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkCondition {
    /// Average path RTT in seconds.
    pub rtt_mean: f64,
    /// Standard deviation of the path RTT in seconds.
    pub rtt_std: f64,
    /// Packet-loss rate (both directions, i.i.d. per packet).
    pub loss_rate: f64,
}

/// The empirical condition database (Figs. 4, 10, 11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionDb {
    rtt: Cdf,
    rtt_std: Cdf,
    loss: Cdf,
}

impl ConditionDb {
    /// The distributions measured in 2010/2011 from the paper's vantage
    /// point, reconstructed from the published CDF shapes.
    pub fn paper_2011() -> Self {
        ConditionDb {
            // Fig. 4: median well under 0.2 s, ~99% below 0.8 s.
            rtt: Cdf::from_points(vec![
                (0.005, 0.00),
                (0.020, 0.08),
                (0.050, 0.28),
                (0.100, 0.52),
                (0.150, 0.68),
                (0.200, 0.78),
                (0.300, 0.90),
                (0.400, 0.95),
                (0.600, 0.98),
                (0.800, 0.995),
                (1.500, 1.00),
            ]),
            // Fig. 10: RTT standard deviations, mostly a few ms.
            rtt_std: Cdf::from_points(vec![
                (0.000, 0.00),
                (0.002, 0.25),
                (0.005, 0.45),
                (0.010, 0.62),
                (0.020, 0.75),
                (0.050, 0.87),
                (0.100, 0.93),
                (0.200, 0.97),
                (0.500, 1.00),
            ]),
            // Fig. 11: packet-loss rates, mostly near zero with a tail.
            loss: Cdf::from_points(vec![
                (0.000, 0.00),
                (0.0005, 0.42),
                (0.001, 0.55),
                (0.005, 0.72),
                (0.010, 0.80),
                (0.020, 0.87),
                (0.050, 0.94),
                (0.100, 0.98),
                (0.200, 1.00),
            ]),
        }
    }

    /// Draws one condition with independent marginals (§VII-A: "randomly
    /// selects an average RTT, an RTT standard deviation, and a packet-loss
    /// rate").
    pub fn sample(&self, rng: &mut impl Rng) -> NetworkCondition {
        NetworkCondition {
            rtt_mean: self.rtt.sample(rng),
            rtt_std: self.rtt_std.sample(rng),
            loss_rate: self.loss.sample(rng).clamp(0.0, 1.0),
        }
    }

    /// The RTT CDF (Fig. 4).
    pub fn rtt_cdf(&self) -> &Cdf {
        &self.rtt
    }

    /// The packet-loss-rate CDF (Fig. 11).
    pub fn loss_cdf(&self) -> &Cdf {
        &self.loss
    }
}

impl Default for ConditionDb {
    fn default() -> Self {
        Self::paper_2011()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn almost_all_rtts_below_point_eight() {
        // The property §IV-B relies on to justify the 1.0 s emulated RTT.
        let db = ConditionDb::paper_2011();
        assert!(db.rtt_cdf().eval(0.8) >= 0.99);
        let mut rng = seeded(11);
        let n = 5000;
        let below = (0..n)
            .filter(|_| db.sample(&mut rng).rtt_mean < 0.8)
            .count();
        assert!(below as f64 / n as f64 > 0.98);
    }

    #[test]
    fn median_rtt_is_around_100ms() {
        let db = ConditionDb::paper_2011();
        let median = db.rtt_cdf().quantile(0.5);
        assert!((0.05..=0.15).contains(&median), "median {median}");
    }

    #[test]
    fn loss_is_mostly_negligible() {
        let db = ConditionDb::paper_2011();
        assert!(
            db.loss_cdf().eval(0.01) >= 0.75,
            "80% of paths lose under 1%"
        );
        assert!(db.loss_cdf().eval(0.2) >= 0.999);
    }

    #[test]
    fn samples_are_valid_conditions() {
        let db = ConditionDb::paper_2011();
        let mut rng = seeded(12);
        for _ in 0..1000 {
            let c = db.sample(&mut rng);
            assert!(c.rtt_mean > 0.0 && c.rtt_mean < 2.0);
            assert!(c.rtt_std >= 0.0 && c.rtt_std <= 0.5);
            assert!((0.0..=0.2).contains(&c.loss_rate));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let db = ConditionDb::paper_2011();
        let a = db.sample(&mut seeded(99));
        let b = db.sample(&mut seeded(99));
        assert_eq!(a, b);
    }
}
