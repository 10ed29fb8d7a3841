//! Web-page sizes and the page-search tool (Fig. 7).
//!
//! Default pages are short (only ~12% exceed 100 kB), which starves CAAI of
//! data; the paper's PlanetLab page-search tool (httrack + dig + header
//! probing, §IV-E) hunts for the longest object on each server and lifts
//! that share to ~48%. Here the search tool is modelled by its outcome: a
//! "longest found page" drawn from the Fig. 7 post-search distribution,
//! never smaller than the default page.

use caai_netem::stats::Cdf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sizes are sampled in log10(bytes) to match the heavy-tailed shapes of
/// Fig. 7; this is the default-page CDF (≈12% above 100 kB = 10^5 B).
fn default_page_log_cdf() -> Cdf {
    Cdf::from_points(vec![
        (2.5, 0.00), // ~300 B
        (3.0, 0.10),
        (3.5, 0.30),
        (4.0, 0.55),
        (4.5, 0.78),
        (5.0, 0.88), // 100 kB
        (5.5, 0.94),
        (6.0, 0.98),
        (7.0, 1.00), // 10 MB
    ])
}

/// Longest-found-page CDF. The knot at 100 kB (10^5 B) is placed so that
/// after taking the max with the default page (`P(either > 100 kB)`), ~48%
/// of servers end up above 100 kB, matching Fig. 7. Above that anchor the
/// tail is calibrated against Table IV: a `w_max = 512` trace at MSS 100
/// consumes ~379 kB (§IV-E), and the share of servers whose found page
/// sustains it must be large enough to reproduce the paper's ~47% valid
/// rate with ~64% of valid traces at the top rung.
fn longest_page_log_cdf() -> Cdf {
    Cdf::from_points(vec![
        (2.5, 0.00),
        (3.5, 0.14),
        (4.0, 0.28),
        (4.5, 0.40),
        (5.0, 0.59), // 1 − 0.59·0.88 ≈ 0.48 above 100 kB after the max
        (5.8, 0.615),
        (6.3, 0.70),
        (6.8, 0.80),
        (7.2, 0.90),
        (7.7, 1.00), // ~50 MB
    ])
}

/// The page inventory of one server, as CAAI's page search sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageModel {
    /// Size of the default page (index.html) in bytes.
    pub default_bytes: u64,
    /// Size of the longest page the search tool can find, in bytes.
    pub longest_bytes: u64,
}

impl PageModel {
    /// Samples a server's pages from the Fig. 7 distributions. The longest
    /// page is at least the default page.
    pub fn sample(rng: &mut impl Rng) -> Self {
        Self::from_quantiles(rng.random(), rng.random())
    }

    /// Builds the page inventory from explicit quantiles of the Fig. 7
    /// CDFs (`u` values in `[0, 1]`). This is the joint-sampling hook:
    /// the population model couples `u_longest` to the request-acceptance
    /// quantile (see `population`), which changes the *joint* distribution
    /// while both marginals stay exactly the published curves.
    pub fn from_quantiles(u_default: f64, u_longest: f64) -> Self {
        let default_bytes = 10f64.powf(default_page_log_cdf().quantile(u_default)) as u64;
        let searched = 10f64.powf(longest_page_log_cdf().quantile(u_longest)) as u64;
        PageModel {
            default_bytes,
            longest_bytes: searched.max(default_bytes),
        }
    }

    /// Bytes obtainable over one connection when the server honours
    /// `requests` pipelined requests for the longest page.
    pub fn connection_budget_bytes(&self, requests: u32) -> u64 {
        self.longest_bytes.saturating_mul(u64::from(requests))
    }

    /// Budget in packets for a granted MSS.
    pub fn connection_budget_packets(&self, requests: u32, mss: u32) -> u64 {
        self.connection_budget_bytes(requests) / u64::from(mss.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_pages_are_rarely_long() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 20_000;
        let long = (0..n)
            .filter(|_| PageModel::sample(&mut rng).default_bytes > 100_000)
            .count();
        let frac = long as f64 / n as f64;
        assert!(
            (frac - 0.12).abs() < 0.02,
            "~12% of defaults above 100 kB, got {frac}"
        );
    }

    #[test]
    fn search_finds_long_pages_for_about_half() {
        let mut rng = StdRng::seed_from_u64(32);
        let n = 20_000;
        let long = (0..n)
            .filter(|_| PageModel::sample(&mut rng).longest_bytes > 100_000)
            .count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.48).abs() < 0.03, "~48% after search, got {frac}");
    }

    #[test]
    fn longest_never_below_default() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..5000 {
            let p = PageModel::sample(&mut rng);
            assert!(p.longest_bytes >= p.default_bytes);
        }
    }

    #[test]
    fn budget_scales_with_requests_and_mss() {
        let p = PageModel {
            default_bytes: 10_000,
            longest_bytes: 100_000,
        };
        assert_eq!(p.connection_budget_bytes(12), 1_200_000);
        assert_eq!(p.connection_budget_packets(12, 100), 12_000);
        assert_eq!(p.connection_budget_packets(12, 1460), 821);
    }

    #[test]
    fn paper_example_379kb_feeds_wmax_512_at_mss_100() {
        // §IV-E: a RENO trace with wmax=512, mss=100 needs ~379 kB ≈ 3790
        // packets over 28 rounds.
        let p = PageModel {
            default_bytes: 40_000,
            longest_bytes: 40_000,
        };
        let budget = p.connection_budget_packets(12, 100);
        assert!(budget >= 3790, "12 × 40 kB at MSS 100 is plenty: {budget}");
    }
}
