//! The synthetic server population behind the §VII census.
//!
//! Every marginal is taken from the paper: the algorithm mix from Table
//! IV's identification results (used here as ground truth — the census
//! *measures it back*), window ceilings from Table IV's `w_max` columns,
//! quirk rates from the §VII-B special-case shares, and the proxy rate
//! from the paper's observation that ~15% of IIS servers answer with
//! non-Windows algorithms.

use caai_congestion::AlgorithmId;
use caai_tcpsim::{SenderQuirk, ServerConfig, SlowStartVariant};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::http::RequestAcceptanceModel;
use crate::mss::MssAcceptance;
use crate::pages::PageModel;

/// Ground-truth algorithm mix. The shape follows Table IV: BIC+CUBIC
/// dominate (the Linux default lineage), CTCP v1 ≫ v2 (XP/2003 servers
/// outnumbered Vista/2008 in 2011), RENO is a small minority, HTCP is the
/// most popular non-default (recommended by tuning guides), and the other
/// non-defaults are rare. HYBLA/LP appear in trace amounts.
pub const ALGORITHM_MIX: [(AlgorithmId, f64); 16] = [
    (AlgorithmId::Bic, 0.245),
    (AlgorithmId::CubicV1, 0.085),
    (AlgorithmId::CubicV2, 0.145),
    (AlgorithmId::Reno, 0.145),
    (AlgorithmId::CtcpV1, 0.120),
    (AlgorithmId::CtcpV2, 0.025),
    (AlgorithmId::Htcp, 0.050),
    (AlgorithmId::Hstcp, 0.012),
    (AlgorithmId::Illinois, 0.008),
    (AlgorithmId::Scalable, 0.005),
    (AlgorithmId::Vegas, 0.008),
    (AlgorithmId::Veno, 0.009),
    (AlgorithmId::WestwoodPlus, 0.012),
    (AlgorithmId::Yeah, 0.008),
    (AlgorithmId::Hybla, 0.003),
    (AlgorithmId::Lp, 0.002),
];
// Remaining mass (≈0.118) is assigned uniformly to the Linux defaults,
// see `sample_algorithm`.

/// Quirk rates behind the §VII-B special-case rows.
pub const QUIRK_RATES: [(SenderQuirk, f64); 5] = [
    (SenderQuirk::RemainAtOne, 0.030),
    (SenderQuirk::NonIncreasing, 0.020),
    (SenderQuirk::ApproachPreTimeoutMax, 0.015),
    (
        SenderQuirk::BufferBoundedRecovery {
            percent_of_wmax: 125,
        },
        0.020,
    ),
    (SenderQuirk::IgnoresTimeout, 0.015),
];

/// Window-ceiling shares matching Table IV's `w_max` columns. A server is
/// usable at rung `r` only when its window can *exceed* `r`, so the
/// ceiling of each share class sits one doubling above the rung it feeds
/// (of servers with valid traces the paper finds 63.84% at 512, 14.02% at
/// 256, 14.24% at 128, 7.92% at 64), plus a share whose ceiling is below
/// 64 entirely (an invalid-trace cause, Fig. 13).
pub const CEILING_SHARES: [(u32, f64); 5] = [
    (1024, 0.60), // crosses 512: probed at the top rung
    (512, 0.13),  // caps at 512: falls to rung 256
    (256, 0.13),  // falls to rung 128
    (128, 0.08),  // falls to rung 64
    (48, 0.06),   // never crosses even 64: invalid trace
];

/// Fraction of servers fronted by a TCP proxy / load balancer that
/// terminates the connection with its own stack (§VII-B.1).
pub const PROXY_RATE: f64 = 0.05;

/// Strength of the dependence between a server's longest-page size and
/// its pipelining tolerance: with this probability the request quantile
/// is the deterministic `coupled_request_quantile` transport of the
/// page quantile, otherwise the two are independent. The coupling
/// itself is marginal-preserving — it reshapes only the *joint* — while
/// the marginals remain what `http`/`pages` define: Fig. 6 exactly, and
/// Fig. 7 with its published anchors pinned but its far tail
/// recalibrated against Table IV (see `pages::longest_page_log_cdf`,
/// whose tail above the 100 kB anchor has always been the calibration
/// region).
///
/// With independent sampling and the former tail the census starved
/// ~67% of servers of probe data (`PageTooShort` + `RecoveryTooShort`)
/// against the paper's 53% total invalid share (Table IV); this blend —
/// together with the prober's Fig. 13 stalled-window early exit — lands
/// the default census on the paper's figure. The regression band lives
/// in `tests/table_iv_invalid_share.rs`.
pub const PAGE_REQUEST_COUPLING: f64 = 0.55;

/// Fig. 6 share of servers honouring only a single request.
const SINGLE_REQUEST_SHARE: f64 = 0.47;
/// Longest-page quantile above which servers are single-object media
/// mirrors (huge download behind a strict front end).
const MEDIA_MIRROR_QUANTILE: f64 = 0.93;
/// Longest-page quantile below which sites are too small for pipelining
/// to matter (brochure sites; the other single-request population).
const BROCHURE_QUANTILE: f64 = MEDIA_MIRROR_QUANTILE - (1.0 - SINGLE_REQUEST_SHARE);

/// The measure-preserving transport behind the page/request coupling:
/// maps a longest-page quantile to a request-acceptance quantile.
///
/// The single-request population (47%, Fig. 6) is not uniform across
/// page sizes — it is the two *extremes*: tiny brochure sites with
/// nothing worth pipelining, and single-object media mirrors whose
/// strict front ends discard repeated requests. The sites in between
/// (CMS/portal pages) tolerate pipelining roughly in inverse proportion
/// to their page size. Concretely:
///
/// * mid-band pages (`BROCHURE..MEDIA_MIRROR` quantiles) sweep the whole
///   multi-request range, longer page ⇒ fewer repeats;
/// * the extremes map onto the single-request mass.
///
/// Each branch is a translation/reflection of disjoint intervals that
/// together tile `[0, 1)`, so a uniform input stays uniform — the Fig. 6
/// marginal is untouched.
fn coupled_request_quantile(u_longest: f64) -> f64 {
    if (BROCHURE_QUANTILE..MEDIA_MIRROR_QUANTILE).contains(&u_longest) {
        SINGLE_REQUEST_SHARE + (MEDIA_MIRROR_QUANTILE - u_longest)
    } else if u_longest >= MEDIA_MIRROR_QUANTILE {
        u_longest - MEDIA_MIRROR_QUANTILE
    } else {
        (1.0 - MEDIA_MIRROR_QUANTILE) + u_longest
    }
}

/// One synthetic web server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebServer {
    /// Stable identifier within the population.
    pub id: u32,
    /// The TCP algorithm of the host itself.
    pub host_algorithm: AlgorithmId,
    /// The algorithm of the proxy terminating the connection, if any: this
    /// is what CAAI actually measures.
    pub proxy_algorithm: Option<AlgorithmId>,
    /// Initial congestion window (1–10 packets).
    pub initial_window: u32,
    /// Retransmission timeout in seconds (2.5–6.0 deployed, §IV-B).
    pub rto: f64,
    /// Whether the stack runs F-RTO.
    pub frto: bool,
    /// Whether the stack caches ssthresh across connections.
    pub ssthresh_caching: bool,
    /// Sender quirk, if any.
    pub quirk: SenderQuirk,
    /// Slow-start flavour of the stack (Fig. 1's slow-start component;
    /// CAAI must be insensitive to it, §II).
    pub slow_start: SlowStartVariant,
    /// Highest congestion window the service load / BDP permits.
    pub window_ceiling: u32,
    /// Minimum-MSS policy (Table II).
    pub mss_policy: MssAcceptance,
    /// Pipelining tolerance (Fig. 6).
    pub requests: RequestAcceptanceModel,
    /// Page inventory (Fig. 7).
    pub pages: PageModel,
}

impl WebServer {
    /// The algorithm CAAI's probe will actually exercise (the proxy's when
    /// one terminates the TCP connection).
    pub fn effective_algorithm(&self) -> AlgorithmId {
        self.proxy_algorithm.unwrap_or(self.host_algorithm)
    }

    /// Builds the TCP sender configuration for a probe proposing
    /// `proposed_mss` bytes.
    pub fn server_config(&self, proposed_mss: u32) -> ServerConfig {
        let mut quirk = self.quirk;
        // Every unquirky server still has a benign service-load/BDP
        // ceiling, expressed through the bounded-buffer clamp.
        if quirk == SenderQuirk::None {
            quirk = SenderQuirk::BoundedBuffer {
                clamp: self.window_ceiling,
            };
        }
        ServerConfig {
            initial_window: self.initial_window,
            mss: self.mss_policy.grant(proposed_mss),
            rto: self.rto,
            frto: self.frto,
            ssthresh_caching: self.ssthresh_caching,
            burstiness_control: true,
            quirk,
            slow_start: self.slow_start,
        }
    }

    /// New-data budget (packets) of one probing connection at the given
    /// granted MSS, using the longest page found by the search tool.
    pub fn data_budget_packets(&self, granted_mss: u32) -> u64 {
        let honoured = self.requests.honoured(crate::http::CAAI_PIPELINE_DEPTH);
        self.pages.connection_budget_packets(honoured, granted_mss)
    }
}

/// Population generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of servers to generate (the paper probed 63,124).
    pub size: u32,
    /// Probability that a Linux host enables F-RTO.
    pub frto_rate: f64,
    /// Probability that a host caches ssthresh across connections.
    pub ssthresh_caching_rate: f64,
}

impl PopulationConfig {
    /// A population the size of the paper's census.
    pub fn paper_scale() -> Self {
        PopulationConfig {
            size: 63_124,
            frto_rate: 0.30,
            ssthresh_caching_rate: 0.20,
        }
    }

    /// A small population for tests.
    pub fn small(size: u32) -> Self {
        PopulationConfig {
            size,
            frto_rate: 0.30,
            ssthresh_caching_rate: 0.20,
        }
    }

    /// Generates the population.
    pub fn generate(&self, rng: &mut impl Rng) -> Vec<WebServer> {
        (0..self.size)
            .map(|id| self.generate_one(id, rng))
            .collect()
    }

    /// Generates a single server (exposed for streaming censuses).
    pub fn generate_one(&self, id: u32, rng: &mut impl Rng) -> WebServer {
        // Spent draws keep the RNG stream: census_200.json, REPRO_EXPECT.json, benchmark inputs.
        let _ = rng.random::<f64>();
        let _ = rng.random::<f64>();
        let host_algorithm = sample_algorithm(rng);
        let proxy_algorithm = if rng.random::<f64>() < PROXY_RATE {
            // Load balancers are mostly Linux appliances.
            Some(weighted(
                &[
                    (AlgorithmId::CubicV2, 0.5),
                    (AlgorithmId::Bic, 0.25),
                    (AlgorithmId::Reno, 0.25),
                ],
                rng,
            ))
        } else {
            None
        };
        let quirk = sample_quirk(rng);
        let window_ceiling = weighted(&CEILING_SHARES, rng);
        let (requests, pages) = sample_requests_and_pages(rng);
        // HyStart ships on by default with Linux CUBIC (kernel ≥ 2.6.29);
        // limited slow start is a rare manual tuning.
        let slow_start = match host_algorithm {
            AlgorithmId::CubicV2 => SlowStartVariant::Hybrid,
            _ => weighted(
                &[
                    (SlowStartVariant::Standard, 0.92),
                    (SlowStartVariant::Limited { max_ssthresh: 128 }, 0.05),
                    (SlowStartVariant::Hybrid, 0.03),
                ],
                rng,
            ),
        };
        WebServer {
            id,
            host_algorithm,
            proxy_algorithm,
            initial_window: weighted(
                &[(1u32, 0.05), (2, 0.60), (3, 0.10), (4, 0.20), (10, 0.05)],
                rng,
            ),
            rto: rng.random_range(2.5..6.0),
            frto: rng.random::<f64>() < self.frto_rate,
            ssthresh_caching: rng.random::<f64>() < self.ssthresh_caching_rate,
            quirk,
            slow_start,
            window_ceiling,
            mss_policy: MssAcceptance::sample(rng),
            requests,
            pages,
        }
    }
}

/// Draws the (pipelining tolerance, page inventory) pair under the
/// [`PAGE_REQUEST_COUPLING`] joint: mid-length pages skew toward
/// tolerant servers, the extremes toward single-request ones, while each
/// marginal stays exactly its published curve.
fn sample_requests_and_pages(rng: &mut impl Rng) -> (RequestAcceptanceModel, PageModel) {
    let u_longest: f64 = rng.random();
    let u_requests = if rng.random::<f64>() < PAGE_REQUEST_COUPLING {
        coupled_request_quantile(u_longest)
    } else {
        rng.random()
    };
    (
        RequestAcceptanceModel::from_quantile(u_requests),
        PageModel::from_quantiles(rng.random(), u_longest),
    )
}

fn weighted<T: Copy>(table: &[(T, f64)], rng: &mut impl Rng) -> T {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut u = rng.random::<f64>() * total;
    for &(v, w) in table {
        if u < w {
            return v;
        }
        u -= w;
    }
    table.last().expect("nonempty table").0
}

fn sample_algorithm(rng: &mut impl Rng) -> AlgorithmId {
    let assigned: f64 = ALGORITHM_MIX.iter().map(|(_, w)| w).sum();
    let u: f64 = rng.random();
    if u < assigned {
        let mut v = u;
        for &(a, w) in ALGORITHM_MIX.iter() {
            if v < w {
                return a;
            }
            v -= w;
        }
    }
    // Residual mass: recent Linux defaults.
    weighted(&[(AlgorithmId::CubicV2, 0.6), (AlgorithmId::Bic, 0.4)], rng)
}

fn sample_quirk(rng: &mut impl Rng) -> SenderQuirk {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for &(q, w) in QUIRK_RATES.iter() {
        acc += w;
        if u < acc {
            return q;
        }
    }
    SenderQuirk::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: u32) -> Vec<WebServer> {
        let mut rng = StdRng::seed_from_u64(41);
        PopulationConfig::small(n).generate(&mut rng)
    }

    #[test]
    fn bic_and_cubic_dominate_the_mix() {
        let pop = population(40_000);
        let bc = pop
            .iter()
            .filter(|s| {
                matches!(
                    s.effective_algorithm(),
                    AlgorithmId::Bic | AlgorithmId::CubicV1 | AlgorithmId::CubicV2
                )
            })
            .count() as f64
            / pop.len() as f64;
        assert!(
            (0.45..0.65).contains(&bc),
            "BIC/CUBIC ground-truth share {bc}"
        );
    }

    #[test]
    fn ctcp_v1_outnumbers_v2() {
        let pop = population(40_000);
        let v1 = pop
            .iter()
            .filter(|s| s.host_algorithm == AlgorithmId::CtcpV1)
            .count();
        let v2 = pop
            .iter()
            .filter(|s| s.host_algorithm == AlgorithmId::CtcpV2)
            .count();
        assert!(
            v1 > 3 * v2,
            "2011 Windows mix: XP/2003 ≫ Vista/2008 ({v1} vs {v2})"
        );
    }

    #[test]
    fn proxies_are_about_five_percent() {
        let pop = population(40_000);
        let proxied =
            pop.iter().filter(|s| s.proxy_algorithm.is_some()).count() as f64 / pop.len() as f64;
        assert!((proxied - PROXY_RATE).abs() < 0.01, "{proxied}");
    }

    #[test]
    fn server_config_honours_mss_policy_and_ceiling() {
        let pop = population(2_000);
        let s = pop
            .iter()
            .find(|s| s.mss_policy.min_mss == 536 && s.quirk == SenderQuirk::None)
            .expect("one such server");
        let cfg = s.server_config(100);
        assert_eq!(cfg.mss, 536, "server rounds the proposed MSS up");
        match cfg.quirk {
            SenderQuirk::BoundedBuffer { clamp } => assert!(clamp >= 48),
            other => panic!("ceiling must materialize as a clamp, got {other:?}"),
        }
    }

    #[test]
    fn ceiling_one_doubling_above_each_rung() {
        // A ceiling-512 server cannot *cross* 512, so the top rung it can
        // feed is 256 — the shares table must sit one doubling above.
        for (ceiling, _) in CEILING_SHARES {
            if ceiling >= 64 {
                assert!(
                    ceiling > 64,
                    "every usable ceiling exceeds the smallest rung"
                );
            }
        }
        let usable: f64 = CEILING_SHARES
            .iter()
            .filter(|(c, _)| *c > 64)
            .map(|(_, w)| w)
            .sum();
        assert!((usable - 0.94).abs() < 1e-9);
    }

    #[test]
    fn data_budget_reflects_pipelining_limits() {
        let pop = population(5_000);
        let stingy = pop.iter().find(|s| s.requests.max_requests == 1).unwrap();
        let generous = pop
            .iter()
            .find(|s| s.requests.max_requests == u32::MAX)
            .unwrap();
        assert!(
            generous.data_budget_packets(100) >= generous.pages.longest_bytes / 100 * 12,
            "full pipeline multiplies the budget"
        );
        assert_eq!(
            stingy.data_budget_packets(100),
            stingy.pages.longest_bytes / 100
        );
    }

    #[test]
    fn cubic_v2_hosts_ship_hystart() {
        let pop = population(5_000);
        for s in pop
            .iter()
            .filter(|s| s.host_algorithm == AlgorithmId::CubicV2)
        {
            assert_eq!(
                s.slow_start,
                SlowStartVariant::Hybrid,
                "Linux ≥2.6.29 default"
            );
        }
        let hybrid_elsewhere = pop
            .iter()
            .filter(|s| s.host_algorithm != AlgorithmId::CubicV2)
            .filter(|s| s.slow_start == SlowStartVariant::Hybrid)
            .count() as f64
            / pop.len() as f64;
        assert!(
            hybrid_elsewhere < 0.10,
            "HyStart rare off-CUBIC: {hybrid_elsewhere}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population(100);
        let b = population(100);
        assert_eq!(a, b);
    }

    #[test]
    fn ceiling_shares_cover_the_ladder() {
        let pop = population(40_000);
        // The 0.60 share of CEILING_SHARES sits at ceiling 1024: servers
        // whose window *crosses* 512 and are probed at the top rung.
        let crosses512 =
            pop.iter().filter(|s| s.window_ceiling == 1024).count() as f64 / pop.len() as f64;
        assert!((crosses512 - 0.60).abs() < 0.01, "{crosses512}");
        // And every rung of the ladder is fed by some share.
        for ceiling in [512, 256, 128, 48] {
            assert!(
                pop.iter().any(|s| s.window_ceiling == ceiling),
                "no servers with ceiling {ceiling}"
            );
        }
    }
}
