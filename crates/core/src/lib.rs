//! # caai-core
//!
//! The CAAI pipeline — the primary contribution of Yang et al., "TCP
//! Congestion Avoidance Algorithm Identification" (ICDCS'11 / ToN'14).
//!
//! CAAI actively identifies the TCP congestion avoidance algorithm of a
//! remote web server in three steps:
//!
//! 1. **Trace gathering** ([`ladder`], driven over the simulator by
//!    [`prober`]): emulate network environments A (fixed 1.0 s RTT) and B
//!    (0.8 s → 1.0 s steps) purely through ACK scheduling, force a
//!    retransmission timeout by withholding ACKs once the window passes a
//!    `w_max` threshold, and record the per-RTT window trace (§IV).
//! 2. **Feature extraction** ([`features`]): from each trace, recover the
//!    multiplicative decrease parameter β and the window growth offsets
//!    G3/G6, robustly to ACK loss; assemble the 7-element vector (§V).
//! 3. **Classification** ([`classify`]): a random forest over a training
//!    set of 14 algorithms × 4 thresholds × 100 network conditions
//!    ([`training`]), with a 40% confidence floor (§VI).
//!
//! [`census`] drives the §VII Internet measurement against a synthetic
//! population, and [`special`] detects the §VII-B special-case traces.
//!
//! ## Example: identify one server end to end
//!
//! ```
//! use caai_core::prober::{Prober, ProberConfig};
//! use caai_core::server_under_test::ServerUnderTest;
//! use caai_core::features::extract_pair;
//! use caai_congestion::AlgorithmId;
//! use caai_netem::PathConfig;
//!
//! let server = ServerUnderTest::ideal(AlgorithmId::CubicV2);
//! let prober = Prober::new(ProberConfig::default());
//! let mut rng = caai_netem::rng::seeded(42);
//! let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
//! let pair = outcome.pair.expect("ideal server yields a trace pair");
//! let vector = extract_pair(&pair);
//! // CUBIC v2's multiplicative decrease parameter is ~0.7.
//! assert!((vector.values[0] - 0.7).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod classes;
pub mod classify;
pub mod features;
pub mod ladder;
pub mod prober;
pub mod server_under_test;
pub mod special;
pub mod trace;
pub mod training;
pub mod transport;

pub use census::{Census, CensusReport, Verdict};
pub use classes::ClassLabel;
pub use classify::{CaaiClassifier, Identification};
pub use features::{extract, extract_pair, FeatureVector, TraceFeatures, FEATURE_DIM};
pub use ladder::{LadderWalk, RungAttempt, DEFAULT_LADDER};
pub use prober::{GatherOutcome, Prober, ProberConfig};
pub use server_under_test::ServerUnderTest;
pub use special::SpecialCase;
pub use trace::{InvalidReason, TracePair, WindowTrace, POST_TIMEOUT_ROUNDS};
pub use training::{build_training_set, TrainingConfig};
pub use transport::{ProbeTransport, SimTransport};
