//! # caai-netem
//!
//! Network emulation substrate for the CAAI reproduction.
//!
//! The paper's measurement campaign has two network layers:
//!
//! 1. The **emulated environments A and B** (§IV-B) that CAAI imposes on a
//!    web server purely by scheduling its own ACKs — fixed 1.0 s RTT in A, a
//!    0.8 s → 1.0 s step schedule in B ([`schedule`]).
//! 2. The **real Internet path** underneath, which CAAI cannot control:
//!    packet loss in both directions, RTT jitter, duplication ([`path`]).
//!    The paper characterizes these conditions by measuring 5000 popular
//!    web servers (Figs. 4, 10, 11) and replays them with Netem when
//!    collecting the training set; [`conditions`] encodes those empirical
//!    distributions and samples training conditions from them.
//!
//! [`stats`] provides the piecewise-linear CDF type used throughout, plus
//! the mean-and-95%-confidence-interval estimator from the paper's ACK-loss
//! equation (1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod path;
pub mod rng;
pub mod schedule;
pub mod stats;

pub use conditions::{ConditionDb, NetworkCondition};
pub use path::{AckFate, DataFate, PathConfig};
pub use schedule::{EnvironmentId, Phase, RttSchedule};
pub use stats::Cdf;
