//! # caai-tcpsim
//!
//! The simulated TCP **web-server sender** that CAAI probes.
//!
//! The paper measures real Apache/IIS servers; here the server side is a
//! faithful sender state machine around a pluggable congestion avoidance
//! module (`caai-congestion`):
//!
//! * slow start (standard, limited RFC 3742, or hybrid HyStart) and
//!   congestion avoidance driven per received ACK;
//! * a retransmission timeout with go-back-N recovery — the loss signal
//!   CAAI deliberately emulates (§IV-B prefers timeouts over duplicate-ACK
//!   loss events because Linux burstiness control corrupts the latter);
//! * optional **F-RTO** spurious-timeout detection (RFC 5682), which CAAI
//!   defeats with a duplicate ACK (§IV-C);
//! * optional **slow-start-threshold caching** across connections, which
//!   CAAI defeats by waiting between environments (§IV-C);
//! * optional burstiness control (window moderation on fast retransmit),
//!   reproducing why loss-event-based probing mismeasures β;
//! * the §VII-B server quirks behind the census's special-case traces
//!   (frozen window, non-increasing window, asymptotic approach, bounded
//!   send buffer, timeout-deaf servers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod segment;
pub mod server;

pub use cache::SsthreshCache;
pub use config::{SenderQuirk, ServerConfig, SlowStartVariant};
pub use segment::{AckPacket, Burst, Segment};
pub use server::TcpServer;
