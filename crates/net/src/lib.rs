//! # caai-net
//!
//! The real-network probe transport: CAAI's §IV ladder over actual TCP
//! sockets, scheduled by a hand-rolled epoll/poll reactor. The
//! simulator answers "what would CAAI conclude about this algorithm?";
//! this crate answers "can the census walk real connections and reach
//! the same conclusions?" — the step from §VI's simulation study
//! toward the paper's Internet-wide measurement.
//!
//! The design splits protocol from plumbing:
//!
//! * [`frame`] — the virtual-time wire protocol. Every client frame
//!   carries the emulated clock, so the exchange is a lockstep replay
//!   of the simulator's schedule regardless of real pacing. A round,
//!   not a packet, is its unit: one `AckRun` per ACK train, one
//!   run-length `Burst` per window. Strict, diagnostic-rich decoding
//!   (hostile bytes are the normal case).
//! * [`core`] — sans-IO state machines for both ends:
//!   [`LadderCore`] (the prober's ladder walk: the wire-protocol
//!   driver of `caai_core::ladder`, the state the simulator's
//!   `Prober` drives too) and [`ServerCore`] (the tcpsim-backed
//!   server). The in-memory equivalence tests drive
//!   them against each other and pin the outcome to the simulator's.
//! * [`sys`] / [`wheel`] / [`limiter`] — the reactor's raw material:
//!   direct syscall bindings (the build is offline; no `libc`, `mio`
//!   or `tokio`), a hashed timer wheel, and global + per-/24 token
//!   buckets.
//! * [`reactor`] — one thread, thousands of nonblocking sessions:
//!   connect/retry/backoff/timeout per target, paced sends, and
//!   reduction of every transport failure to `TransportAborted`.
//! * [`transport`] — [`NetTransport`], the `caai-core`
//!   `ProbeTransport` impl the engine runs a live census through: one
//!   reactor per CPU the caller may use, each confined to its own CPU,
//!   sharing one session cap and one rate limiter.
//! * [`emulated`] — loopback [`EmulatedServer`]s replaying tcpsim
//!   algorithms over real sockets, so tests and CI never touch the
//!   real network.
//! * [`targets`] — `host:port` target-list ingestion with
//!   skip-and-report diagnostics.
//!
//! All `unsafe` lives in [`sys`].

#![warn(missing_docs)]

pub mod core;
pub mod emulated;
pub mod frame;
pub mod limiter;
pub mod reactor;
pub mod sys;
pub mod targets;
pub mod transport;
pub mod wheel;

pub use crate::core::{LadderCore, ProtocolError, Reply, RungRecord, ServerCore, Step};
// The old name of the server an `EmulatedServer` impersonates, kept only
// because `benchmark/` still imports it; the `benchmark/` change of
// ROADMAP item 3(a) removes it.
pub use caai_core::server_under_test::ServerUnderTest as ServerProfile;
pub use emulated::{Behavior, EmulatedServer};
pub use frame::{ClientFrame, DecodeError, FrameDecoder, ServerFrame, Wire};
pub use limiter::RateLimiter;
pub use reactor::{NetConfig, SessionResult, SessionStats};
pub use targets::{parse_targets, read_targets, SkippedLine, Target, TargetList};
pub use transport::NetTransport;
