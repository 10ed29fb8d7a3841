//! # caai-net
//!
//! The real-network probe transport: CAAI's §IV ladder over actual TCP
//! sockets, scheduled by a hand-rolled epoll reactor. The
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
//!   bindings for the few syscalls std lacks (nonblocking connect,
//!   `epoll`, `eventfd`, two socket options, thread placement; the
//!   build is offline, so no `libc`, `mio` or `tokio`), a binary heap
//!   of timers, and global + per-/24 token buckets. The probe socket itself
//!   is a `std::net::TcpStream`.
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
//! The crate binds Linux's syscall ABI (its constants, its
//! `epoll_event` layout, glibc's symbols) and builds for Linux only.
//! All `unsafe` lives in [`sys`]; the compiler refuses it anywhere else.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "caai-net binds Linux's syscall ABI (epoll, eventfd, sched_*, Linux socket constants) \
     and builds only for Linux"
);

pub mod core;
pub mod emulated;
pub mod frame;
pub mod limiter;
pub mod reactor;
#[allow(unsafe_code)]
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
