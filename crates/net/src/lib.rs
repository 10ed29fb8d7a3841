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
//! * [`frame`] — the virtual-time wire protocol's codec. Every client frame
//!   carries the emulated clock, so the exchange is a lockstep replay
//!   of the simulator's schedule regardless of real pacing. A round,
//!   not a packet, is its unit: one `AckRun` per ACK train, one
//!   run-length `Burst` per window. Strict, diagnostic-rich decoding
//!   (hostile bytes are the normal case).
//! * The two ends of the protocol are `caai_core::sansio`'s sans-IO
//!   cores: [`LadderCore`] (the prober's ladder walk) and [`ServerCore`]
//!   (the tcpsim-backed server). The simulator passes frames between
//!   them in memory; this crate carries the same frames over sockets,
//!   the reactor driving the one and the emulated fleet the other.
//! * [`sys`] / `wheel` / `limiter` — the event loops' raw material:
//!   bindings for the few syscalls std lacks (nonblocking connect,
//!   `epoll`, `eventfd`, two socket options, thread placement and the
//!   one rule for where loops run; the build is offline, so no `libc`,
//!   `mio` or `tokio`), a binary heap of timers with the moving
//!   `Deadline` a connection keeps one timer under, and global + per-/24
//!   token buckets. Every socket is a `std::net::TcpStream`, read into a
//!   frame decoder and written from a buffer by one private helper both
//!   ends share.
//! * `runtime` — the one event loop both ends run on: wait on the poller
//!   until the next timer is due, then commands, readiness and due
//!   timers; the thread start (a poller and its command queue on a
//!   thread confined to its CPU); and the handle that sends a loop a
//!   command and wakes it. Crate-private, like `reactor`, `wheel` and
//!   `limiter`.
//! * `reactor` — an event loop of thousands of nonblocking probe
//!   sessions: connect/retry/backoff/timeout per target, and reduction
//!   of every transport failure to `TransportAborted`. It never delays a
//!   send: latency is the path's. Its [`NetConfig`], [`SessionResult`]
//!   and [`SessionStats`] are re-exported here.
//! * [`transport`] — [`NetTransport`], the `caai-core`
//!   `ProbeTransport` impl the engine runs a live census through: one
//!   reactor per CPU the caller may use, each confined to its own CPU,
//!   sharing one session cap and one rate limiter. The engine submits to
//!   it up to that cap from one thread.
//! * [`emulated`] — loopback [`EmulatedServer`]s replaying tcpsim
//!   algorithms over real sockets, so tests and CI never touch the
//!   real network. Every server of a process is served by one event
//!   loop per CPU, on the runtime the reactors run on, each connection
//!   by the loop on the CPU its packets arrive on: no thread per
//!   listener or connection. A paced server holds each reply on a timer
//!   for its round's span (a path's latency).
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

mod conn;
pub mod emulated;
pub mod frame;
mod limiter;
mod reactor;
mod runtime;
#[allow(unsafe_code)]
pub mod sys;
pub mod targets;
pub mod transport;
mod wheel;

// The cores live in `caai_core::sansio`; these names stay here only
// because `benchmark/` imports them from this crate, and item 18 of
// ROADMAP.md removes them with the rest of its import list.
pub use caai_core::sansio::{LadderCore, Reply, ServerCore, Step};
// The old name of the server an `EmulatedServer` impersonates, kept only
// because `benchmark/` still imports it; the `benchmark/` change of
// ROADMAP item 3(a) removes it.
pub use caai_core::server_under_test::ServerUnderTest as ServerProfile;
pub use emulated::{Behavior, EmulatedServer};
pub use frame::{FrameDecoder, Wire};
pub use reactor::{NetConfig, SessionResult, SessionStats};
pub use targets::{parse_targets, read_targets, SkippedLine, Target, TargetList};
pub use transport::NetTransport;
