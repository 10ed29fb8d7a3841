//! The socket reactor: thousands of probe sessions on one thread.
//!
//! A reactor is an [`EventLoop`]: the runtime (`runtime.rs`, shared with
//! the emulated fleet's loops) waits on its poller and timer heap
//! ([`TimerWheel`]) and hands it commands, readiness and due timers;
//! the reactor keeps only the probing. Its dedicated thread owns every
//! socket of its sessions. Probe sessions are tiny state machines
//! ([`LadderCore`] plus a [`Conn`]), so the memory per concurrent
//! session is a few KiB and the per-event work is bounded — a reactor
//! sustains hundreds to thousands of in-flight sessions without threads
//! or allocator churn. Each connection keeps one IO [`Deadline`], moved
//! round trip after round trip, with one timer under it.
//!
//! Admission control happens at the mouth: submitted probes queue in
//! FIFO order and enter the reactor only when (a) a session slot is
//! free (`max_sessions`) and (b) the [`RateLimiter`] grants a token
//! for the target's address. Transport failures (refused, reset, EOF
//! mid-ladder, IO timeout, protocol violation) burn a retry with
//! exponential backoff and restart the *whole* ladder on a fresh
//! connection — a half-gathered walk is worthless — until the budget
//! is spent and [`LadderCore::abort`] reduces the session to a
//! `TransportAborted` outcome. Sessions never panic the reactor;
//! every failure ends in a result on the session's reply channel.
//!
//! A session writes each [`Step::Send`] as soon as the core returns it,
//! and hands the frames back to the core to hold the next round's: how
//! long a round takes in real time is the path's latency (a paced
//! [`EmulatedServer`](crate::emulated::EmulatedServer) holds its
//! replies), so the reactor only sleeps in the poller, until a socket is
//! ready or a timeout, backoff or rate-limiter timer falls due.
//!
//! A [`NetTransport`](crate::transport::NetTransport) runs one reactor
//! per CPU it may use, each confined to its own CPU (ARCHITECTURE.md,
//! "Where a live probe's threads run"). The limiter is the transport's,
//! not a reactor's: every reactor admits through one [`Admission`], so
//! the rate bounds and the live-session count hold transport-wide.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use caai_core::frame::ServerFrame;
use caai_core::ladder::Run;
use caai_core::sansio::{LadderCore, Step};
use caai_core::{GatherOutcome, InvalidReason, ProberConfig};
use caai_obs::{
    span_begin, span_begin_async, Event, RateLimiterStalled, ReactorTicked, RungAttemptEnded,
    SpanKind, SpanToken, Subscriber,
};

use crate::conn::{read_buffer, Conn};
use crate::frame::Wire;
use crate::limiter::RateLimiter;
use crate::runtime::EventLoop;
use crate::sys::{self, Interest, Poller, Readiness};
use crate::wheel::{Deadline, Timer, TimerKind, TimerWheel};

/// Transport tuning for a live census.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The §IV ladder parameters.
    pub prober: ProberConfig,
    /// How long a nonblocking connect may take.
    pub connect_timeout: Duration,
    /// How long to wait for the peer's next frame.
    pub io_timeout: Duration,
    /// Transport-level retries per target (each restarts the ladder).
    pub retries: u32,
    /// Base backoff before a retry; doubles per retry already burned.
    pub backoff: Duration,
    /// Global probe admissions per second (`<= 0` = unlimited).
    pub rate: f64,
    /// Per-/24 probe admissions per second (`<= 0` = unlimited).
    pub rate_per_net: f64,
    /// Concurrent session cap; further probes queue FIFO.
    pub max_sessions: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            prober: ProberConfig::default(),
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(10),
            retries: 1,
            backoff: Duration::from_millis(100),
            rate: 0.0,
            rate_per_net: 0.0,
            max_sessions: 1024,
        }
    }
}

/// Per-session transport accounting, reported with the outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// TCP connections opened (ladder rungs × environments, plus retries).
    pub connections: u32,
    /// Transport retries burned.
    pub retries: u32,
    /// Connect/IO timeouts observed.
    pub timeouts: u32,
    /// The session ended via [`LadderCore::abort`].
    pub aborted: bool,
    /// Bytes written to the session's sockets, over all its connections
    /// (retries included).
    pub bytes_sent: u64,
    /// Bytes read from the session's sockets, likewise.
    pub bytes_received: u64,
    /// Frames queued for writing, likewise. With `bytes_sent` this is
    /// what tells run framing (a few hundred frames, a few KiB per
    /// probe) from per-packet framing (~15 k frames, ~585 KB).
    pub frames_sent: u64,
    /// Reads on the session's sockets that returned bytes (each a
    /// `recv`: std's `TcpStream::read`).
    pub reads: u64,
    /// Writes that took bytes (each a `send`: `TcpStream::write`).
    pub writes: u64,
}

/// What a probe session resolves to.
#[derive(Debug)]
pub struct SessionResult {
    /// The server id the probe was submitted under.
    pub id: u32,
    /// The gather outcome, reduced exactly as the simulator reduces its
    /// own (`TransportAborted` failures included).
    pub outcome: GatherOutcome,
    /// Rung attempt records for observability replay.
    pub rungs: Vec<RungAttemptEnded>,
    /// Transport accounting.
    pub stats: SessionStats,
}

/// One full ladder walk against `ip:port`, as submitted to a reactor.
pub struct Probe {
    /// The server id, echoed in the result.
    pub id: u32,
    /// IPv4 target address.
    pub ip: Ipv4Addr,
    /// TCP port.
    pub port: u16,
    /// Where the result goes.
    pub reply: mpsc::Sender<SessionResult>,
}

/// Commands the reactor accepts from other threads.
pub enum Command {
    /// Run a probe.
    Probe(Probe),
    /// Stop the reactor; in-flight sessions are dropped unanswered (a
    /// reply channel nobody else holds closes, which `probe` reduces to
    /// an aborted record). The transport sends it only as it drops.
    Shutdown,
}

/// What every reactor of one
/// [`NetTransport`](crate::transport::NetTransport) shares: the rate
/// limiter, locked once per admission (not per packet), and the count of
/// sessions live across all of them, which each tick reports.
#[derive(Debug)]
pub struct Admission {
    limiter: Mutex<RateLimiter>,
    live: AtomicU64,
}

impl Admission {
    /// The limiter `config`'s rates describe, and no session live.
    pub fn new(config: &NetConfig) -> Self {
        Admission {
            limiter: Mutex::new(RateLimiter::new(config.rate, config.rate_per_net)),
            live: AtomicU64::new(0),
        }
    }
}

/// Timer token reserved for the rate-limiter retry tick.
const RATE_TOKEN: u64 = 0;

struct Session {
    probe: Probe,
    core: LadderCore,
    conn: Option<Conn>,
    /// The connection's handshake has completed.
    connected: bool,
    /// Close the connection once what it has to write is written.
    close_after_flush: bool,
    stats: SessionStats,
    retries_left: u32,
    /// When the peer must have connected or answered by, while it owes
    /// either: one timer per connection, moved round trip after round trip.
    io: Deadline,
    /// The armed backoff, for staleness checks against fired timers.
    backoff_at: Option<Instant>,
    /// Tracing spans (all `SpanToken::NONE` when tracing is off). The
    /// session span covers first connect to verdict hand-off; the
    /// others are the currently open phase within it. They travel with
    /// the session across token re-keying.
    span: SpanToken,
    connect_span: SpanToken,
    retry_span: SpanToken,
    roundtrip_span: SpanToken,
    rung_span: SpanToken,
    /// Rung records already accounted (closes `rung_span` on growth).
    rungs_seen: usize,
    /// The last `Burst`'s runs, handed back after the core read them:
    /// the next one is decoded into the same buffer.
    spare: Vec<Run>,
}

/// The reactor. Constructed and run on its own thread by
/// [`NetTransport`](crate::transport::NetTransport).
pub struct Reactor<S: Subscriber> {
    config: NetConfig,
    obs: Arc<S>,
    poller: Poller,
    wheel: TimerWheel,
    sessions: HashMap<u64, Session>,
    pending: VecDeque<Probe>,
    admission: Arc<Admission>,
    /// Probes submitted to this reactor and not yet answered: the
    /// submitter counts one up, the reactor counts it down as it replies.
    unanswered: Arc<AtomicUsize>,
    next_token: u64,
    rate_retry_armed: bool,
    /// The current tick's start (when `S` listens) and span.
    tick: (Option<Instant>, SpanToken),
    /// What every session's reads go through.
    read_buf: Box<[u8]>,
}

impl<S: Subscriber> Reactor<S> {
    /// A reactor waiting on `poller`. `config`'s `max_sessions` is this
    /// reactor's own share of the cap; its rates are `admission`'s
    /// business.
    pub fn new(
        config: NetConfig,
        poller: Poller,
        obs: Arc<S>,
        admission: Arc<Admission>,
        unanswered: Arc<AtomicUsize>,
    ) -> Self {
        Reactor {
            config,
            obs,
            poller,
            wheel: TimerWheel::new(),
            sessions: HashMap::new(),
            pending: VecDeque::new(),
            admission,
            unanswered,
            next_token: 1,
            rate_retry_armed: false,
            tick: (None, SpanToken::NONE),
            read_buf: read_buffer(),
        }
    }
}

impl<S: Subscriber> EventLoop for Reactor<S> {
    type Command = Command;

    fn io(&mut self) -> (&mut Poller, &mut TimerWheel) {
        (&mut self.poller, &mut self.wheel)
    }

    fn command(&mut self, command: Command) -> bool {
        match command {
            Command::Probe(probe) => self.pending.push_back(probe),
            Command::Shutdown => return false,
        }
        true
    }

    fn ready(&mut self, ev: Readiness) {
        let token = ev.token;
        let Some(session) = self.sessions.get_mut(&token) else {
            return; // stale event for a closed connection
        };
        let Some(conn) = session.conn.as_mut() else {
            return;
        };
        if !session.connected {
            if ev.writable || ev.error {
                self.connect_finished(token);
            }
            return;
        }
        if ev.error {
            // Query the socket for the concrete error; either way the
            // connection is gone.
            let _ = conn.stream.take_error();
            self.conn_failed(token);
            return;
        }
        if ev.writable && conn.unsent() {
            self.flush(token);
        }
        if ev.readable {
            self.read(token);
        }
    }

    fn timer(&mut self, timer: Timer, _now: Instant) {
        if timer.token == RATE_TOKEN {
            self.rate_retry_armed = false;
            self.pump_pending();
            return;
        }
        let Some(session) = self.sessions.get_mut(&timer.token) else {
            return; // stale: the session finished or re-keyed
        };
        match timer.kind {
            TimerKind::IoDeadline => {
                if session.io.fired(&mut self.wheel, &timer) {
                    session.stats.timeouts += 1;
                    self.conn_failed(timer.token);
                }
            }
            TimerKind::Backoff => {
                if session.backoff_at == Some(timer.deadline) {
                    session.backoff_at = None;
                    self.open_connection(timer.token);
                }
            }
            TimerKind::RatePermit | TimerKind::Hold => {}
        }
    }

    fn woke(&mut self) {
        let start = S::ENABLED.then(Instant::now);
        let sessions = self.sessions.len() as i64;
        self.tick = (
            start,
            span_begin(&*self.obs, SpanKind::ReactorTick, sessions, 0),
        );
    }

    fn settle(&mut self, ready: usize) {
        self.pump_pending();
        let (start, span) = std::mem::replace(&mut self.tick, (None, SpanToken::NONE));
        span.end(&*self.obs);
        if let Some(start) = start {
            self.obs.on_event(&Event::ReactorTicked(ReactorTicked {
                ready: ready as u32,
                active_sessions: self.admission.live.load(Ordering::Relaxed),
                latency_us: start.elapsed().as_micros() as u64,
            }));
        }
    }

    /// Once the command queue closes, until every probe is answered.
    fn busy(&self) -> bool {
        !self.sessions.is_empty() || !self.pending.is_empty()
    }
}

impl<S: Subscriber> Reactor<S> {
    // -- admission ---------------------------------------------------

    fn pump_pending(&mut self) {
        while self.sessions.len() < self.config.max_sessions {
            let Some(front) = self.pending.front() else {
                return;
            };
            let now = Instant::now();
            // Every update leaves the limiter valid (a bucket refilled and
            // not yet taken from is still a bucket), so a lock poisoned by
            // another reactor's panic is taken as it stands.
            let admitted = self
                .admission
                .limiter
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .admit(now, front.ip);
            match admitted {
                Ok(()) => {
                    let probe = self.pending.pop_front().expect("front just observed");
                    self.start_session(probe);
                }
                Err(wait) => {
                    self.obs
                        .on_event(&Event::RateLimiterStalled(RateLimiterStalled {
                            wait_us: wait.as_micros() as u64,
                        }));
                    if !self.rate_retry_armed {
                        self.rate_retry_armed = true;
                        self.wheel
                            .insert(RATE_TOKEN, TimerKind::RatePermit, now + wait);
                    }
                    return;
                }
            }
        }
    }

    fn start_session(&mut self, probe: Probe) {
        let mut core = LadderCore::new(self.config.prober.clone());
        let step = core.start();
        let token = self.alloc_token();
        let span = span_begin_async(
            &*self.obs,
            SpanKind::NetSession,
            0,
            i64::from(u32::from(probe.ip)),
            i64::from(probe.port),
        );
        let session = Session {
            probe,
            core,
            conn: None,
            connected: false,
            close_after_flush: false,
            stats: SessionStats::default(),
            retries_left: self.config.retries,
            io: Deadline::default(),
            backoff_at: None,
            span,
            connect_span: SpanToken::NONE,
            retry_span: SpanToken::NONE,
            roundtrip_span: SpanToken::NONE,
            rung_span: SpanToken::NONE,
            rungs_seen: 0,
            spare: Vec::new(),
        };
        self.sessions.insert(token, session);
        self.admission.live.fetch_add(1, Ordering::Relaxed);
        self.apply_step(token, step);
    }

    /// Closes the session's open rung span when the core has recorded a
    /// new rung attempt since the last check. Cheap and idempotent;
    /// called after any step that can conclude a rung.
    fn sync_rung_span(&mut self, token: u64) {
        if !S::ENABLED {
            return;
        }
        let obs = Arc::clone(&self.obs);
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        let n = session.core.rungs().len();
        if n > session.rungs_seen {
            session.rungs_seen = n;
            std::mem::replace(&mut session.rung_span, SpanToken::NONE).end(&*obs);
        }
    }

    fn alloc_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    // -- step execution ----------------------------------------------

    /// Executes one [`Step`] for the session at `token`. The session may
    /// move to a new token (reconnect) or finish (removal) underneath.
    fn apply_step(&mut self, token: u64, step: Step) {
        match step {
            Step::Connect => self.open_connection(token),
            Step::Send {
                frames,
                close_after,
            } => {
                let Some(session) = self.sessions.get_mut(&token) else {
                    return;
                };
                let Some(conn) = session.conn.as_mut() else {
                    return;
                };
                for frame in &frames {
                    frame.encode_into(&mut conn.out);
                }
                session.stats.frames_sent += frames.len() as u64;
                session.close_after_flush = close_after;
                session.core.recycle(frames);
                self.flush(token);
            }
            Step::Done(outcome) => self.finish_session(token, *outcome),
        }
    }

    fn open_connection(&mut self, token: u64) {
        // Re-key: a fresh token per connection makes every event and
        // timer of the old connection stale by construction.
        let Some(mut session) = self.sessions.remove(&token) else {
            return;
        };
        let new_token = self.alloc_token();
        session.io = Deadline::default();
        session.backoff_at = None;
        std::mem::replace(&mut session.retry_span, SpanToken::NONE).end(&*self.obs);
        session.connect_span = span_begin_async(
            &*self.obs,
            SpanKind::NetConnect,
            session.span.id(),
            i64::from(session.stats.connections) + 1,
            0,
        );
        match sys::connect_nonblocking(session.probe.ip, session.probe.port) {
            Ok((stream, done)) => {
                session.conn = Some(Conn::new(stream));
                session.connected = false;
                session.close_after_flush = false;
                let deadline = Instant::now() + self.config.connect_timeout;
                session.io.set(&mut self.wheel, new_token, deadline);
                self.sessions.insert(new_token, session);
                if done {
                    self.connect_finished(new_token);
                } else {
                    self.set_interest(new_token, Interest::Write);
                }
            }
            Err(_) => {
                self.sessions.insert(new_token, session);
                self.conn_failed(new_token);
            }
        }
    }

    fn set_interest(&mut self, token: u64, interest: Interest) {
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        let Some(conn) = session.conn.as_mut() else {
            return;
        };
        if conn.watch(&mut self.poller, token, interest).is_err() {
            self.conn_failed(token);
        }
    }

    fn connect_finished(&mut self, token: u64) {
        let obs = Arc::clone(&self.obs);
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        let Some(conn) = session.conn.as_mut() else {
            return;
        };
        if !matches!(conn.stream.take_error(), Ok(None)) {
            self.conn_failed(token);
            return;
        }
        session.connected = true;
        session.stats.connections += 1;
        session.io.clear();
        std::mem::replace(&mut session.connect_span, SpanToken::NONE).end(&*obs);
        // A fresh connection opens the next rung attempt over the wire.
        session.rung_span = span_begin_async(
            &*obs,
            SpanKind::NetRung,
            session.span.id(),
            session.rungs_seen as i64,
            0,
        );
        let step = session.core.on_connected();
        self.apply_step(token, step);
        self.sync_rung_span(token);
    }

    /// Drains the session's write buffer. On completion either closes
    /// (`close_after_flush`) or turns to await the reply.
    fn flush(&mut self, token: u64) {
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        let Some(conn) = session.conn.as_mut() else {
            return;
        };
        let stats = &mut session.stats;
        let flushed = conn.flush(|n| {
            stats.bytes_sent += n as u64;
            stats.writes += 1;
        });
        match flushed {
            Ok(true) => {}
            Ok(false) => {
                self.set_interest(token, Interest::ReadWrite);
                return;
            }
            Err(_) => {
                self.conn_failed(token);
                return;
            }
        }
        if session.close_after_flush {
            self.teardown_conn(token);
            let Some(session) = self.sessions.get_mut(&token) else {
                return;
            };
            let step = session.core.on_closed();
            self.apply_step(token, step);
            self.sync_rung_span(token);
        } else {
            // Request on the wire, reply awaited: the frame round-trip
            // starts here and ends at the next decoded frame.
            if S::ENABLED && session.roundtrip_span.id() == 0 {
                let obs = Arc::clone(&self.obs);
                session.roundtrip_span =
                    span_begin_async(&*obs, SpanKind::NetRoundtrip, session.span.id(), 0, 0);
            }
            let deadline = Instant::now() + self.config.io_timeout;
            session.io.set(&mut self.wheel, token, deadline);
            self.set_interest(token, Interest::Read);
        }
    }

    /// Closes the session's connection, which takes it out of the poller.
    fn teardown_conn(&mut self, token: u64) {
        if let Some(session) = self.sessions.get_mut(&token) {
            session.conn = None;
            session.io.clear();
        }
    }

    /// Reads what the peer sent and feeds it to the core. The ladder
    /// initiates every close itself, so a peer-side close mid-walk (EOF),
    /// like a read error, is a transport failure.
    fn read(&mut self, token: u64) {
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        let Some(conn) = session.conn.as_mut() else {
            return;
        };
        let stats = &mut session.stats;
        let open = conn.fill(&mut self.read_buf, |n| {
            stats.bytes_received += n as u64;
            stats.reads += 1;
        });
        if self.decode_frames(token) && !matches!(open, Ok(true)) {
            self.conn_failed(token);
        }
    }

    /// Feeds every buffered frame to the core. Returns false when the
    /// session's current connection ended (error, reconnect, finish).
    fn decode_frames(&mut self, token: u64) -> bool {
        loop {
            let Some(session) = self.sessions.get_mut(&token) else {
                return false;
            };
            let Some(conn) = session.conn.as_mut() else {
                return false;
            };
            match conn.decoder.next_into::<ServerFrame>(&mut session.spare) {
                Ok(Some(frame)) => {
                    session.io.clear();
                    if S::ENABLED {
                        let obs = Arc::clone(&self.obs);
                        std::mem::replace(&mut session.roundtrip_span, SpanToken::NONE).end(&*obs);
                    }
                    let step = session.core.on_frame(&frame);
                    if let ServerFrame::Burst { runs, .. } = frame {
                        session.spare = runs;
                    }
                    match step {
                        Ok(step) => {
                            self.apply_step(token, step);
                            self.sync_rung_span(token);
                        }
                        Err(_proto) => {
                            self.conn_failed(token);
                            return false;
                        }
                    }
                }
                Ok(None) => return true,
                Err(_decode) => {
                    self.conn_failed(token);
                    return false;
                }
            }
        }
    }

    // -- failure & completion ----------------------------------------

    /// A transport-level failure on the session's current connection:
    /// burn a retry (with backoff) or abort the walk.
    fn conn_failed(&mut self, token: u64) {
        self.teardown_conn(token);
        let obs = Arc::clone(&self.obs);
        let Some(session) = self.sessions.get_mut(&token) else {
            return;
        };
        // Whatever phase was open on this connection, it is over.
        std::mem::replace(&mut session.connect_span, SpanToken::NONE).end(&*obs);
        std::mem::replace(&mut session.roundtrip_span, SpanToken::NONE).end(&*obs);
        std::mem::replace(&mut session.rung_span, SpanToken::NONE).end(&*obs);
        if session.retries_left > 0 {
            session.retries_left -= 1;
            session.stats.retries += 1;
            // The whole walk restarts: a partial ladder cannot be resumed
            // against a server whose TCP state is gone.
            session.core = LadderCore::new(self.config.prober.clone());
            let _ = session.core.start();
            let shift = session.stats.retries.saturating_sub(1).min(16);
            let backoff = self.config.backoff * (1u32 << shift);
            session.retry_span = span_begin_async(
                &*obs,
                SpanKind::NetRetry,
                session.span.id(),
                i64::from(session.stats.retries),
                backoff.as_millis() as i64,
            );
            let deadline = Instant::now() + backoff;
            session.backoff_at = Some(deadline);
            self.wheel.insert(token, TimerKind::Backoff, deadline);
        } else {
            session.stats.aborted = true;
            let step = session.core.abort();
            self.apply_step(token, step);
        }
    }

    fn finish_session(&mut self, token: u64, outcome: GatherOutcome) {
        self.teardown_conn(token);
        let Some(session) = self.sessions.remove(&token) else {
            return;
        };
        self.admission.live.fetch_sub(1, Ordering::Relaxed);
        session.connect_span.end(&*self.obs);
        session.roundtrip_span.end(&*self.obs);
        session.retry_span.end(&*self.obs);
        session.rung_span.end(&*self.obs);
        session.span.end(&*self.obs);
        let aborted = session.stats.aborted
            || outcome.failure_reason() == Some(InvalidReason::TransportAborted);
        let mut stats = session.stats;
        stats.aborted = aborted;
        let result = SessionResult {
            id: session.probe.id,
            outcome,
            rungs: session.core.rungs().to_vec(),
            stats,
        };
        // Counted down first, so a caller the reply wakes already sees
        // the slot free. A dropped receiver (caller gave up) is not the
        // reactor's problem; the session is done either way.
        self.unanswered.fetch_sub(1, Ordering::Relaxed);
        let _ = session.probe.reply.send(result);
        self.pump_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulated::{Behavior, EmulatedServer};
    use crate::runtime::Handle;
    use caai_congestion::AlgorithmId;
    use caai_core::ServerUnderTest;
    use caai_obs::{MetricsSubscriber, NullSubscriber};

    /// Runs one probe per target on the calling thread and hands back the
    /// reactor as the census left it.
    fn census(
        config: NetConfig,
        targets: &[&EmulatedServer],
    ) -> (Reactor<NullSubscriber>, Vec<SessionResult>) {
        census_obs(config, targets, Arc::new(NullSubscriber))
    }

    fn census_obs<S: Subscriber>(
        config: NetConfig,
        targets: &[&EmulatedServer],
        obs: Arc<S>,
    ) -> (Reactor<S>, Vec<SessionResult>) {
        let admission = Arc::new(Admission::new(&config));
        let unanswered = Arc::new(AtomicUsize::new(targets.len()));
        let poller = Poller::new().unwrap();
        let (commands, inbox) = Handle::new(&poller);
        let mut reactor = Reactor::new(config, poller, obs, admission, unanswered);
        let replies: Vec<_> = targets
            .iter()
            .map(|server| {
                let std::net::SocketAddr::V4(addr) = server.addr() else {
                    panic!("emulated servers listen on IPv4 loopback");
                };
                let (reply, result) = mpsc::channel();
                let probe = Command::Probe(Probe {
                    id: 0,
                    ip: *addr.ip(),
                    port: addr.port(),
                    reply,
                });
                commands.send(probe).unwrap();
                result
            })
            .collect();
        // The loop ends once the queue is closed and every session is done.
        commands.close();
        reactor.serve(&inbox);
        let results = replies.iter().map(|r| r.recv().unwrap()).collect();
        (reactor, results)
    }

    #[test]
    fn a_connection_keeps_one_io_timer_however_many_round_trips() {
        let servers: Vec<EmulatedServer> =
            [AlgorithmId::Reno, AlgorithmId::CubicV2, AlgorithmId::Htcp]
                .iter()
                .map(|&a| {
                    EmulatedServer::spawn(ServerUnderTest::ideal(a), Behavior::Normal).unwrap()
                })
                .collect();
        let targets: Vec<&EmulatedServer> = servers.iter().cycle().take(30).collect();
        let config = NetConfig {
            connect_timeout: Duration::from_secs(5),
            max_sessions: 4,
            ..NetConfig::default()
        };
        let (reactor, results) = census(config, &targets);
        let connections: usize = results.iter().map(|r| r.stats.connections as usize).sum();
        let round_trips: u64 = results.iter().map(|r| r.stats.frames_sent).sum();
        assert!(results.iter().all(|r| r.outcome.pair.is_some()));
        assert!(
            round_trips > 20 * connections as u64,
            "{round_trips} frames"
        );
        // Every timer armed is still in the wheel (none is due for
        // seconds): one per connection, not one per round trip.
        assert!(
            reactor.wheel.len() <= connections,
            "{} timers for {connections} connections",
            reactor.wheel.len()
        );
    }

    /// A RENO server that holds each reply 4 ms per virtual second.
    fn paced_reno() -> EmulatedServer {
        let paced = Behavior::Paced(Duration::from_millis(4));
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), paced).unwrap()
    }

    #[test]
    fn an_io_timer_that_fires_early_waits_out_the_rest() {
        // A paced peer stretches a probe over many `io_timeout`s while it
        // answers each round well within one: the deadline moves, the
        // timer armed under it fires early, and nothing times out.
        let server = paced_reno();
        let config = NetConfig {
            io_timeout: Duration::from_millis(40),
            retries: 0,
            ..NetConfig::default()
        };
        let begun = Instant::now();
        let (_, results) = census(config.clone(), &[&server]);
        assert!(begun.elapsed() > 3 * config.io_timeout);
        assert_eq!(results[0].stats.timeouts, 0);
        assert!(results[0].outcome.pair.is_some());
    }

    #[test]
    fn a_paced_probe_sleeps_until_its_timers_are_due() {
        // A count, not a clock: while a paced peer holds its reply the
        // reactor sleeps, and every frame costs at most two ticks. A poll
        // timeout truncated to whole milliseconds spun through the last
        // millisecond before each timer instead — hundreds of ticks per
        // frame.
        let server = paced_reno();
        let obs = Arc::new(MetricsSubscriber::new());
        // An IO timeout a few rounds long keeps a timer falling due
        // every few rounds, early, while the peer holds its reply.
        let config = NetConfig {
            io_timeout: Duration::from_millis(40),
            ..NetConfig::default()
        };
        let (_, results) = census_obs(config, &[&server], Arc::clone(&obs));
        assert!(results[0].outcome.pair.is_some());
        let frames = results[0].stats.frames_sent;
        let ticks = obs.snapshot().counters["net.reactor_ticks"];
        assert!(frames > 50, "{frames} frames");
        assert!(
            ticks <= 2 * frames + 16,
            "{ticks} ticks for {frames} frames"
        );
    }

    #[test]
    fn a_stalled_peer_times_out_one_io_timeout_after_the_request() {
        // Whichever way round the two timeouts are: with the connect timer
        // (10 s) in the wheel the earlier IO deadline must not wait behind
        // it, and a connect timer that fires before the IO deadline must
        // re-arm for the rest of it rather than forget it.
        for connect_timeout in [Duration::from_secs(10), Duration::from_millis(50)] {
            let config = NetConfig {
                connect_timeout,
                io_timeout: Duration::from_millis(200),
                retries: 0,
                ..NetConfig::default()
            };
            let io_timeout = config.io_timeout;
            let (done, result) = mpsc::channel();
            std::thread::spawn(move || {
                let server = EmulatedServer::spawn(
                    ServerUnderTest::ideal(AlgorithmId::Reno),
                    Behavior::StallAfterAccept,
                )
                .unwrap();
                let begun = Instant::now();
                let (_, mut results) = census(config, &[&server]);
                let _ = done.send((begun.elapsed(), results.remove(0)));
            });
            let (took, result) = result
                .recv_timeout(Duration::from_secs(20))
                .expect("the deadline was forgotten");
            assert_eq!(result.stats.timeouts, 1);
            assert!(result.stats.aborted);
            // A few ms of poll rounding, and what a loaded host adds to a
            // loopback connect and two thread wake-ups.
            let slack = Duration::from_millis(4 + 150);
            assert!(
                took >= io_timeout && took <= io_timeout + slack,
                "connect timeout {connect_timeout:?}: timed out after {took:?}"
            );
        }
    }
}
