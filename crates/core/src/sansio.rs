//! Sans-IO protocol cores: the ladder client and the server end.
//!
//! Both ends of the probe protocol ([`crate::frame`]) live here as pure
//! state machines — frames in, frames out, no sockets, no clocks. Two
//! drivers run them: [`Prober`](crate::prober::Prober) passes frames
//! between a [`LadderCore`] and a [`ServerCore`] in memory (every
//! simulated gather), and `caai-net` carries the same frames over
//! sockets (its reactor drives [`LadderCore`], its emulated fleet drives
//! [`ServerCore`]). A simulated probe and a live one therefore run the
//! same code at both ends.
//!
//! [`LadderCore`] is the wire-protocol driver of [`crate::ladder`]: it
//! turns server frames into the events [`RungAttempt`] takes and the
//! [`RoundEnd`]s it returns into client frames, keeps the virtual clock
//! and rejects frames the protocol does not expect. How long a round
//! lasts in real time is the path's business (an emulated server holds
//! its replies), never the prober's. Each `Burst` is handed to the
//! ladder as the runs it names, and the ladder's ACK runs go back as they
//! come: one `AckRun` per train, after the F-RTO duplicate, which stays
//! the lone `Ack` it is. [`LadderWalk`] decides which connection comes
//! next.
//!
//! [`ServerCore`] is one connection to a [`ServerUnderTest`]. Given a
//! path ([`ServerCore::over_path`]) it also plays the network between
//! the two ends, drawing fates from the caller's RNG in the order the
//! packets and ACKs travel: each burst's data, one draw a packet, when
//! the burst is sent, then each ACK train, one draw an ACK, as the frames
//! that carry it arrive. The fleet's [`ServerCore::new`] has no path and
//! draws nothing. Two rules keep a walk's connections what a server's
//! would be:
//!
//! * **Carry.** Late packets and the spurious copies of duplicated ones
//!   reach the prober a round after they were sent. A server with nothing
//!   to send while any of them is still in flight has them delivered as
//!   that round; it neither closes (its data is done) nor fires its own
//!   RTO (it is not). The emulated timeout drops what is in flight.
//! * **Cache.** A connection deposits its closing ssthresh in its
//!   server's metrics cache when it closes: when the server closes it,
//!   and when the prober does ([`ServerCore::close`]). The simulator's
//!   walk lends every connection the caller's server, so its next
//!   connection starts from the cache its last one left (§IV-C's
//!   inter-connection wait is what defeats it). The fleet's `new` owns a
//!   clone, so each emulated connection starts with an empty cache and
//!   leaves nothing behind; connections that may interleave on one
//!   listener stay independent.
//!
//! An `AckRun` reaches the sender's TCP stack as one call, which leaves
//! the tcpsim sender where its ACKs delivered singly would have, so the
//! sender cannot tell the two forms apart.

use caai_netem::path::DataFate;
use caai_netem::{EnvironmentId, PathConfig};
use caai_obs::RungAttemptEnded;
use caai_tcpsim::TcpServer;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Borrow;

use crate::frame::{run_range, ClientFrame, ProtocolError, ServerFrame, MAX_BURST_SEQS};
use crate::ladder::{AttemptPhase, LadderWalk, Next, RoundEnd, Run, RungAttempt};
use crate::prober::{CloseInitiator, GatherOutcome, ProberConfig};
use crate::server_under_test::ServerUnderTest;
use crate::trace::WindowTrace;

/// Enforces the monotone virtual clock, advancing `last` on success.
fn clock(last: &mut f64, now: f64, what: &str) -> Result<f64, ProtocolError> {
    if now < *last {
        return Err(format!("{what} moved the virtual clock backwards ({now} < {last})").into());
    }
    *last = now;
    Ok(now)
}

/// Refuses an ACK for data the server never sent. An honest prober
/// acknowledges only what it received; to tcpsim such an ACK would be
/// progress, and the window it inflates is memory the next `Xmit`
/// allocates.
fn sent(conn: &TcpServer, cum_ack: u64) -> Result<(), ProtocolError> {
    if cum_ack > conn.snd_nxt() {
        return Err(format!(
            "ACK {cum_ack} acknowledges data never sent (next to send: {})",
            conn.snd_nxt()
        )
        .into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// What the server side answers to one client frame.
#[derive(Debug, Default)]
pub struct Reply {
    /// The frame to write back, if any: a client frame is answered by
    /// one frame at most. A `Burst` that is `done` closes the connection
    /// once written.
    pub frames: Option<ServerFrame>,
}

enum ServerState {
    AwaitHello,
    Open(Box<TcpServer>),
    Closed,
}

/// Sanity cap on `RtoWait::max_waits`: the ladder uses 2, anything past
/// this is a hostile frame trying to spin the RTO loop.
const MAX_RTO_WAITS_CAP: u32 = 1024;

/// The server end of one probing connection (see the module docs for
/// the path it may play and the two rules it keeps): to the server `S`,
/// owned or lent, with the path's fates drawn from the caller's RNG `G`.
pub struct ServerCore<'a, S = ServerUnderTest, G = StdRng> {
    server: S,
    /// The path to the prober and the RNG of its fates; `None` on a wire
    /// that loses nothing.
    path: Option<(PathConfig, &'a mut G)>,
    inbox: Inbox,
    state: ServerState,
    /// Highest cumulative ACK delivered to the sender.
    server_cum: u64,
    /// Last virtual clock seen; the client's clock must be monotone.
    last_now: f64,
}

impl ServerCore<'static> {
    /// A fresh connection impersonating `server` over a clean wire, with
    /// a cache of its own.
    pub fn new(server: ServerUnderTest) -> Self {
        ServerCore::open(server, None)
    }
}

impl<'a, S: Borrow<ServerUnderTest>, G: Rng> ServerCore<'a, S, G> {
    /// A fresh connection to `server` across `path`, its fates drawn from
    /// `rng`. Lend it the server to share the server's cache.
    pub fn over_path(server: S, path: PathConfig, rng: &'a mut G) -> Self {
        ServerCore::open(server, Some((path, rng)))
    }

    fn open(server: S, path: Option<(PathConfig, &'a mut G)>) -> Self {
        ServerCore {
            server,
            path,
            inbox: Inbox::default(),
            state: ServerState::AwaitHello,
            server_cum: 0,
            last_now: f64::NEG_INFINITY,
        }
    }

    /// Closes the connection at `now` (the cache rule's deposit) unless
    /// the server has closed it already; returns which end did.
    pub fn close(&mut self, now: f64) -> CloseInitiator {
        let ServerState::Open(conn) = &self.state else {
            return CloseInitiator::Server;
        };
        self.server.borrow().disconnect(conn, now);
        self.state = ServerState::Closed;
        CloseInitiator::Prober
    }

    /// Takes back a frame this core answered with, so that its buffer
    /// holds the next round: a driver that keeps its frames in memory
    /// allocates nothing per round.
    pub fn recycle(&mut self, frame: ServerFrame) {
        // `deliver` clears it before use.
        if let ServerFrame::Burst { runs, .. } = frame {
            self.inbox.received = runs;
        }
    }

    /// Handles one client frame.
    pub fn on_frame(&mut self, frame: &ClientFrame) -> Result<Reply, ProtocolError> {
        let answer = match (&mut self.state, frame) {
            (ServerState::AwaitHello, ClientFrame::Hello { proposed_mss, now }) => {
                let now = clock(&mut self.last_now, *now, "Hello")?;
                let server = self.server.borrow();
                let granted_mss = server.granted_mss(*proposed_mss);
                let conn = Box::new(server.connect(*proposed_mss, now));
                self.state = ServerState::Open(conn);
                Some(ServerFrame::Welcome { granted_mss })
            }
            (ServerState::Open(conn), ClientFrame::Xmit { now, horizon }) => {
                if *horizon < *now {
                    return Err(format!("Xmit horizon {horizon} precedes its clock {now}").into());
                }
                // What bounds a burst on the wire: ACKs are held to data
                // sent, so the window only grows by honest rounds, and it
                // stops here. A core with a path is the simulator's, whose
                // bursts are never framed, and no window is capped there.
                if self.path.is_none() && conn.cwnd() as usize > MAX_BURST_SEQS {
                    return Err(format!(
                        "window of {} packets exceeds the cap of {MAX_BURST_SEQS}",
                        conn.cwnd()
                    )
                    .into());
                }
                let now = clock(&mut self.last_now, *now, "Xmit")?;
                let burst = conn.transmit(now);
                let (first, len) = (burst.seqs().start, burst.len() as u64);
                let inbox = &mut self.inbox;
                let (done, runs) = if len == 0 && inbox.carry.is_empty() {
                    let done = conn.finished();
                    if done {
                        self.close(now);
                    } else {
                        fire_rto_within(conn, now, *horizon);
                    }
                    (done, Vec::new())
                } else {
                    inbox.deliver(first, len, self.path.as_mut());
                    if inbox.received.is_empty() {
                        inbox.received.push(Run {
                            first,
                            len: 0,
                            duplicate: false,
                        });
                    }
                    (false, std::mem::take(&mut inbox.received))
                };
                Some(ServerFrame::Burst { done, runs })
            }
            (ServerState::Open(conn), ClientFrame::Ack { now, cum_ack, rtt }) => {
                sent(conn, *cum_ack)?;
                let now = clock(&mut self.last_now, *now, "Ack")?;
                let (cum, path) = (&mut self.server_cum, self.path.as_mut());
                deliver_acks(conn, cum, path, now, *cum_ack, 1, *rtt);
                None
            }
            (
                ServerState::Open(conn),
                ClientFrame::AckRun {
                    now,
                    first,
                    count,
                    rtt,
                },
            ) => {
                // Checked here as well as at decode: a frame built in
                // memory is held to the same bounds.
                let run = run_range("AckRun", *first, *count)?;
                sent(conn, *run.end())?;
                let now = clock(&mut self.last_now, *now, "AckRun")?;
                let (path, count) = (self.path.as_mut(), u64::from(*count));
                deliver_acks(conn, &mut self.server_cum, path, now, *first, count, *rtt);
                None
            }
            (ServerState::Open(conn), ClientFrame::RtoWait { now, max_waits }) => {
                if *max_waits > MAX_RTO_WAITS_CAP {
                    return Err(format!(
                        "RtoWait max_waits {max_waits} exceeds the cap of {MAX_RTO_WAITS_CAP}"
                    )
                    .into());
                }
                let now = clock(&mut self.last_now, *now, "RtoWait")?;
                self.inbox.carry.clear();
                let (responded, t) = await_rto(conn, now, *max_waits);
                self.last_now = t;
                Some(ServerFrame::RtoResult { responded, now: t })
            }
            (ServerState::AwaitHello, f) => return Err(format!("{f:?} before Hello").into()),
            (ServerState::Open(_), ClientFrame::Hello { .. }) => {
                return Err("second Hello on an open connection".to_owned().into())
            }
            (ServerState::Closed, f) => return Err(format!("{f:?} after close").into()),
        };
        Ok(Reply { frames: answer })
    }
}

/// The prober's end of the path. The buffers live as long as the
/// connection, so a round allocates nothing once they hold the (few)
/// runs of one.
#[derive(Debug, Default)]
struct Inbox {
    /// What arrived this round, in sequence order.
    received: Vec<Run>,
    /// Late packets and the spurious copies of duplicated ones, in the
    /// order sent: they surface next round.
    carry: Vec<Run>,
}

impl Inbox {
    /// Applies path fates to the burst `first .. first + len` — one draw a
    /// packet, in wire order; no path delivers all — behind the arrivals
    /// carried over from the previous round. Leaves this round's arrivals
    /// in `received`, in sequence order with carried packets ahead of
    /// equal sequence numbers, and the next round's carry in `carry`.
    /// Deliveries between two exceptions are one run, whatever their
    /// number; a loss or a late packet ends it.
    fn deliver<G: Rng>(
        &mut self,
        mut first: u64,
        mut left: u64,
        mut path: Option<&mut (PathConfig, &mut G)>,
    ) {
        self.received.clear();
        self.received.append(&mut self.carry);
        while left > 0 {
            let (delivered, fate) = match &mut path {
                Some((path, rng)) => path.data_run(left, &mut **rng),
                None => (left, None),
            };
            let arrived = delivered + u64::from(fate == Some(DataFate::Duplicated));
            Run::push(&mut self.received, first, arrived, false);
            let Some(fate) = fate else { break };
            let seq = first + delivered;
            if fate != DataFate::Lost {
                Run::push(&mut self.carry, seq, 1, fate == DataFate::Duplicated);
            }
            (first, left) = (seq + 1, left - delivered - 1);
        }
        // Stragglers lie below this round's burst and a burst ascends, so
        // arrival order is sequence order — unless the sender went back
        // with packets in flight. That rare round is sorted packet by
        // packet, earlier arrivals ahead of equal ones.
        let ends = |run: &Run| run.first + (run.len - 1);
        if !self.received.windows(2).all(|w| ends(&w[0]) <= w[1].first) {
            let mut packets = Vec::new();
            for r in &self.received {
                packets.extend((r.first..=ends(r)).map(|seq| (seq, r.duplicate)));
            }
            packets.sort_by_key(|&(seq, _)| seq);
            self.received.clear();
            for (seq, duplicate) in packets {
                Run::push(&mut self.received, seq, 1, duplicate);
            }
        }
    }
}

/// Delivers what the path lets through of the ACK train `first, first +
/// 1, …, first + count - 1` (all at `now` with the same `rtt`; a zero
/// `rtt` marks the F-RTO counter-measure duplicate): one fate per ACK, in
/// sending order; the ACKs between two losses reach the server as the
/// train they form.
///
/// A cumulative ACK that does not advance `server_cum`, the highest one
/// delivered so far, is dropped, which leaves a shorter train: TCP would
/// read it as a duplicate ACK and fast-retransmit. The ladder never sends
/// one, but a peer on a socket may, and its stale ACKs must not steer the
/// server's TCP stack. The F-RTO duplicate is intentionally a
/// non-advancing ACK and always goes through.
fn deliver_acks<G: Rng>(
    conn: &mut TcpServer,
    server_cum: &mut u64,
    mut path: Option<&mut (PathConfig, &mut G)>,
    now: f64,
    mut first: u64,
    mut left: u64,
    rtt: f64,
) {
    while left > 0 {
        let delivered = match &mut path {
            Some((path, rng)) => path.ack_run(left, &mut **rng),
            None => left,
        };
        if rtt == 0.0 {
            conn.on_ack_run(now, first, delivered, rtt);
        } else {
            let advancing = first.max(server_cum.saturating_add(1));
            let end = first.saturating_add(delivered);
            if advancing < end {
                *server_cum = end - 1;
                conn.on_ack_run(now, advancing, end - advancing, rtt);
            }
        }
        // The lost ACK that ended the train was sent as well.
        let sent = left.min(delivered + 1);
        (first, left) = (first + sent, left - sent);
    }
}

/// A round in which the server had nothing to send: every ACK of the
/// previous round was lost, so its own (unplanned) RTO fires if the
/// deadline falls before `horizon`, the end of the round.
fn fire_rto_within(conn: &mut TcpServer, now: f64, horizon: f64) {
    if let Some(deadline) = conn.rto_deadline() {
        if deadline <= horizon {
            conn.fire_rto(deadline.max(now));
        }
    }
}

/// The emulated timeout: with every ACK withheld since `now`, waits out
/// the server's RTO, re-armed up to `max_waits` times. Returns whether
/// the server retransmitted, and when the waiting ended.
fn await_rto(conn: &mut TcpServer, mut now: f64, max_waits: u32) -> (bool, f64) {
    for _ in 0..=max_waits {
        let Some(deadline) = conn.rto_deadline() else {
            break;
        };
        now = now.max(deadline);
        if conn.fire_rto(now) {
            return (true, now);
        }
    }
    (false, now)
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// What the transport driving a [`LadderCore`] must do next.
#[derive(Debug, PartialEq)]
pub enum Step {
    /// Open a (new) connection to the target, then call
    /// [`LadderCore::on_connected`].
    Connect,
    /// Write `frames`; then either close the connection and call
    /// [`LadderCore::on_closed`] (`close_after`), or wait for the next
    /// server frame and feed it to [`LadderCore::on_frame`].
    Send {
        /// Frames to write, in order.
        frames: Vec<ClientFrame>,
        /// Close after writing instead of awaiting a reply.
        close_after: bool,
    },
    /// The ladder walk is complete.
    Done(Box<GatherOutcome>),
}

/// The ladder walk of one probe over the protocol, as a sans-IO state
/// machine (a driver of [`crate::ladder`]).
///
/// Drive it with the [`Step`]s it returns; feed it connection lifecycle
/// events and server frames. [`abort`](LadderCore::abort) reduces any
/// transport failure to a [`GatherOutcome`] whose dominant failure reason
/// is `InvalidReason::TransportAborted`.
#[derive(Default)]
pub struct LadderCore {
    config: ProberConfig,
    walk: LadderWalk,
    /// The one attempt a [`one_attempt`](Self::one_attempt) core makes.
    only: Option<(EnvironmentId, u32)>,
    now: f64,
    /// One record per finished attempt, for observability replay: the
    /// core itself cannot hold a subscriber (it crosses the reactor
    /// thread).
    rungs: Vec<RungAttemptEnded>,
    /// The attempt on the open (or opening) connection.
    attempt: Option<RungAttempt>,
    /// The server's `Welcome` for that connection has arrived.
    welcomed: bool,
    /// The attempt whose closing `Send` is in flight, awaiting
    /// [`on_closed`](LadderCore::on_closed).
    closing: Option<WindowTrace>,
    /// A server frame is expected (an un-asked-for frame is a protocol
    /// violation).
    awaiting: bool,
    /// A `Send`'s buffer handed back by [`recycle`](Self::recycle).
    spare: Vec<ClientFrame>,
}

impl LadderCore {
    /// A ladder walk with the given prober configuration.
    pub fn new(config: ProberConfig) -> Self {
        LadderCore {
            config,
            ..LadderCore::default()
        }
    }

    /// A walk of one attempt, `(env, wmax)` from virtual time `start`,
    /// whatever the ladder would try: its outcome's one failed attempt is
    /// the trace.
    pub fn one_attempt(config: ProberConfig, env: EnvironmentId, wmax: u32, start: f64) -> Self {
        LadderCore {
            config,
            only: Some((env, wmax)),
            now: start,
            ..LadderCore::default()
        }
    }

    /// Starts the walk: the first [`Step`] to execute.
    pub fn start(&mut self) -> Step {
        self.advance()
    }

    /// Connects for the walk's next attempt, or finishes.
    fn advance(&mut self) -> Step {
        let next = match self.only {
            Some(only) => Some(only).filter(|_| self.rungs.is_empty()),
            None => self.walk.next(&self.config.wmax_ladder),
        };
        match next {
            Some((env, wmax)) => {
                self.attempt = Some(RungAttempt::new(env, wmax));
                self.welcomed = false;
                Step::Connect
            }
            None => {
                let walk = std::mem::take(&mut self.walk);
                Step::Done(Box::new(walk.finish()))
            }
        }
    }

    /// Rung attempt records for observability replay (one per finished
    /// attempt, in order).
    pub fn rungs(&self) -> &[RungAttemptEnded] {
        &self.rungs
    }

    /// The walk's virtual clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The attempt on the open (or opening) connection.
    pub fn attempt(&self) -> Option<&RungAttempt> {
        self.attempt.as_ref()
    }

    /// Takes back the frames of a [`Step::Send`], so that their buffer
    /// holds the next one.
    pub fn recycle(&mut self, mut frames: Vec<ClientFrame>) {
        frames.clear();
        self.spare = frames;
    }

    /// The connection requested by [`Step::Connect`] is established.
    pub fn on_connected(&mut self) -> Step {
        debug_assert!(self.attempt.is_some() && !self.awaiting);
        self.awaiting = true;
        let mut frames = std::mem::take(&mut self.spare);
        frames.push(ClientFrame::Hello {
            proposed_mss: self.config.proposed_mss,
            now: self.now,
        });
        Step::Send {
            frames,
            close_after: false,
        }
    }

    /// The close requested by a `close_after` [`Step::Send`] completed.
    pub fn on_closed(&mut self) -> Step {
        let trace = self
            .closing
            .take()
            .expect("on_closed without a closing attempt");
        // The inter-connection wait defeats ssthresh caching (§IV-C); it
        // advances the *virtual* clock only — the transport never sleeps
        // 630 real seconds.
        self.now += self.config.inter_connection_wait;
        self.walk.record(trace);
        self.advance()
    }

    /// The transport failed underneath the walk (connect refused, reset,
    /// IO timeout, decode error) and its retry budget is spent: reduce
    /// everything gathered so far to a terminal outcome.
    pub fn abort(&mut self) -> Step {
        let in_flight = self.attempt.take().map(|mut attempt| {
            attempt.abort();
            self.rungs.push(attempt.ended());
            attempt.into_trace()
        });
        // An attempt that finished but whose close was interrupted joins
        // the failures too: the gather is dead either way.
        self.walk.abort(in_flight, self.closing.take());
        self.awaiting = false;
        self.advance()
    }

    /// Handles one server frame.
    pub fn on_frame(&mut self, frame: &ServerFrame) -> Result<Step, ProtocolError> {
        let Some(attempt) = self.attempt.as_mut().filter(|_| self.awaiting) else {
            return Err(format!("unsolicited {frame:?}").into());
        };
        let end = match frame {
            ServerFrame::Welcome { granted_mss } if !self.welcomed => {
                self.welcomed = true;
                attempt.set_mss(*granted_mss);
                Some(RoundEnd {
                    elapsed: 0.0,
                    next: Next::Transmit,
                })
            }
            ServerFrame::Burst { done, runs } if self.welcomed => {
                if runs.is_empty() {
                    attempt.on_silent_round(&self.config, *done)
                } else {
                    attempt.on_round(&self.config, runs)
                }
            }
            ServerFrame::RtoResult { responded, now }
                if attempt.phase() == AttemptPhase::AwaitRto =>
            {
                if !now.is_finite() || *now < self.now {
                    return Err(format!(
                        "RtoResult clock {now} precedes the walk's clock {}",
                        self.now
                    )
                    .into());
                }
                // The virtual clock froze while the ACKs were withheld;
                // it resumes where the server's RTO fired.
                self.now = *now;
                attempt.on_rto(*responded)
            }
            _ => None,
        };
        let Some(end) = end else {
            return Err(format!("{frame:?} out of phase").into());
        };

        // The round's ACKs go out one emulated RTT after its data came in.
        self.now += end.elapsed;
        let now = self.now;
        // The ladder's ACK runs go out as they are, after the F-RTO
        // duplicate if any. Only a train longer than a frame may name is
        // cut.
        let mut frames = std::mem::take(&mut self.spare);
        for acks in attempt.acks() {
            if acks.duplicate {
                frames.push(ClientFrame::Ack {
                    now,
                    cum_ack: acks.first,
                    rtt: 0.0,
                });
                continue;
            }
            let (mut first, mut left) = (acks.first, acks.len);
            while left > 0 {
                let count = left.min(MAX_BURST_SEQS as u64);
                frames.push(ClientFrame::AckRun {
                    now,
                    first,
                    count: count as u32,
                    rtt: end.elapsed,
                });
                (first, left) = (first + count, left - count);
            }
        }
        match end.next {
            Next::Transmit => frames.push(ClientFrame::Xmit {
                now,
                horizon: now + attempt.round_rtt(),
            }),
            Next::AwaitRto => frames.push(ClientFrame::RtoWait {
                now,
                max_waits: self.config.max_rto_waits,
            }),
            Next::Close(_) => {
                // The attempt is over: record its rung and hold the trace
                // until the transport confirms the close.
                self.awaiting = false;
                self.rungs.push(attempt.ended());
                self.closing = self.attempt.take().map(RungAttempt::into_trace);
            }
        }
        Ok(Step::Send {
            frames,
            close_after: self.closing.is_some(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_congestion::AlgorithmId;
    use caai_netem::rng::seeded;

    /// A RENO server that has answered the handshake and sent its first
    /// burst; returns it with the burst's one run of sequence numbers.
    fn opened() -> (ServerCore<'static>, Run) {
        let mut server = ServerCore::new(ServerUnderTest::ideal(AlgorithmId::Reno));
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        server.on_frame(&hello).unwrap();
        let xmit = ClientFrame::Xmit {
            now: 0.0,
            horizon: 1.0,
        };
        let reply = server.on_frame(&xmit).unwrap();
        let Some(ServerFrame::Burst { runs, .. }) = reply.frames else {
            panic!("an Xmit is answered by one Burst, got {:?}", reply.frames);
        };
        let [run] = runs.as_slice() else {
            panic!("a tcpsim burst is one run, got {runs:?}");
        };
        (server, *run)
    }

    #[test]
    fn acks_for_data_never_sent_are_refused_single_or_run() {
        let (mut server, sent) = opened();
        let next = sent.first + sent.len;
        // Everything sent may be acknowledged...
        let all = ClientFrame::AckRun {
            now: 1.0,
            first: 1,
            count: next as u32,
            rtt: 1.0,
        };
        assert!(server.on_frame(&all).is_ok());
        // ...one past it may not, however it is framed.
        let (mut by_run, _) = opened();
        let run = ClientFrame::AckRun {
            now: 1.0,
            first: 1,
            count: next as u32 + 1,
            rtt: 1.0,
        };
        let err = by_run.on_frame(&run).unwrap_err();
        assert!(err.reason.contains("never sent"), "{err}");
        let (mut by_ack, _) = opened();
        let ack = ClientFrame::Ack {
            now: 1.0,
            cum_ack: next + 1,
            rtt: 1.0,
        };
        let err = by_ack.on_frame(&ack).unwrap_err();
        assert!(err.reason.contains("never sent"), "{err}");
    }

    #[test]
    fn stale_acks_from_the_peer_never_reach_the_sender() {
        // Acknowledge all but the last packet of the first burst, then
        // repeat that cumulative ACK `stale` times: the repeats do not
        // advance it, so they are dropped before the sender could count
        // them as duplicate ACKs (three would fast-retransmit).
        let next_burst = |stale: usize| {
            let (mut server, sent) = opened();
            assert!(sent.len >= 2, "an initial window of at least 2");
            let acked = sent.len - 1;
            let run = ClientFrame::AckRun {
                now: 1.0,
                first: 1,
                count: acked as u32,
                rtt: 1.0,
            };
            server.on_frame(&run).unwrap();
            let repeat = ClientFrame::Ack {
                now: 1.0,
                cum_ack: acked,
                rtt: 1.0,
            };
            for _ in 0..stale {
                assert!(server.on_frame(&repeat).unwrap().frames.is_none());
            }
            let ServerState::Open(conn) = &server.state else {
                panic!("the connection is open");
            };
            let window = (conn.cwnd(), conn.ssthresh(), conn.snd_una(), conn.snd_nxt());
            let xmit = ClientFrame::Xmit {
                now: 1.0,
                horizon: 2.0,
            };
            (window, server.on_frame(&xmit).unwrap().frames)
        };
        assert_eq!(next_burst(3), next_burst(0));
    }

    #[test]
    fn an_ack_run_built_in_memory_is_held_to_the_decoder_s_checks() {
        for (first, count, named) in [
            (1, 0, "empty AckRun"),
            (1, MAX_BURST_SEQS as u32 + 1, "exceeds the cap"),
            (u64::MAX, 2, "overflows u64"),
        ] {
            let (mut server, _) = opened();
            let run = ClientFrame::AckRun {
                now: 1.0,
                first,
                count,
                rtt: 1.0,
            };
            let err = server.on_frame(&run).unwrap_err();
            assert!(err.reason.contains(named), "{err}");
        }
    }

    #[test]
    fn a_round_lost_whole_is_one_empty_run() {
        let server = ServerUnderTest::ideal(AlgorithmId::Reno);
        let mut rng = seeded(5);
        let mut core = ServerCore::over_path(&server, PathConfig::lossy(1.0), &mut rng);
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        core.on_frame(&hello).unwrap();
        let xmit = ClientFrame::Xmit {
            now: 0.0,
            horizon: 1.0,
        };
        let burst = core.on_frame(&xmit).unwrap().frames;
        let Some(ServerFrame::Burst { done: false, runs }) = burst else {
            panic!("a Burst, got {burst:?}");
        };
        assert!(matches!(runs[..], [Run { len: 0, .. }]), "{runs:?}");
    }

    /// One packet as the prober received it, as rounds were before they
    /// were runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Carried {
        seq: u64,
        duplicate: bool,
    }

    /// The packets `runs` stand for, in order.
    fn packets(runs: &[Run]) -> Vec<Carried> {
        let unrolled = runs.iter().flat_map(|r| {
            let duplicate = r.duplicate;
            (r.first..r.first + r.len).map(move |seq| Carried { seq, duplicate })
        });
        unrolled.collect()
    }

    /// The per-packet `deliver` that the run form replaced, kept as its
    /// oracle: one arrival per packet, a stable sort over all of them.
    fn deliver_per_packet(
        wire: &[u64],
        carry: &mut Vec<Carried>,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> Vec<Carried> {
        let mut received = std::mem::take(carry);
        for &seq in wire {
            let arrival = Carried {
                seq,
                duplicate: false,
            };
            match path.data_fate(rng) {
                DataFate::Delivered => received.push(arrival),
                DataFate::Lost => {}
                DataFate::Duplicated => {
                    received.push(arrival);
                    carry.push(Carried {
                        duplicate: true,
                        ..arrival
                    });
                }
                DataFate::Late => carry.push(arrival),
            }
        }
        received.sort_by_key(|p| p.seq);
        received
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        #[test]
        fn run_deliver_is_the_per_packet_deliver(seed in 0u64..u64::MAX) {
            use rand::RngCore;
            let mut draw = seeded(seed);
            let mut below = move |n: u64| draw.next_u64() % n;
            let path = PathConfig {
                data_loss: [0.0, 0.02, 0.3][below(3) as usize],
                ack_loss: 0.0,
                data_dup: [0.0, 0.01, 0.2][below(3) as usize],
                late_prob: [0.0, 0.05, 0.25][below(3) as usize],
            };
            // Any carry, not only one a previous round could have left.
            let mut carry: Vec<Carried> = (0..below(6))
                .map(|_| Carried { seq: below(60), duplicate: below(2) == 0 })
                .collect();
            let mut inbox = Inbox::default();
            for late in &carry {
                Run::push(&mut inbox.carry, late.seq, 1, late.duplicate);
            }
            let (mut rng, mut oracle_rng) = (seeded(seed ^ 1), seeded(seed ^ 1));
            for round in 0..4 {
                // A sender's burst is one run, and may start below the
                // carry when the sender went back.
                let (first, len) = (below(60), below(80));
                inbox.deliver(first, len, Some(&mut (path, &mut rng)));
                let wire: Vec<u64> = (first..first + len).collect();
                let expected = deliver_per_packet(&wire, &mut carry, &path, &mut oracle_rng);
                let (received, carried) = (packets(&inbox.received), packets(&inbox.carry));
                proptest::prop_assert!(
                    received == expected,
                    "round {round}: {received:?} is not {expected:?}"
                );
                proptest::prop_assert!(
                    carried == carry,
                    "round {round}: carry {carried:?} is not {carry:?}"
                );
                proptest::prop_assert!(inbox.received.iter().all(|r| r.len > 0));
                proptest::prop_assert!(rng.next_u64() == oracle_rng.next_u64(), "RNG streams diverged");
            }
        }
    }
}
