//! Sans-IO protocol cores: the ladder client and the emulated server.
//!
//! Both ends of the probe wire protocol live here as pure state
//! machines — frames in, frames out, no sockets, no clocks. The reactor
//! drives [`LadderCore`] over real sockets;
//! [`EmulatedServer`](crate::emulated::EmulatedServer) drives
//! [`ServerCore`] over loopback listeners; the in-memory tests drive
//! both against each other and pin the result to
//! [`Prober::gather`](caai_core::prober::Prober::gather) byte for
//! byte. One implementation of the §IV ladder logic, three harnesses.
//!
//! That one implementation is [`caai_core::ladder`]. [`LadderCore`] is
//! its wire-protocol driver: it turns server frames into the events
//! [`RungAttempt`] takes and the [`RoundEnd`]s it returns into client
//! frames, keeps the virtual clock and rejects frames the protocol does
//! not expect. How long a round lasts in real time is the path's business
//! (an emulated server holds its replies), never the prober's.
//! The loopback wire is clean, so every `Burst` is a round's arrivals
//! as sent, handed to the ladder as the runs it names, and the ladder's
//! ACK runs go back as they come: one `AckRun` per train (a new one
//! wherever a hostile server's sequence numbers jump; the F-RTO
//! duplicate stays the lone `Ack` it is). [`LadderWalk`] decides which
//! connection comes next.
//!
//! [`ServerCore`] impersonates a [`ServerUnderTest`] but never calls its
//! `disconnect`, so every connection starts with an empty ssthresh
//! cache instead of one shared across connections. The prober's
//! `inter_connection_wait` (630 s) strictly exceeds the cache TTL
//! (600 s), so the simulator's shared cache is always expired by the
//! next connection anyway — an empty cache reproduces the default
//! configuration exactly while keeping emulated connections independent
//! (they may interleave on one listener). It reacts to ACKs, silent
//! rounds and the emulated timeout through the same `caai_core::prober`
//! helpers the simulator's server end uses: an `AckRun` is one
//! `deliver_ack_run`, which leaves the tcpsim sender where its ACKs
//! delivered singly would have, so the sender cannot tell the two wire
//! forms apart.

use caai_core::ladder::{AttemptPhase, LadderWalk, Next, RoundEnd, Run, RungAttempt};
use caai_core::prober::{await_rto, deliver_ack_run, fire_rto_within};
use caai_core::{GatherOutcome, ProberConfig, ServerUnderTest, WindowTrace};
use caai_obs::RungAttemptEnded;
use caai_tcpsim::TcpServer;
use std::fmt;

use crate::frame::{run_range, ClientFrame, ServerFrame, MAX_BURST_SEQS};

/// A peer violated the probe protocol (frame out of state, clock moving
/// backwards, absurd field values). The connection is unusable after
/// one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What the peer did wrong.
    pub reason: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ProtocolError {}

fn violation(reason: impl Into<String>) -> ProtocolError {
    ProtocolError {
        reason: reason.into(),
    }
}

/// Enforces the monotone virtual clock, advancing `last` on success.
fn clock(last: &mut f64, now: f64, what: &str) -> Result<f64, ProtocolError> {
    if now < *last {
        return Err(violation(format!(
            "{what} moved the virtual clock backwards ({now} < {last})"
        )));
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
        return Err(violation(format!(
            "ACK {cum_ack} acknowledges data never sent (next to send: {})",
            conn.snd_nxt()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// What the server side wants done after handling one client frame.
#[derive(Debug, Default)]
pub struct Reply {
    /// Frames to write back, in order.
    pub frames: Vec<ServerFrame>,
    /// Close the connection after writing them.
    pub close: bool,
}

enum ServerState {
    AwaitHello,
    Open {
        conn: Box<TcpServer>,
        server_cum: u64,
    },
    Closed,
}

/// Sanity cap on `RtoWait::max_waits`: the ladder uses 2, anything past
/// this is a hostile frame trying to spin the RTO loop.
const MAX_RTO_WAITS_CAP: u32 = 1024;

/// The emulated server's protocol state machine: one instance per
/// accepted connection.
pub struct ServerCore {
    server: ServerUnderTest,
    state: ServerState,
    /// Last virtual clock seen; the client's clock must be monotone.
    last_now: f64,
}

impl ServerCore {
    /// A fresh connection impersonating `server`.
    pub fn new(server: ServerUnderTest) -> Self {
        ServerCore {
            server,
            state: ServerState::AwaitHello,
            last_now: f64::NEG_INFINITY,
        }
    }

    /// Handles one decoded client frame.
    pub fn on_frame(&mut self, frame: &ClientFrame) -> Result<Reply, ProtocolError> {
        match (&mut self.state, frame) {
            (ServerState::AwaitHello, ClientFrame::Hello { proposed_mss, now }) => {
                let now = clock(&mut self.last_now, *now, "Hello")?;
                let granted = self.server.granted_mss(*proposed_mss);
                // Never `disconnect`ed, so the cache stays empty: see the
                // module docs for why that matches the simulator.
                let conn = self.server.connect(*proposed_mss, now);
                self.state = ServerState::Open {
                    conn: Box::new(conn),
                    server_cum: 0,
                };
                Ok(Reply {
                    frames: vec![ServerFrame::Welcome {
                        granted_mss: granted,
                    }],
                    close: false,
                })
            }
            (ServerState::Open { conn, .. }, ClientFrame::Xmit { now, horizon }) => {
                if *horizon < *now {
                    return Err(violation(format!(
                        "Xmit horizon {horizon} precedes its clock {now}"
                    )));
                }
                // What bounds a burst in memory and on the wire: ACKs are
                // held to data sent, so the window only grows by honest
                // rounds, and it stops here.
                if conn.cwnd() as usize > MAX_BURST_SEQS {
                    return Err(violation(format!(
                        "window of {} packets exceeds the cap of {MAX_BURST_SEQS}",
                        conn.cwnd()
                    )));
                }
                let now = clock(&mut self.last_now, *now, "Xmit")?;
                let burst = conn.transmit(now);
                if burst.is_empty() {
                    if conn.finished() {
                        self.state = ServerState::Closed;
                        return Ok(Reply {
                            frames: vec![ServerFrame::Burst {
                                done: true,
                                runs: vec![],
                            }],
                            close: true,
                        });
                    }
                    fire_rto_within(conn, now, *horizon);
                    return Ok(Reply {
                        frames: vec![ServerFrame::Burst {
                            done: false,
                            runs: vec![],
                        }],
                        close: false,
                    });
                }
                Ok(Reply {
                    frames: vec![ServerFrame::Burst {
                        done: false,
                        runs: vec![Run {
                            first: burst.seqs().start,
                            len: burst.len() as u64,
                            duplicate: false,
                        }],
                    }],
                    close: false,
                })
            }
            (ServerState::Open { conn, server_cum }, ClientFrame::Ack { now, cum_ack, rtt }) => {
                sent(conn, *cum_ack)?;
                let now = clock(&mut self.last_now, *now, "Ack")?;
                deliver_ack_run(conn, server_cum, now, *cum_ack, 1, *rtt);
                Ok(Reply::default())
            }
            (
                ServerState::Open { conn, server_cum },
                ClientFrame::AckRun {
                    now,
                    first,
                    count,
                    rtt,
                },
            ) => {
                // Checked here as well as at decode: a frame built in
                // memory is held to the same bounds.
                let run = run_range("AckRun", *first, *count).map_err(|e| violation(e.reason))?;
                sent(conn, *run.end())?;
                let now = clock(&mut self.last_now, *now, "AckRun")?;
                deliver_ack_run(conn, server_cum, now, *first, u64::from(*count), *rtt);
                Ok(Reply::default())
            }
            (ServerState::Open { conn, .. }, ClientFrame::RtoWait { now, max_waits }) => {
                if *max_waits > MAX_RTO_WAITS_CAP {
                    return Err(violation(format!(
                        "RtoWait max_waits {max_waits} exceeds the cap of {MAX_RTO_WAITS_CAP}"
                    )));
                }
                let now = clock(&mut self.last_now, *now, "RtoWait")?;
                let (responded, t) = await_rto(conn, now, *max_waits);
                self.last_now = t;
                Ok(Reply {
                    frames: vec![ServerFrame::RtoResult { responded, now: t }],
                    close: false,
                })
            }
            (ServerState::AwaitHello, f) => Err(violation(format!("{f:?} before Hello"))),
            (ServerState::Open { .. }, ClientFrame::Hello { .. }) => {
                Err(violation("second Hello on an open connection"))
            }
            (ServerState::Closed, f) => Err(violation(format!("{f:?} after close"))),
        }
    }
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

/// One finished rung attempt, for observability replay: recorded
/// because the core itself cannot hold a subscriber (it crosses the
/// reactor thread).
pub type RungRecord = RungAttemptEnded;

/// The ladder walk of `Prober::gather` over the wire protocol, as a
/// sans-IO state machine (a driver of [`caai_core::ladder`]).
///
/// Drive it with the [`Step`]s it returns; feed it connection lifecycle
/// events and decoded server frames. [`abort`](LadderCore::abort)
/// reduces any transport failure to a [`GatherOutcome`] whose dominant
/// failure reason is `InvalidReason::TransportAborted`.
pub struct LadderCore {
    config: ProberConfig,
    walk: LadderWalk,
    now: f64,
    rungs: Vec<RungRecord>,
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
}

impl LadderCore {
    /// A ladder walk with the given prober configuration.
    pub fn new(config: ProberConfig) -> Self {
        LadderCore {
            config,
            walk: LadderWalk::new(),
            now: 0.0,
            rungs: Vec::new(),
            attempt: None,
            welcomed: false,
            closing: None,
            awaiting: false,
        }
    }

    /// Starts the walk: the first [`Step`] to execute.
    pub fn start(&mut self) -> Step {
        self.advance()
    }

    /// Connects for the walk's next attempt, or finishes.
    fn advance(&mut self) -> Step {
        match self.walk.next(&self.config.wmax_ladder) {
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
    pub fn rungs(&self) -> &[RungRecord] {
        &self.rungs
    }

    /// The connection requested by [`Step::Connect`] is established.
    pub fn on_connected(&mut self) -> Step {
        debug_assert!(self.attempt.is_some() && !self.awaiting);
        self.awaiting = true;
        Step::Send {
            frames: vec![ClientFrame::Hello {
                proposed_mss: self.config.proposed_mss,
                now: self.now,
            }],
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

    /// Handles one decoded server frame.
    pub fn on_frame(&mut self, frame: &ServerFrame) -> Result<Step, ProtocolError> {
        let Some(attempt) = self.attempt.as_mut().filter(|_| self.awaiting) else {
            return Err(violation(format!("unsolicited {frame:?}")));
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
                    return Err(violation(format!(
                        "RtoResult clock {now} precedes the walk's clock {}",
                        self.now
                    )));
                }
                // The virtual clock froze while the ACKs were withheld;
                // it resumes where the server's RTO fired.
                self.now = *now;
                attempt.on_rto(*responded)
            }
            _ => None,
        };
        let Some(end) = end else {
            return Err(violation(format!("{frame:?} out of phase")));
        };

        // The round's ACKs go out one emulated RTT after its data came in.
        self.now += end.elapsed;
        let now = self.now;
        // The ladder's ACK runs go out as they are: on a clean wire one
        // `AckRun`, after the F-RTO duplicate if any. Only a train longer
        // than a frame may name is cut.
        let mut frames = Vec::with_capacity(3);
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
                first += count;
                left -= count;
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

    /// A RENO server that has answered the handshake and sent its first
    /// burst; returns it with the burst's one run of sequence numbers.
    fn opened() -> (ServerCore, Run) {
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
        let [ServerFrame::Burst { runs, .. }] = reply.frames.as_slice() else {
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
                assert!(server.on_frame(&repeat).unwrap().frames.is_empty());
            }
            let ServerState::Open { conn, .. } = &server.state else {
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
    fn a_burst_of_adjacent_runs_drives_the_ladder_as_their_union_does() {
        use crate::frame::{encode, FrameDecoder};
        let burst = |runs: &[(u64, u64)]| ServerFrame::Burst {
            done: false,
            runs: runs
                .iter()
                .map(|&(first, len)| Run {
                    first,
                    len,
                    duplicate: false,
                })
                .collect(),
        };
        // The ladder's answer to the burst, and to the round after it.
        let walk = |first_round: &ServerFrame| {
            let mut core = LadderCore::new(ProberConfig::default());
            assert_eq!(core.start(), Step::Connect);
            core.on_connected();
            core.on_frame(&ServerFrame::Welcome { granted_mss: 100 })
                .unwrap();
            let answer = core.on_frame(first_round).unwrap();
            (answer, core.on_frame(&burst(&[(10, 10)])).unwrap())
        };
        let mut decoder = FrameDecoder::new();
        decoder.push(&encode(&burst(&[(5, 2), (7, 3)])));
        let decoded: ServerFrame = decoder.next().unwrap().expect("one whole frame");
        assert_eq!(decoded, burst(&[(5, 5)]), "adjacent runs decode merged");
        assert_eq!(walk(&decoded), walk(&burst(&[(5, 5)])));
        // A hole between the runs is a different round.
        assert_ne!(walk(&burst(&[(5, 2), (8, 3)])), walk(&burst(&[(5, 5)])));
    }
}
