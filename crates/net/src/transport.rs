//! [`NetTransport`]: the census engine's real-socket probe source.
//!
//! Implements `caai-core`'s [`ProbeTransport`] seam: the engine asks
//! for dense ids `0..population`, the transport maps each id to a
//! resolved target, runs the ladder through the reactor, and reduces
//! the outcome with the *same* verdict pipeline the simulator uses
//! ([`verdict_for_outcome`]). Unresolvable targets and dead reactors
//! never panic and never block: they reduce to
//! `Invalid(TransportAborted)` records, the census's skip-and-report
//! idiom at the transport layer.
//!
//! One reactor runs per CPU of the calling thread's affinity mask, at
//! most one per session slot, reactor *i* confined to the mask's *i*-th
//! CPU ([`sys::loop_cpus`], the rule the emulated fleet's loops follow
//! too): a probe's hand-offs stay on one CPU, and two probes in flight
//! use two. A one-CPU mask or `max_sessions = 1` gives one reactor.
//!
//! The reactors hold the sessions, so the transport takes submissions:
//! its [`capacity`](ProbeTransport::capacity) is `max_sessions`, and the
//! engine keeps that many probes submitted from its one coordinating
//! thread. A blocking [`probe`](ProbeTransport::probe) still works, for
//! callers that bring threads of their own.
//!
//! Observability: rung attempts and gather completions recorded by the
//! session's [`LadderCore`](caai_core::sansio::LadderCore) are replayed into
//! the subscriber of whoever collects the probe (`probe`'s caller, or
//! `next_finished`'s), never on a reactor thread (reactor threads only
//! emit their own `ReactorTicked` / `ReactorExited` /
//! `RateLimiterStalled` events into the transport-wide subscriber), so
//! `--metrics` floors hold identically for simulated and live runs.

use std::net::{Ipv4Addr, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use caai_core::census::{verdict_for_outcome, CensusRecord};
use caai_core::{
    CaaiClassifier, GatherOutcome, InvalidReason, ProbeTransport, WindowTrace, DEFAULT_LADDER,
};
use caai_netem::EnvironmentId;
use caai_obs::{
    span_begin, Event, NetSessionEnded, ReactorExited, RungAttemptStarted, SpanKind, Subscriber,
};

use crate::reactor::{Admission, Command, NetConfig, Probe, Reactor, SessionResult, SessionStats};
use crate::runtime::{self, EventLoop, Handle};
use crate::sys;
use crate::targets::Target;

/// A live-socket [`ProbeTransport`] over a resolved target list.
///
/// `R` is the *reactor's* subscriber (shared, `Sync`); each `probe` or
/// `next_finished` call additionally gets its caller's own subscriber,
/// like every other instrumentation point in the workspace.
pub struct NetTransport<R: Subscriber + Send + Sync + 'static> {
    /// Per-id resolution: ready targets or the reason they will abort.
    resolved: Vec<Result<(Ipv4Addr, u16), String>>,
    targets: Vec<Target>,
    classifier: CaaiClassifier,
    first_rung: u32,
    reactors: Vec<ReactorHandle>,
    /// Where submitted probes' results arrive.
    finished_tx: mpsc::Sender<SessionResult>,
    finished: Mutex<mpsc::Receiver<SessionResult>>,
    _obs: Arc<R>,
}

/// One running reactor, as the submitting side sees it.
struct ReactorHandle {
    commands: Handle<Command>,
    /// This reactor's share of `max_sessions`.
    cap: usize,
    /// Probes submitted and not yet answered, queued ones included. A
    /// placement hint that publishes nothing, so every access is relaxed.
    unanswered: Arc<AtomicUsize>,
    thread: JoinHandle<()>,
}

impl<R: Subscriber + Send + Sync + 'static> NetTransport<R> {
    /// Resolves `targets`, starts the reactor threads, and returns the
    /// transport. Resolution happens once, up front: a census must not
    /// re-resolve (and possibly re-route) mid-run. Unresolvable targets
    /// are kept — they probe as instant `TransportAborted` records. A
    /// `max_sessions` of 0 is `InvalidInput`: no probe could ever run.
    pub fn new(
        targets: Vec<Target>,
        classifier: CaaiClassifier,
        config: NetConfig,
        obs: Arc<R>,
    ) -> std::io::Result<Self> {
        if config.max_sessions == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "max_sessions must be at least 1",
            ));
        }
        let resolved = targets.iter().map(resolve).collect();
        let ladder = &config.prober.wmax_ladder;
        let first_rung = *ladder.first().unwrap_or(&DEFAULT_LADDER[0]);
        let cpus = sys::loop_cpus(config.max_sessions);
        let count = cpus.len();
        let admission = Arc::new(Admission::new(&config));
        let (finished_tx, finished) = mpsc::channel();
        let mut transport = NetTransport {
            resolved,
            targets,
            classifier,
            first_rung,
            reactors: Vec::with_capacity(count),
            finished_tx,
            finished: Mutex::new(finished),
            _obs: Arc::clone(&obs),
        };
        for (i, cpu) in cpus.into_iter().enumerate() {
            // The caps add up to `max_sessions` exactly.
            let cap = config.max_sessions / count + usize::from(i < config.max_sessions % count);
            let reactor_config = NetConfig {
                max_sessions: cap,
                ..config.clone()
            };
            // On an error, dropping `transport` stops the reactors started.
            let reactor = spawn_reactor(reactor_config, &obs, &admission, cpu)?;
            transport.reactors.push(reactor);
        }
        Ok(transport)
    }

    /// Targets that failed DNS/address resolution: `(id, target, why)`.
    /// The CLI reports these up front, skip-and-report style.
    pub fn resolution_failures(&self) -> Vec<(u32, &Target, &str)> {
        self.resolved
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Ok(_) => None,
                Err(why) => Some((i as u32, &self.targets[i], why.as_str())),
            })
            .collect()
    }

    /// Submits a probe without blocking: the result arrives on the
    /// returned channel, raw (no events replayed, not classified). Used
    /// by the concurrency tests to load the reactors from one thread.
    pub fn probe_async(&self, id: u32) -> mpsc::Receiver<SessionResult> {
        let (tx, rx) = mpsc::channel();
        self.send_probe(id, tx);
        rx
    }

    /// Hands probe `id` to the reactor with the most free session slots;
    /// its result goes to `reply`.
    fn send_probe(&self, id: u32, reply: mpsc::Sender<SessionResult>) {
        match self.resolved.get(id as usize) {
            Some(&Ok((ip, port))) => {
                let reactor = self.take_slot();
                let probe = Command::Probe(Probe {
                    id,
                    ip,
                    port,
                    reply,
                });
                if let Err(mpsc::SendError(Command::Probe(probe))) = reactor.commands.send(probe) {
                    // The reactor is gone: the probe never reaches the wire.
                    reactor.unanswered.fetch_sub(1, Ordering::Relaxed);
                    let _ = probe.reply.send(self.aborted_result(id));
                }
            }
            _ => {
                let _ = reply.send(self.aborted_result(id));
            }
        }
    }

    /// Replays a finished probe's events into `obs` and classifies it.
    fn record<S: Subscriber>(&self, result: SessionResult, obs: &S) -> CensusRecord {
        for rung in &result.rungs {
            obs.on_event(&Event::RungAttemptStarted(RungAttemptStarted {
                environment: rung.environment,
                wmax: rung.wmax,
            }));
            obs.on_event(&Event::RungAttemptEnded(*rung));
        }
        obs.on_event(&result.outcome.finished_event());
        obs.on_event(&Event::NetSessionEnded(NetSessionEnded {
            connections: result.stats.connections,
            retries: result.stats.retries,
            timed_out: result.stats.timeouts,
            aborted: result.stats.aborted,
            bytes_sent: result.stats.bytes_sent,
            bytes_received: result.stats.bytes_received,
            frames_sent: result.stats.frames_sent,
            reads: result.stats.reads,
            writes: result.stats.writes,
        }));
        let classify_span = span_begin(obs, SpanKind::Classify, i64::from(result.id), 0);
        let (verdict, _) = verdict_for_outcome(&result.outcome, &self.classifier);
        classify_span.end(obs);
        CensusRecord {
            server_id: result.id,
            truth: None,
            verdict,
        }
    }

    /// Counts a probe against the reactor with the most free session
    /// slots (the lowest index on a tie) and returns that reactor.
    fn take_slot(&self) -> &ReactorHandle {
        loop {
            // Most free slots is fewest probes beyond the cap, and
            // `min_by_key` keeps the first of equals.
            let (reactor, seen) = self
                .reactors
                .iter()
                .map(|r| (r, r.unanswered.load(Ordering::Relaxed)))
                .min_by_key(|&(r, seen)| seen as isize - r.cap as isize)
                .expect("a transport runs at least one reactor");
            // Another caller may have taken the slot since it was read.
            let taken = reactor.unanswered.compare_exchange(
                seen,
                seen + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            if taken.is_ok() {
                return reactor;
            }
        }
    }

    /// The outcome of a probe that never reached the wire.
    fn aborted_result(&self, id: u32) -> SessionResult {
        SessionResult {
            id,
            outcome: GatherOutcome {
                pair: None,
                failed_attempts: vec![WindowTrace {
                    env: EnvironmentId::A,
                    wmax_threshold: self.first_rung,
                    mss: 0,
                    pre: Vec::new(),
                    post: Vec::new(),
                    invalid: Some(InvalidReason::TransportAborted),
                }],
            },
            rungs: Vec::new(),
            stats: SessionStats {
                aborted: true,
                ..SessionStats::default()
            },
        }
    }
}

impl<R: Subscriber + Send + Sync + 'static> ProbeTransport for NetTransport<R> {
    fn population(&self) -> u64 {
        self.resolved.len() as u64
    }

    fn probe<S: Subscriber>(&self, id: u32, _seed: u64, obs: &S) -> CensusRecord {
        // The caller-side gather span: submission to result, queueing in
        // the reactor included (that wait IS this server's wall cost).
        let gather_span = span_begin(obs, SpanKind::Gather, i64::from(id), 0);
        let result = self.probe_async(id).recv();
        gather_span.end(obs);
        // A reactor that died mid-probe closed the channel: reduce, don't panic.
        self.record(result.unwrap_or_else(|_| self.aborted_result(id)), obs)
    }

    fn capacity(&self) -> usize {
        self.reactors.iter().map(|r| r.cap).sum()
    }

    fn submit(&self, id: u32, _seed: u64) {
        self.send_probe(id, self.finished_tx.clone());
    }

    fn next_finished<S: Subscriber>(&self, obs: &S) -> CensusRecord {
        let finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        self.record(finished.recv().expect("the transport holds a sender"), obs)
    }
}

impl<R: Subscriber + Send + Sync + 'static> Drop for NetTransport<R> {
    fn drop(&mut self) {
        for reactor in &self.reactors {
            let _ = reactor.commands.send(Command::Shutdown);
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.thread.join();
        }
    }
}

/// Starts one reactor on a thread of its own, confined to `cpu` when
/// one is named.
fn spawn_reactor<R: Subscriber + Send + Sync + 'static>(
    config: NetConfig,
    obs: &Arc<R>,
    admission: &Arc<Admission>,
    cpu: Option<usize>,
) -> std::io::Result<ReactorHandle> {
    let cap = config.max_sessions;
    let unanswered = Arc::new(AtomicUsize::new(0));
    let (obs, admission, counter) = (
        Arc::clone(obs),
        Arc::clone(admission),
        Arc::clone(&unanswered),
    );
    // A probe is ~60 serial hand-offs with the peer's loop; a reactor
    // that stays put lets the peer stay beside it.
    let (commands, thread) = runtime::start("caai-net-reactor", cpu, move |poller, inbox| {
        let before = sys::sched_counts();
        Reactor::new(config, poller, Arc::clone(&obs), admission, counter).serve(&inbox);
        if let (Some(before), Some(after)) = (before, sys::sched_counts()) {
            obs.on_event(&Event::ReactorExited(ReactorExited {
                migrations: after.0 - before.0,
                switches: after.1 - before.1,
            }));
        }
    })?;
    Ok(ReactorHandle {
        commands,
        cap,
        unanswered,
        thread,
    })
}

/// Resolves one target to an IPv4 socket address. Hostnames go through
/// the system resolver; literals parse directly (no lookup, no
/// surprises on offline machines).
fn resolve(target: &Target) -> Result<(Ipv4Addr, u16), String> {
    if let Ok(ip) = target.host.parse::<Ipv4Addr>() {
        return Ok((ip, target.port));
    }
    let addrs = (target.host.as_str(), target.port)
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {:?}: {e}", target.host))?;
    for addr in addrs {
        if let std::net::SocketAddr::V4(v4) = addr {
            return Ok((*v4.ip(), v4.port()));
        }
    }
    Err(format!(
        "{:?} resolves to no IPv4 address (the reactor speaks IPv4 only)",
        target.host
    ))
}
