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
//! Observability: rung attempts and gather completions recorded by the
//! session's [`LadderCore`](crate::core::LadderCore) are replayed into
//! the per-probe subscriber on the *calling* worker thread (the
//! reactor thread only emits its own `ReactorTicked` / `ReactorExited` /
//! `RateLimiterStalled` events into the transport-wide subscriber), so
//! `--metrics` floors hold identically for simulated and live runs.

use std::net::{Ipv4Addr, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use caai_core::census::{verdict_for_outcome, CensusRecord};
use caai_core::{
    CaaiClassifier, GatherOutcome, InvalidReason, ProbeTransport, WindowTrace, DEFAULT_LADDER,
};
use caai_netem::EnvironmentId;
use caai_obs::{
    span_begin, Event, NetSessionEnded, ReactorExited, RungAttemptStarted, SpanKind, Subscriber,
};

use crate::reactor::{Command, NetConfig, Reactor, SessionResult, SessionStats};
use crate::sys::{self, Waker};
use crate::targets::Target;

/// A live-socket [`ProbeTransport`] over a resolved target list.
///
/// `R` is the *reactor's* subscriber (shared, `Sync`); each `probe`
/// call additionally gets the engine worker's own subscriber, like
/// every other instrumentation point in the workspace.
pub struct NetTransport<R: Subscriber + Send + Sync + 'static> {
    /// Per-id resolution: ready targets or the reason they will abort.
    resolved: Vec<Result<(Ipv4Addr, u16), String>>,
    targets: Vec<Target>,
    classifier: CaaiClassifier,
    first_rung: u32,
    sender: Mutex<mpsc::Sender<Command>>,
    waker: Waker,
    reactor_thread: Option<JoinHandle<()>>,
    _obs: Arc<R>,
}

impl<R: Subscriber + Send + Sync + 'static> NetTransport<R> {
    /// Resolves `targets`, starts the reactor thread, and returns the
    /// transport. Resolution happens once, up front: a census must not
    /// re-resolve (and possibly re-route) mid-run. Unresolvable targets
    /// are kept — they probe as instant `TransportAborted` records.
    pub fn new(
        targets: Vec<Target>,
        classifier: CaaiClassifier,
        config: NetConfig,
        obs: Arc<R>,
    ) -> std::io::Result<Self> {
        let resolved = targets.iter().map(resolve).collect();
        let ladder = &config.prober.wmax_ladder;
        let first_rung = *ladder.first().unwrap_or(&DEFAULT_LADDER[0]);
        let (reactor, waker) = Reactor::new(config, Arc::clone(&obs))?;
        let (tx, rx) = mpsc::channel();
        let reactor_obs = Arc::clone(&obs);
        let reactor_thread = std::thread::Builder::new()
            .name("caai-net-reactor".into())
            .spawn(move || {
                // A probe is ~60 serial hand-offs with the peer's thread;
                // a reactor that stays put lets the peer stay beside it.
                if let Some(cpu) = sys::current_cpu() {
                    sys::confine_to(cpu);
                }
                let before = sys::sched_counts();
                reactor.run(rx);
                if let (Some(before), Some(after)) = (before, sys::sched_counts()) {
                    reactor_obs.on_event(&Event::ReactorExited(ReactorExited {
                        migrations: after.0 - before.0,
                        switches: after.1 - before.1,
                    }));
                }
            })?;
        Ok(NetTransport {
            resolved,
            targets,
            classifier,
            first_rung,
            sender: Mutex::new(tx),
            waker,
            reactor_thread: Some(reactor_thread),
            _obs: obs,
        })
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
    /// returned channel. Used by the concurrency tests and benches to
    /// load the reactor beyond one in-flight session per caller.
    pub fn probe_async(&self, id: u32) -> mpsc::Receiver<SessionResult> {
        let (tx, rx) = mpsc::channel();
        match self.resolved.get(id as usize) {
            Some(Ok((ip, port))) => {
                let sent =
                    self.sender
                        .lock()
                        .expect("reactor sender poisoned")
                        .send(Command::Probe {
                            ip: *ip,
                            port: *port,
                            reply: tx,
                        });
                if sent.is_ok() {
                    self.waker.wake();
                }
                // On send failure the reactor is gone; dropping `tx`
                // closes the channel and the caller reduces to aborted.
            }
            _ => {
                let _ = tx.send(self.aborted_result());
            }
        }
        rx
    }

    /// The outcome of a probe that never reached the wire.
    fn aborted_result(&self) -> SessionResult {
        SessionResult {
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
                defense_overhead: None,
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
        // The worker-side gather span: submission to result, queueing in
        // the reactor included (that wait IS this server's wall cost).
        let gather_span = span_begin(obs, SpanKind::Gather, i64::from(id), 0);
        let result = match self.probe_async(id).recv() {
            Ok(result) => result,
            // Reactor died mid-probe: reduce, don't panic.
            Err(_) => self.aborted_result(),
        };
        gather_span.end(obs);
        // Replay the session's rung history into the worker's
        // subscriber, mirroring what the simulator emits inline.
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
        let classify_span = span_begin(obs, SpanKind::Classify, i64::from(id), 0);
        let (verdict, _) = verdict_for_outcome(&result.outcome, &self.classifier);
        classify_span.end(obs);
        CensusRecord {
            server_id: id,
            truth: None,
            verdict,
        }
    }
}

impl<R: Subscriber + Send + Sync + 'static> Drop for NetTransport<R> {
    fn drop(&mut self) {
        if let Ok(sender) = self.sender.lock() {
            let _ = sender.send(Command::Shutdown);
        }
        self.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
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
