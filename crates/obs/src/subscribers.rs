//! The two stock subscribers: metrics collection and stderr rendering.

use crate::event::{
    CaptureTruncated, Event, EvictionCause, PacketSkipped, Subscriber, VerdictKind,
};
use crate::metrics::{Counter, Histogram};
use crate::snapshot::MetricsSnapshot;

/// Counts every event into named counters and histograms.
///
/// One instance is shared (by reference) across all threads of a run;
/// [`snapshot`](MetricsSubscriber::snapshot) is what `--metrics` writes.
/// Counter values are derived from deterministic pipeline events only, so
/// for a given input they are identical across worker counts — the
/// histograms carry the wall-clock side (latencies) and are
/// the only part that varies run to run.
#[derive(Debug, Default)]
pub struct MetricsSubscriber {
    // gather
    gather_attempts: Counter,
    gather_attempts_valid: Counter,
    gather_attempts_stalled: Counter,
    gather_rounds: Counter,
    gather_runs: Counter,
    gather_usable: Counter,
    // census
    census_records: Counter,
    census_resumed: Counter,
    census_identified: Counter,
    census_unsure: Counter,
    census_special: Counter,
    census_invalid: Counter,
    census_checkpoints: Counter,
    // capture
    frames_decoded: Counter,
    capture_bytes: Counter,
    packets_skipped: Counter,
    truncations: Counter,
    flows_opened: Counter,
    flows_evicted_idle: Counter,
    flows_evicted_overflow: Counter,
    flows_evicted_drain: Counter,
    // identify (session verdicts, offline and streaming alike)
    sessions: Counter,
    verdicts_identified: Counter,
    verdicts_unsure: Counter,
    verdicts_special: Counter,
    verdicts_invalid: Counter,
    // stream
    granules: Counter,
    // net (real-socket transport)
    net_sessions: Counter,
    net_sessions_aborted: Counter,
    net_connections: Counter,
    net_retries: Counter,
    net_timeouts: Counter,
    net_bytes_sent: Counter,
    net_bytes_received: Counter,
    net_frames_sent: Counter,
    net_rate_limiter_stalls: Counter,
    net_reactor_ticks: Counter,
    net_reactor_reads: Counter,
    net_reactor_writes: Counter,
    net_reactors: Counter,
    net_reactor_migrations: Counter,
    net_reactor_switches: Counter,
    // histograms
    probe_gather_us: Histogram,
    probe_verdict_us: Histogram,
    tick_latency_us: Histogram,
    live_sessions: Histogram,
    verdict_lag_ms: Histogram,
    net_limiter_wait_us: Histogram,
    net_tick_latency_us: Histogram,
    net_active_sessions: Histogram,
}

impl MetricsSubscriber {
    /// Creates a zeroed metrics subscriber.
    pub fn new() -> Self {
        MetricsSubscriber::default()
    }

    /// Census records so far, resumed ones included (the census progress
    /// line's cadence; the line itself renders a [`snapshot`](Self::snapshot)).
    pub fn census_records(&self) -> u64 {
        self.census_records.get()
    }

    /// A point-in-time copy of everything, keyed by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        let mut c = |name: &str, counter: &Counter| {
            s.counters.insert(name.to_owned(), counter.get());
        };
        c("gather.attempts", &self.gather_attempts);
        c("gather.attempts_valid", &self.gather_attempts_valid);
        c("gather.attempts_stalled", &self.gather_attempts_stalled);
        c("gather.rounds", &self.gather_rounds);
        c("gather.runs", &self.gather_runs);
        c("gather.usable", &self.gather_usable);
        c("census.records", &self.census_records);
        c("census.resumed", &self.census_resumed);
        c("census.identified", &self.census_identified);
        c("census.unsure", &self.census_unsure);
        c("census.special", &self.census_special);
        c("census.invalid", &self.census_invalid);
        c("census.checkpoints", &self.census_checkpoints);
        c("capture.frames_decoded", &self.frames_decoded);
        c("capture.bytes", &self.capture_bytes);
        c("capture.packets_skipped", &self.packets_skipped);
        c("capture.truncations", &self.truncations);
        c("capture.flows_opened", &self.flows_opened);
        c("capture.flows_evicted_idle", &self.flows_evicted_idle);
        c(
            "capture.flows_evicted_overflow",
            &self.flows_evicted_overflow,
        );
        c("capture.flows_evicted_drain", &self.flows_evicted_drain);
        c("identify.sessions", &self.sessions);
        c("identify.verdicts_identified", &self.verdicts_identified);
        c("identify.verdicts_unsure", &self.verdicts_unsure);
        c("identify.verdicts_special", &self.verdicts_special);
        c("identify.verdicts_invalid", &self.verdicts_invalid);
        c("stream.granules", &self.granules);
        c("net.sessions", &self.net_sessions);
        c("net.sessions_aborted", &self.net_sessions_aborted);
        c("net.connections", &self.net_connections);
        c("net.retries", &self.net_retries);
        c("net.timeouts", &self.net_timeouts);
        c("net.bytes_sent", &self.net_bytes_sent);
        c("net.bytes_received", &self.net_bytes_received);
        c("net.frames_sent", &self.net_frames_sent);
        c("net.rate_limiter_stalls", &self.net_rate_limiter_stalls);
        c("net.reactor_ticks", &self.net_reactor_ticks);
        c("net.reactor_reads", &self.net_reactor_reads);
        c("net.reactor_writes", &self.net_reactor_writes);
        // Absent unless a reactor thread reported them: a 0 here is a
        // measured 0, not a kernel without `/proc/thread-self/sched`.
        // `net.reactors` counts the reactors that reported, one each.
        if self.net_reactors.get() > 0 {
            c("net.reactors", &self.net_reactors);
            c("net.reactor_migrations", &self.net_reactor_migrations);
            c("net.reactor_switches", &self.net_reactor_switches);
        }
        let mut h = |name: &str, hist: &Histogram| {
            s.histograms.insert(name.to_owned(), hist.snapshot());
        };
        h("census.probe_gather_us", &self.probe_gather_us);
        h("census.probe_verdict_us", &self.probe_verdict_us);
        h("stream.tick_latency_us", &self.tick_latency_us);
        h("stream.live_sessions", &self.live_sessions);
        h("stream.verdict_lag_ms", &self.verdict_lag_ms);
        h("net.limiter_wait_us", &self.net_limiter_wait_us);
        h("net.tick_latency_us", &self.net_tick_latency_us);
        h("net.active_sessions", &self.net_active_sessions);
        s
    }

    fn verdict_counter(&self, kind: VerdictKind) -> (&Counter, &Counter) {
        match kind {
            VerdictKind::Identified => (&self.verdicts_identified, &self.census_identified),
            VerdictKind::Unsure => (&self.verdicts_unsure, &self.census_unsure),
            VerdictKind::Special => (&self.verdicts_special, &self.census_special),
            VerdictKind::Invalid => (&self.verdicts_invalid, &self.census_invalid),
        }
    }
}

impl Subscriber for MetricsSubscriber {
    // `always`: the inliner prices the whole `match`, not knowing that the
    // emit site's variant is a constant. Inlined, it folds to one arm; a
    // call would cost every decoded frame and every span a jump into it.
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        match event {
            Event::RungAttemptStarted(_) => self.gather_attempts.incr(),
            Event::RungAttemptEnded(e) => {
                if e.valid {
                    self.gather_attempts_valid.incr();
                }
                if e.stalled {
                    self.gather_attempts_stalled.incr();
                }
                self.gather_rounds.add(u64::from(e.rounds));
            }
            Event::GatherFinished(e) => {
                self.gather_runs.incr();
                if e.usable {
                    self.gather_usable.incr();
                }
            }
            Event::ProbeTimed(e) => {
                self.probe_gather_us.record(e.gather_us);
                self.probe_verdict_us.record(e.verdict_us);
            }
            Event::CensusRecordObserved(e) => {
                self.census_records.incr();
                self.verdict_counter(e.verdict).1.incr();
            }
            Event::CensusResumed(e) => {
                self.census_records.add(e.records);
                self.census_resumed.add(e.records);
                self.census_identified.add(e.identified);
                self.census_special.add(e.special);
                self.census_unsure.add(e.unsure);
                self.census_invalid.add(e.invalid);
            }
            Event::CheckpointWritten(_) => self.census_checkpoints.incr(),
            Event::FrameDecoded(e) => {
                self.frames_decoded.add(e.frames);
                self.capture_bytes.add(e.bytes);
            }
            Event::PacketSkipped(_) => self.packets_skipped.incr(),
            Event::CaptureTruncated(_) => self.truncations.incr(),
            Event::FlowOpened(_) => self.flows_opened.incr(),
            Event::FlowEvicted(e) => match e.cause {
                EvictionCause::Idle => self.flows_evicted_idle.incr(),
                EvictionCause::Overflow => self.flows_evicted_overflow.incr(),
                EvictionCause::Drain => self.flows_evicted_drain.incr(),
            },
            Event::GranuleCompleted(e) => {
                self.granules.incr();
                self.tick_latency_us.record(e.tick_latency_us);
                self.live_sessions.record(e.live_sessions);
            }
            Event::SessionEmitted(e) => {
                self.sessions.incr();
                self.verdict_counter(e.verdict).0.incr();
                let lag_ms = (e.lag_secs.max(0.0) * 1000.0).round() as u64;
                self.verdict_lag_ms.record(lag_ms);
            }
            Event::NetSessionEnded(e) => {
                self.net_sessions.incr();
                if e.aborted {
                    self.net_sessions_aborted.incr();
                }
                self.net_connections.add(u64::from(e.connections));
                self.net_retries.add(u64::from(e.retries));
                self.net_timeouts.add(u64::from(e.timed_out));
                self.net_bytes_sent.add(e.bytes_sent);
                self.net_bytes_received.add(e.bytes_received);
                self.net_frames_sent.add(e.frames_sent);
                self.net_reactor_reads.add(e.reads);
                self.net_reactor_writes.add(e.writes);
            }
            Event::RateLimiterStalled(e) => {
                self.net_rate_limiter_stalls.incr();
                self.net_limiter_wait_us.record(e.wait_us);
            }
            Event::ReactorTicked(e) => {
                self.net_reactor_ticks.incr();
                self.net_tick_latency_us.record(e.latency_us);
                self.net_active_sessions.record(e.active_sessions);
            }
            Event::ReactorExited(e) => {
                self.net_reactors.incr();
                self.net_reactor_migrations.add(e.migrations);
                self.net_reactor_switches.add(e.switches);
            }
            _ => {}
        }
    }
}

/// Renders skip-and-report diagnostics to stderr, prefixed with the
/// capture path — the default subscriber for CLI identify runs, keeping
/// corrupt-input reporting visible while it is also being counted.
#[derive(Debug, Clone)]
pub struct StderrSubscriber {
    prefix: String,
}

impl StderrSubscriber {
    /// Creates a renderer prefixing every line with `prefix` (the capture
    /// path as the user named it).
    pub fn new(prefix: impl Into<String>) -> Self {
        StderrSubscriber {
            prefix: prefix.into(),
        }
    }
}

impl Subscriber for StderrSubscriber {
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        match *event {
            Event::PacketSkipped(PacketSkipped { index, reason }) => {
                eprintln!("{}: packet {index}: skipped ({reason})", self.prefix);
            }
            Event::CaptureTruncated(CaptureTruncated { reason, .. }) => eprintln!(
                "{}: capture truncated — {reason}; flows up to the break were identified",
                self.prefix
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        CensusRecordObserved, CensusResumed, Environment, FlowEvicted, FlowOpened, FrameDecoded,
        GatherFinished, ReactorExited, RungAttemptEnded, RungAttemptStarted, SessionEmitted,
    };

    #[test]
    fn metrics_subscriber_counts_into_named_slots() {
        let m = MetricsSubscriber::new();
        m.on_event(&Event::RungAttemptStarted(RungAttemptStarted {
            environment: Environment::A,
            wmax: 512,
        }));
        m.on_event(&Event::RungAttemptEnded(RungAttemptEnded {
            environment: Environment::A,
            wmax: 512,
            rounds: 12,
            valid: true,
            stalled: false,
            invalid_reason: None,
        }));
        m.on_event(&Event::GatherFinished(GatherFinished {
            usable: true,
            failed_attempts: 0,
            wmax: Some(512),
        }));
        m.on_event(&Event::FrameDecoded(FrameDecoded {
            frames: 3,
            bytes: 180,
        }));
        m.on_event(&Event::FlowOpened(FlowOpened {}));
        m.on_event(&Event::FlowEvicted(FlowEvicted {
            cause: EvictionCause::Overflow,
            events: 9,
        }));
        m.on_event(&Event::SessionEmitted(SessionEmitted {
            verdict: VerdictKind::Identified,
            wmax: Some(512),
            flows: 3,
            lag_secs: 1.5,
        }));

        let s = m.snapshot();
        assert_eq!(s.counters["gather.attempts"], 1);
        assert_eq!(s.counters["gather.attempts_valid"], 1);
        assert_eq!(s.counters["gather.rounds"], 12);
        assert_eq!(s.counters["gather.usable"], 1);
        assert_eq!(s.counters["capture.frames_decoded"], 3);
        assert_eq!(s.counters["capture.bytes"], 180);
        assert_eq!(s.counters["capture.flows_evicted_overflow"], 1);
        assert_eq!(s.counters["identify.sessions"], 1);
        assert_eq!(s.counters["identify.verdicts_identified"], 1);
        assert_eq!(s.histograms["stream.verdict_lag_ms"].count, 1);
        assert_eq!(s.histograms["stream.verdict_lag_ms"].sum, 1500);
        assert_eq!(s.counters["capture.flows_opened"], 1);
    }

    #[test]
    fn census_resume_seeds_verdict_counters_in_one_shot() {
        let m = MetricsSubscriber::new();
        m.on_event(&Event::CensusResumed(CensusResumed {
            records: 10,
            identified: 4,
            special: 1,
            unsure: 2,
            invalid: 3,
        }));
        m.on_event(&Event::CensusRecordObserved(CensusRecordObserved {
            verdict: VerdictKind::Identified,
            wmax: Some(256),
        }));
        let s = m.snapshot();
        assert_eq!(s.counters["census.records"], 11);
        assert_eq!(s.counters["census.resumed"], 10);
        assert_eq!(s.counters["census.identified"], 5);
        assert_eq!(s.counters["census.invalid"], 3);
    }

    #[test]
    fn each_reactor_that_reports_counts_once() {
        let m = MetricsSubscriber::new();
        assert!(!m.snapshot().counters.contains_key("net.reactors"));
        for switches in [40, 2] {
            m.on_event(&Event::ReactorExited(ReactorExited {
                migrations: 0,
                switches,
            }));
        }
        let s = m.snapshot();
        assert_eq!(s.counters["net.reactors"], 2);
        assert_eq!(s.counters["net.reactor_migrations"], 0);
        assert_eq!(s.counters["net.reactor_switches"], 42);
    }
}
