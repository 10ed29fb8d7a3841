//! The event vocabulary and the [`Subscriber`] trait.
//!
//! One plain struct per event, and an [`Event`] enum whose variants own
//! them (every payload is small and `Copy`). Instrumented code builds an
//! `Event` and hands it to [`Subscriber::on_event`], the trait's one event
//! method: `obs.on_event(&Event::FlowOpened(FlowOpened {}))`. A subscriber
//! is one `match` over the variants it observes, with a `_ => {}` arm for
//! the rest, so adding an event touches its struct, its variant and the
//! subscribers that want it — never the combinators.
//!
//! # Zero cost
//!
//! Every instrumentation point is generic over `S: Subscriber` — there is
//! no `dyn` anywhere, deliberately, so each call monomorphizes and
//! inlines, and an inlined `match` on the emit site's constant variant
//! folds to the one arm it takes. [`NullSubscriber`] has an empty
//! `on_event` and sets [`Subscriber::ENABLED`] to `false`: its calls
//! vanish, and call sites guard any *preparation* work (an
//! `Instant::now()`) behind `if S::ENABLED`, which is a compile-time
//! constant. The un-instrumented entry points forward to the instrumented
//! ones with the null subscriber.

use crate::span::{SpanBegin, SpanEnd};

/// The probing environment a connection ran in (§IV's environments A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Environment {
    /// Environment A (short post-timeout RTTs).
    A,
    /// Environment B (stretched post-timeout RTTs).
    B,
}

impl Environment {
    /// Single-letter display name.
    pub fn name(self) -> &'static str {
        match self {
            Environment::A => "A",
            Environment::B => "B",
        }
    }
}

/// The census verdict family, stripped of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Confident identification.
    Identified,
    /// Forest confidence below the floor ("Unsure TCP").
    Unsure,
    /// A §VII-B special-case trace.
    Special,
    /// No valid trace.
    Invalid,
}

/// Why a flow left the reassembly table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionCause {
    /// No traffic for `flow_timeout` capture seconds.
    Idle,
    /// The flow hit `max_flow_events` and was force-evicted.
    Overflow,
    /// End of input: the final drain closed it.
    Drain,
}

// ---------------------------------------------------------------------
// Event structs. One per wire-visible occurrence; fields are primitives
// only (no domain types), so every crate in the workspace can emit them
// without `caai-obs` depending back on anyone.
// ---------------------------------------------------------------------

/// A ladder-rung gather attempt started (one per environment per rung).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungAttemptStarted {
    /// Environment being emulated.
    pub environment: Environment,
    /// The `w_max` threshold of this rung.
    pub wmax: u32,
}

/// A ladder-rung gather attempt finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungAttemptEnded {
    /// Environment that was emulated.
    pub environment: Environment,
    /// The `w_max` threshold of this rung.
    pub wmax: u32,
    /// Rounds measured before the attempt concluded (pre + post).
    pub rounds: u32,
    /// Whether the attempt produced a valid trace.
    pub valid: bool,
    /// Whether the Fig. 13 stall early-exit fired (the window visibly
    /// stopped growing below the threshold).
    pub stalled: bool,
    /// The invalid reason, when the trace was invalid.
    pub invalid_reason: Option<&'static str>,
}

/// A full ladder walk against one server finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherFinished {
    /// Whether a usable environment-A/B pair was gathered.
    pub usable: bool,
    /// Failed attempts accumulated along the walk.
    pub failed_attempts: u32,
    /// The rung that produced the usable pair, if any.
    pub wmax: Option<u32>,
}

/// Stage timing of one census probe: gather vs verdict wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeTimed {
    /// Microseconds spent gathering the trace pair (the §IV ladder walk).
    pub gather_us: u64,
    /// Microseconds spent on special-case detection, feature extraction
    /// and the forest.
    pub verdict_us: u64,
}

/// The census observed one freshly probed record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusRecordObserved {
    /// The verdict family.
    pub verdict: VerdictKind,
    /// The `w_max` rung, for valid traces.
    pub wmax: Option<u32>,
}

/// A resume checkpoint's aggregates entered the census in one shot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusResumed {
    /// Records the checkpoint accounted for.
    pub records: u64,
    /// Identified records among them.
    pub identified: u64,
    /// Special-case records among them.
    pub special: u64,
    /// Unsure records among them.
    pub unsure: u64,
    /// Invalid records among them.
    pub invalid: u64,
}

/// The engine wrote a resume checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointWritten {
    /// Records covered by the checkpoint.
    pub records: u64,
}

/// A run of consecutive capture frames was decoded into TCP segments.
///
/// The drain emits one per frame (`frames: 1`). The streaming pipeline
/// coalesces each run of them into one event, which it hands on just
/// before any other event and when the capture ends. So a subscriber
/// that reads its counters at any other event reads the per-frame
/// totals, and the final totals are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDecoded {
    /// Frames in the run.
    pub frames: u64,
    /// Captured bytes of those frames, summed.
    pub bytes: u64,
}

/// A capture packet was skipped (skip-and-report corruption handling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSkipped<'a> {
    /// Zero-based packet index within the capture.
    pub index: u64,
    /// Why the packet could not be used.
    pub reason: &'a str,
}

/// The capture ended mid-record (truncated input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureTruncated<'a> {
    /// Packets successfully decoded before the truncation.
    pub packets: u64,
    /// What was cut off.
    pub reason: &'a str,
}

/// A new flow appeared in the reassembly table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOpened {}

/// A flow left the reassembly table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvicted {
    /// Why it was evicted.
    pub cause: EvictionCause,
    /// Flow events it had accumulated.
    pub events: u64,
}

/// The streaming loop finished a granule: evictions folded into
/// sessions, timed-out sessions emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranuleCompleted {
    /// The granule index.
    pub granule: u64,
    /// The capture-time watermark the granule closed at, in seconds.
    pub watermark_secs: f64,
    /// Wall microseconds from the watermark crossing the granule boundary
    /// to the granule's last verdict being emitted.
    pub tick_latency_us: u64,
    /// Sessions still being assembled afterwards.
    pub live_sessions: u64,
}

/// An assembled session produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEmitted {
    /// The verdict family.
    pub verdict: VerdictKind,
    /// The `w_max` rung, for valid traces.
    pub wmax: Option<u32>,
    /// Flows (connections) the session stitched together.
    pub flows: u64,
    /// Capture seconds between the session's last packet and the
    /// watermark that released its verdict (emission lag in capture
    /// time; `0` for offline ingestion, which has no watermark).
    pub lag_secs: f64,
}

/// One real-network probe session concluded (successfully or not).
///
/// Emitted by `caai-net` once per target when the session's outcome is
/// final — after the last retry, not per connection attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSessionEnded {
    /// TCP connections the session opened (1 + retries that got far
    /// enough to dial).
    pub connections: u32,
    /// Transport-level retries the session burned.
    pub retries: u32,
    /// I/O or connect timeouts observed across all attempts.
    pub timed_out: u32,
    /// Whether the session ended in a `TransportAborted` verdict instead
    /// of a ladder conclusion.
    pub aborted: bool,
    /// Bytes the session wrote to its sockets, all attempts together.
    pub bytes_sent: u64,
    /// Bytes the session read from its sockets, all attempts together.
    pub bytes_received: u64,
    /// Protocol frames the session sent, all attempts together.
    pub frames_sent: u64,
    /// `read` calls the reactor made on the session's sockets that
    /// returned bytes, all attempts together.
    pub reads: u64,
    /// `write` calls that took bytes, likewise.
    pub writes: u64,
}

/// A probe session was held back by the politeness rate limiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimiterStalled {
    /// Microseconds until the limiter's next token matures.
    pub wait_us: u64,
}

/// The socket reactor completed one event-loop tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorTicked {
    /// I/O readiness events dispatched this tick.
    pub ready: u32,
    /// Probe sessions live after the tick, across every reactor of the
    /// transport.
    pub active_sessions: u64,
    /// Wall microseconds the tick spent dispatching (excluding the
    /// `epoll_wait`/`poll` sleep itself).
    pub latency_us: u64,
}

/// A socket reactor's thread is exiting; what the scheduler did to it
/// since it confined itself to one CPU (`/proc/thread-self/sched`, so
/// emitted only where the kernel keeps that file).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorExited {
    /// Times the thread was moved to another CPU (`se.nr_migrations`).
    pub migrations: u64,
    /// Context switches, voluntary and involuntary (`nr_switches`).
    pub switches: u64,
}

/// Every event; what [`Subscriber::on_event`] receives. Each variant owns
/// the struct of the same name.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant names mirror the struct docs above
pub enum Event<'a> {
    RungAttemptStarted(RungAttemptStarted),
    RungAttemptEnded(RungAttemptEnded),
    GatherFinished(GatherFinished),
    ProbeTimed(ProbeTimed),
    CensusRecordObserved(CensusRecordObserved),
    CensusResumed(CensusResumed),
    CheckpointWritten(CheckpointWritten),
    FrameDecoded(FrameDecoded),
    PacketSkipped(PacketSkipped<'a>),
    CaptureTruncated(CaptureTruncated<'a>),
    FlowOpened(FlowOpened),
    FlowEvicted(FlowEvicted),
    GranuleCompleted(GranuleCompleted),
    SessionEmitted(SessionEmitted),
    NetSessionEnded(NetSessionEnded),
    RateLimiterStalled(RateLimiterStalled),
    ReactorTicked(ReactorTicked),
    ReactorExited(ReactorExited),
    SpanBegin(SpanBegin),
    SpanEnd(SpanEnd),
}

/// Receiver of structured events.
///
/// An implementation is one `match` in [`on_event`](Subscriber::on_event)
/// over the variants it observes, and must be [`Sync`]: one subscriber
/// instance is shared by every worker thread of a pipeline, so state
/// lives in atomics (see `Counter` / `Histogram`).
///
/// An arm that hands a payload to code that is not inlined (a formatter,
/// a locked writer) copies it out first; payloads are `Copy`. A reference
/// into the event lets its address escape, and the subscribers composed
/// after this one then re-match at run time instead of folding to their
/// one arm.
///
/// [`ENABLED`](Subscriber::ENABLED) lets call sites skip *preparation*
/// work (timestamps) at compile time — it is `false` only
/// for [`NullSubscriber`] and compositions of it.
pub trait Subscriber: Sync {
    /// Whether this subscriber observes anything at all. Call sites guard
    /// measurement preparation behind `if S::ENABLED { ... }`.
    const ENABLED: bool = true;

    /// Receives one event, on the thread that emitted it.
    fn on_event(&self, event: &Event<'_>);

    /// Write barrier, not an event: push whatever this subscriber has
    /// buffered to where it survives a kill. The census engine calls it
    /// before a checkpoint becomes visible, so a record the checkpoint
    /// covers never has its spans only in memory.
    #[inline(always)]
    fn flush(&self) {}
}

/// The subscriber that observes nothing and costs nothing.
///
/// `ENABLED` is `false`, so instrumented code skips measurement
/// preparation entirely, and every `on_event` call inlines to an empty
/// body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&self, _event: &Event<'_>) {}
}

/// A shared reference to a subscriber is itself a subscriber, which is
/// how one instance fans out across scoped worker threads.
impl<S: Subscriber + ?Sized> Subscriber for &S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        (**self).on_event(event);
    }

    #[inline(always)]
    fn flush(&self) {
        (**self).flush();
    }
}

/// An optional subscriber: `Some` forwards, `None` observes nothing.
/// This is how the CLI composes a runtime-optional sink (`--trace FILE`)
/// into a subscriber tuple without monomorphizing every branch twice.
/// `ENABLED` is inherited from `S`, so a `None` still pays the (cheap)
/// event dispatch — use [`NullSubscriber`] when the absence is static.
impl<S: Subscriber> Subscriber for Option<S> {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        if let Some(s) = self {
            s.on_event(event);
        }
    }

    #[inline(always)]
    fn flush(&self) {
        if let Some(s) = self {
            s.flush();
        }
    }
}

/// A pair of subscribers both receive every event (in order), which is
/// how the CLI stacks stderr rendering on top of metrics collection.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    #[inline(always)]
    fn flush(&self) {
        self.0.flush();
        self.1.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, NO_VIRT};
    use std::sync::Mutex;

    /// Logs every event and flush it receives, `Debug`-rendered.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Subscriber for Log {
        fn on_event(&self, event: &Event<'_>) {
            self.0.lock().unwrap().push(format!("{event:?}"));
        }

        fn flush(&self) {
            self.0.lock().unwrap().push("flush".to_owned());
        }
    }

    /// Fails the test on any delivery: what `None` stands in front of.
    struct Refuses;

    impl Subscriber for Refuses {
        fn on_event(&self, event: &Event<'_>) {
            panic!("received {event:?}");
        }

        fn flush(&self) {
            panic!("flushed");
        }
    }

    /// One instance of every variant, in declaration order. The `match`
    /// has no wildcard arm: a new variant stops this compiling until it
    /// has a slot here and an instance below.
    fn one_of_each() -> Vec<Event<'static>> {
        let events = vec![
            Event::RungAttemptStarted(RungAttemptStarted {
                environment: Environment::A,
                wmax: 512,
            }),
            Event::RungAttemptEnded(RungAttemptEnded {
                environment: Environment::B,
                wmax: 256,
                rounds: 20,
                valid: false,
                stalled: true,
                invalid_reason: Some("too short"),
            }),
            Event::GatherFinished(GatherFinished {
                usable: true,
                failed_attempts: 1,
                wmax: Some(256),
            }),
            Event::ProbeTimed(ProbeTimed {
                gather_us: 300,
                verdict_us: 100,
            }),
            Event::CensusRecordObserved(CensusRecordObserved {
                verdict: VerdictKind::Unsure,
                wmax: None,
            }),
            Event::CensusResumed(CensusResumed {
                records: 10,
                identified: 4,
                special: 1,
                unsure: 2,
                invalid: 3,
            }),
            Event::CheckpointWritten(CheckpointWritten { records: 10 }),
            Event::FrameDecoded(FrameDecoded {
                frames: 1,
                bytes: 60,
            }),
            Event::PacketSkipped(PacketSkipped {
                index: 3,
                reason: "bad header",
            }),
            Event::CaptureTruncated(CaptureTruncated {
                packets: 9,
                reason: "mid-record EOF",
            }),
            Event::FlowOpened(FlowOpened {}),
            Event::FlowEvicted(FlowEvicted {
                cause: EvictionCause::Idle,
                events: 7,
            }),
            Event::GranuleCompleted(GranuleCompleted {
                granule: 2,
                watermark_secs: 1.5,
                tick_latency_us: 40,
                live_sessions: 1,
            }),
            Event::SessionEmitted(SessionEmitted {
                verdict: VerdictKind::Identified,
                wmax: Some(512),
                flows: 2,
                lag_secs: 0.5,
            }),
            Event::NetSessionEnded(NetSessionEnded {
                connections: 2,
                retries: 1,
                timed_out: 1,
                aborted: false,
                bytes_sent: 4400,
                bytes_received: 90_000,
                frames_sent: 116,
                reads: 60,
                writes: 58,
            }),
            Event::RateLimiterStalled(RateLimiterStalled { wait_us: 250 }),
            Event::ReactorTicked(ReactorTicked {
                ready: 3,
                active_sessions: 2,
                latency_us: 12,
            }),
            Event::ReactorExited(ReactorExited {
                migrations: 0,
                switches: 40,
            }),
            Event::SpanBegin(SpanBegin {
                id: 1,
                parent: 0,
                kind: SpanKind::Gather,
                arg0: 7,
                arg1: 0,
                virt: NO_VIRT,
            }),
            Event::SpanEnd(SpanEnd { id: 1, virt: 2.5 }),
        ];
        let slots: Vec<usize> = events
            .iter()
            .map(|event| match event {
                Event::RungAttemptStarted(_) => 0,
                Event::RungAttemptEnded(_) => 1,
                Event::GatherFinished(_) => 2,
                Event::ProbeTimed(_) => 3,
                Event::CensusRecordObserved(_) => 4,
                Event::CensusResumed(_) => 5,
                Event::CheckpointWritten(_) => 6,
                Event::FrameDecoded(_) => 7,
                Event::PacketSkipped(_) => 8,
                Event::CaptureTruncated(_) => 9,
                Event::FlowOpened(_) => 10,
                Event::FlowEvicted(_) => 11,
                Event::GranuleCompleted(_) => 12,
                Event::SessionEmitted(_) => 13,
                Event::NetSessionEnded(_) => 14,
                Event::RateLimiterStalled(_) => 15,
                Event::ReactorTicked(_) => 16,
                Event::ReactorExited(_) => 17,
                Event::SpanBegin(_) => 18,
                Event::SpanEnd(_) => 19,
            })
            .collect();
        assert_eq!(slots, (0..20).collect::<Vec<_>>(), "one of each variant");
        events
    }

    #[test]
    fn null_subscriber_is_disabled_and_silent() {
        const {
            assert!(!NullSubscriber::ENABLED);
        }
        NullSubscriber.on_event(&Event::FlowOpened(FlowOpened {}));
        NullSubscriber.on_event(&Event::PacketSkipped(PacketSkipped {
            index: 3,
            reason: "bad header",
        }));
    }

    #[test]
    fn every_variant_reaches_each_composition_exactly_once() {
        let events = one_of_each();
        let mut expected: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
        expected.push("flush".to_owned());

        let [by_ref, in_some, first, second] = [(); 4].map(|()| Log::default());
        // Every event, then one flush (`None`), through each composition.
        for event in events.iter().map(Some).chain([None]) {
            deliver(&&by_ref, event);
            deliver(&Some(&in_some), event);
            deliver(&None::<Refuses>, event);
            deliver(&(&first, &second), event);
            deliver(&NullSubscriber, event);
        }
        for (name, log) in [
            ("&S", &by_ref),
            ("Some(S)", &in_some),
            ("(A, _)", &first),
            ("(_, B)", &second),
        ] {
            assert_eq!(*log.0.lock().unwrap(), expected, "{name}");
        }

        const {
            assert!(<&Log>::ENABLED && <Option<Log>>::ENABLED);
            assert!(!<&NullSubscriber>::ENABLED && !<Option<NullSubscriber>>::ENABLED);
        }
    }

    #[test]
    fn tuple_composition_fans_out_and_ors_enabled() {
        /// Logs each delivery, then its tag, into a log shared with the
        /// other half of the pair.
        struct Tagged<'a> {
            tag: &'static str,
            log: &'a Log,
        }

        impl Subscriber for Tagged<'_> {
            fn on_event(&self, event: &Event<'_>) {
                self.log.on_event(event);
                self.log.0.lock().unwrap().push(self.tag.to_owned());
            }

            fn flush(&self) {
                self.log.flush();
                self.log.0.lock().unwrap().push(self.tag.to_owned());
            }
        }

        // `A` sees each event, and the flush, before `B` does.
        let shared = Log::default();
        let pair = (
            Tagged {
                tag: "A",
                log: &shared,
            },
            Tagged {
                tag: "B",
                log: &shared,
            },
        );
        let events = one_of_each();
        let mut expected = Vec::new();
        for event in events.iter().map(Some).chain([None]) {
            deliver(&pair, event);
            let seen = event.map_or("flush".to_owned(), |e| format!("{e:?}"));
            expected.extend([seen.clone(), "A".to_owned(), seen, "B".to_owned()]);
        }
        assert_eq!(*shared.0.lock().unwrap(), expected);

        const {
            assert!(<(&Log, &Log)>::ENABLED);
            assert!(!<(NullSubscriber, NullSubscriber)>::ENABLED);
            assert!(<(NullSubscriber, &Log)>::ENABLED);
            assert!(<(&Log, NullSubscriber)>::ENABLED);
        }
    }

    /// One event through `s`, or a flush when there is none.
    fn deliver<S: Subscriber>(s: &S, event: Option<&Event<'_>>) {
        match event {
            Some(event) => s.on_event(event),
            None => s.flush(),
        }
    }
}
