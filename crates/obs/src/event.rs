//! The event vocabulary and the [`Subscriber`] trait.
//!
//! This module is written in the shape s2n-quic's event codegen produces:
//! one plain struct per event, an [`Event`] enum borrowing them, and a
//! [`Subscriber`] trait with one default-forwarding `on_*` method per
//! event. Instrumented code calls the *specific* method (`on_flow_opened`,
//! never `on_event`), so a subscriber overrides exactly the events it
//! cares about and pays nothing for the rest.
//!
//! # Zero cost
//!
//! Every instrumentation point is generic over `S: Subscriber` — there is
//! no `dyn` anywhere, deliberately, so each call monomorphizes and
//! inlines. [`NullSubscriber`] overrides nothing and sets
//! [`Subscriber::ENABLED`] to `false`: its `on_*` calls inline to empty
//! bodies and vanish, and call sites guard any *preparation* work (an
//! `Instant::now()`) behind `if S::ENABLED`, which is a
//! compile-time constant. The `identify_obs_overhead` bench group pins
//! the claim.

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

/// A capture frame was decoded into a TCP segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDecoded {
    /// Captured bytes of the frame.
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
    /// Probe sessions live in the reactor after the tick.
    pub active_sessions: u64,
    /// Wall microseconds the tick spent dispatching (excluding the
    /// `epoll_wait`/`poll` sleep itself).
    pub latency_us: u64,
}

/// The socket reactor's thread is exiting; what the scheduler did to it
/// since it confined itself to one CPU (`/proc/thread-self/sched`, so
/// emitted only where the kernel keeps that file).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorExited {
    /// Times the thread was moved to another CPU (`se.nr_migrations`).
    pub migrations: u64,
    /// Context switches, voluntary and involuntary (`nr_switches`).
    pub switches: u64,
}

/// Every event, borrowed. What a catch-all [`Subscriber::on_event`]
/// override receives.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant names mirror the struct docs above
pub enum Event<'a> {
    RungAttemptStarted(&'a RungAttemptStarted),
    RungAttemptEnded(&'a RungAttemptEnded),
    GatherFinished(&'a GatherFinished),
    ProbeTimed(&'a ProbeTimed),
    CensusRecordObserved(&'a CensusRecordObserved),
    CensusResumed(&'a CensusResumed),
    CheckpointWritten(&'a CheckpointWritten),
    FrameDecoded(&'a FrameDecoded),
    PacketSkipped(&'a PacketSkipped<'a>),
    CaptureTruncated(&'a CaptureTruncated<'a>),
    FlowOpened(&'a FlowOpened),
    FlowEvicted(&'a FlowEvicted),
    GranuleCompleted(&'a GranuleCompleted),
    SessionEmitted(&'a SessionEmitted),
    NetSessionEnded(&'a NetSessionEnded),
    RateLimiterStalled(&'a RateLimiterStalled),
    ReactorTicked(&'a ReactorTicked),
    ReactorExited(&'a ReactorExited),
    SpanBegin(&'a SpanBegin),
    SpanEnd(&'a SpanEnd),
}

/// Receiver of structured events.
///
/// Implementations override the `on_*` methods they care about (each
/// defaults to forwarding into [`on_event`](Subscriber::on_event), which
/// defaults to nothing), take `&self`, and must be [`Sync`]: one
/// subscriber instance is shared by every worker thread of a pipeline, so
/// state lives in atomics (see `Counter` / `Histogram`).
///
/// [`ENABLED`](Subscriber::ENABLED) lets call sites skip *preparation*
/// work (timestamps) at compile time — it is `false` only
/// for [`NullSubscriber`] and compositions of it.
pub trait Subscriber: Sync {
    /// Whether this subscriber observes anything at all. Call sites guard
    /// measurement preparation behind `if S::ENABLED { ... }`.
    const ENABLED: bool = true;

    /// See [`RungAttemptStarted`].
    #[inline(always)]
    fn on_rung_attempt_started(&self, event: &RungAttemptStarted) {
        self.on_event(&Event::RungAttemptStarted(event));
    }

    /// See [`RungAttemptEnded`].
    #[inline(always)]
    fn on_rung_attempt_ended(&self, event: &RungAttemptEnded) {
        self.on_event(&Event::RungAttemptEnded(event));
    }

    /// See [`GatherFinished`].
    #[inline(always)]
    fn on_gather_finished(&self, event: &GatherFinished) {
        self.on_event(&Event::GatherFinished(event));
    }

    /// See [`ProbeTimed`].
    #[inline(always)]
    fn on_probe_timed(&self, event: &ProbeTimed) {
        self.on_event(&Event::ProbeTimed(event));
    }

    /// See [`CensusRecordObserved`].
    #[inline(always)]
    fn on_census_record_observed(&self, event: &CensusRecordObserved) {
        self.on_event(&Event::CensusRecordObserved(event));
    }

    /// See [`CensusResumed`].
    #[inline(always)]
    fn on_census_resumed(&self, event: &CensusResumed) {
        self.on_event(&Event::CensusResumed(event));
    }

    /// See [`CheckpointWritten`].
    #[inline(always)]
    fn on_checkpoint_written(&self, event: &CheckpointWritten) {
        self.on_event(&Event::CheckpointWritten(event));
    }

    /// See [`FrameDecoded`].
    #[inline(always)]
    fn on_frame_decoded(&self, event: &FrameDecoded) {
        self.on_event(&Event::FrameDecoded(event));
    }

    /// See [`PacketSkipped`].
    #[inline(always)]
    fn on_packet_skipped(&self, event: &PacketSkipped<'_>) {
        self.on_event(&Event::PacketSkipped(event));
    }

    /// See [`CaptureTruncated`].
    #[inline(always)]
    fn on_capture_truncated(&self, event: &CaptureTruncated<'_>) {
        self.on_event(&Event::CaptureTruncated(event));
    }

    /// See [`FlowOpened`].
    #[inline(always)]
    fn on_flow_opened(&self, event: &FlowOpened) {
        self.on_event(&Event::FlowOpened(event));
    }

    /// See [`FlowEvicted`].
    #[inline(always)]
    fn on_flow_evicted(&self, event: &FlowEvicted) {
        self.on_event(&Event::FlowEvicted(event));
    }

    /// See [`GranuleCompleted`].
    #[inline(always)]
    fn on_granule_completed(&self, event: &GranuleCompleted) {
        self.on_event(&Event::GranuleCompleted(event));
    }

    /// See [`SessionEmitted`].
    #[inline(always)]
    fn on_session_emitted(&self, event: &SessionEmitted) {
        self.on_event(&Event::SessionEmitted(event));
    }

    /// See [`NetSessionEnded`].
    #[inline(always)]
    fn on_net_session_ended(&self, event: &NetSessionEnded) {
        self.on_event(&Event::NetSessionEnded(event));
    }

    /// See [`RateLimiterStalled`].
    #[inline(always)]
    fn on_rate_limiter_stalled(&self, event: &RateLimiterStalled) {
        self.on_event(&Event::RateLimiterStalled(event));
    }

    /// See [`ReactorTicked`].
    #[inline(always)]
    fn on_reactor_ticked(&self, event: &ReactorTicked) {
        self.on_event(&Event::ReactorTicked(event));
    }

    /// See [`ReactorExited`].
    #[inline(always)]
    fn on_reactor_exited(&self, event: &ReactorExited) {
        self.on_event(&Event::ReactorExited(event));
    }

    /// See [`SpanBegin`].
    #[inline(always)]
    fn on_span_begin(&self, event: &SpanBegin) {
        self.on_event(&Event::SpanBegin(event));
    }

    /// See [`SpanEnd`].
    #[inline(always)]
    fn on_span_end(&self, event: &SpanEnd) {
        self.on_event(&Event::SpanEnd(event));
    }

    /// Write barrier, not an event: push whatever this subscriber has
    /// buffered to where it survives a kill. The census engine calls it
    /// before a checkpoint becomes visible, so a record the checkpoint
    /// covers never has its spans only in memory.
    #[inline(always)]
    fn flush(&self) {}

    /// Catch-all sink the per-event defaults forward into. Instrumented
    /// code never calls this directly.
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        let _ = event;
    }
}

/// The subscriber that observes nothing and costs nothing.
///
/// `ENABLED` is `false`, so instrumented code skips measurement
/// preparation entirely, and every `on_*` call inlines to an empty body.
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
    fn on_rung_attempt_started(&self, event: &RungAttemptStarted) {
        (**self).on_rung_attempt_started(event);
    }
    #[inline(always)]
    fn on_rung_attempt_ended(&self, event: &RungAttemptEnded) {
        (**self).on_rung_attempt_ended(event);
    }
    #[inline(always)]
    fn on_gather_finished(&self, event: &GatherFinished) {
        (**self).on_gather_finished(event);
    }
    #[inline(always)]
    fn on_probe_timed(&self, event: &ProbeTimed) {
        (**self).on_probe_timed(event);
    }
    #[inline(always)]
    fn on_census_record_observed(&self, event: &CensusRecordObserved) {
        (**self).on_census_record_observed(event);
    }
    #[inline(always)]
    fn on_census_resumed(&self, event: &CensusResumed) {
        (**self).on_census_resumed(event);
    }
    #[inline(always)]
    fn on_checkpoint_written(&self, event: &CheckpointWritten) {
        (**self).on_checkpoint_written(event);
    }
    #[inline(always)]
    fn on_frame_decoded(&self, event: &FrameDecoded) {
        (**self).on_frame_decoded(event);
    }
    #[inline(always)]
    fn on_packet_skipped(&self, event: &PacketSkipped<'_>) {
        (**self).on_packet_skipped(event);
    }
    #[inline(always)]
    fn on_capture_truncated(&self, event: &CaptureTruncated<'_>) {
        (**self).on_capture_truncated(event);
    }
    #[inline(always)]
    fn on_flow_opened(&self, event: &FlowOpened) {
        (**self).on_flow_opened(event);
    }
    #[inline(always)]
    fn on_flow_evicted(&self, event: &FlowEvicted) {
        (**self).on_flow_evicted(event);
    }
    #[inline(always)]
    fn on_granule_completed(&self, event: &GranuleCompleted) {
        (**self).on_granule_completed(event);
    }
    #[inline(always)]
    fn on_session_emitted(&self, event: &SessionEmitted) {
        (**self).on_session_emitted(event);
    }
    #[inline(always)]
    fn on_net_session_ended(&self, event: &NetSessionEnded) {
        (**self).on_net_session_ended(event);
    }
    #[inline(always)]
    fn on_rate_limiter_stalled(&self, event: &RateLimiterStalled) {
        (**self).on_rate_limiter_stalled(event);
    }
    #[inline(always)]
    fn on_reactor_ticked(&self, event: &ReactorTicked) {
        (**self).on_reactor_ticked(event);
    }
    #[inline(always)]
    fn on_reactor_exited(&self, event: &ReactorExited) {
        (**self).on_reactor_exited(event);
    }
    #[inline(always)]
    fn on_span_begin(&self, event: &SpanBegin) {
        (**self).on_span_begin(event);
    }
    #[inline(always)]
    fn on_span_end(&self, event: &SpanEnd) {
        (**self).on_span_end(event);
    }
    #[inline(always)]
    fn flush(&self) {
        (**self).flush();
    }
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        (**self).on_event(event);
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
    fn on_rung_attempt_started(&self, event: &RungAttemptStarted) {
        if let Some(s) = self {
            s.on_rung_attempt_started(event);
        }
    }
    #[inline(always)]
    fn on_rung_attempt_ended(&self, event: &RungAttemptEnded) {
        if let Some(s) = self {
            s.on_rung_attempt_ended(event);
        }
    }
    #[inline(always)]
    fn on_gather_finished(&self, event: &GatherFinished) {
        if let Some(s) = self {
            s.on_gather_finished(event);
        }
    }
    #[inline(always)]
    fn on_probe_timed(&self, event: &ProbeTimed) {
        if let Some(s) = self {
            s.on_probe_timed(event);
        }
    }
    #[inline(always)]
    fn on_census_record_observed(&self, event: &CensusRecordObserved) {
        if let Some(s) = self {
            s.on_census_record_observed(event);
        }
    }
    #[inline(always)]
    fn on_census_resumed(&self, event: &CensusResumed) {
        if let Some(s) = self {
            s.on_census_resumed(event);
        }
    }
    #[inline(always)]
    fn on_checkpoint_written(&self, event: &CheckpointWritten) {
        if let Some(s) = self {
            s.on_checkpoint_written(event);
        }
    }
    #[inline(always)]
    fn on_frame_decoded(&self, event: &FrameDecoded) {
        if let Some(s) = self {
            s.on_frame_decoded(event);
        }
    }
    #[inline(always)]
    fn on_packet_skipped(&self, event: &PacketSkipped<'_>) {
        if let Some(s) = self {
            s.on_packet_skipped(event);
        }
    }
    #[inline(always)]
    fn on_capture_truncated(&self, event: &CaptureTruncated<'_>) {
        if let Some(s) = self {
            s.on_capture_truncated(event);
        }
    }
    #[inline(always)]
    fn on_flow_opened(&self, event: &FlowOpened) {
        if let Some(s) = self {
            s.on_flow_opened(event);
        }
    }
    #[inline(always)]
    fn on_flow_evicted(&self, event: &FlowEvicted) {
        if let Some(s) = self {
            s.on_flow_evicted(event);
        }
    }
    #[inline(always)]
    fn on_granule_completed(&self, event: &GranuleCompleted) {
        if let Some(s) = self {
            s.on_granule_completed(event);
        }
    }
    #[inline(always)]
    fn on_session_emitted(&self, event: &SessionEmitted) {
        if let Some(s) = self {
            s.on_session_emitted(event);
        }
    }
    #[inline(always)]
    fn on_net_session_ended(&self, event: &NetSessionEnded) {
        if let Some(s) = self {
            s.on_net_session_ended(event);
        }
    }
    #[inline(always)]
    fn on_rate_limiter_stalled(&self, event: &RateLimiterStalled) {
        if let Some(s) = self {
            s.on_rate_limiter_stalled(event);
        }
    }
    #[inline(always)]
    fn on_reactor_ticked(&self, event: &ReactorTicked) {
        if let Some(s) = self {
            s.on_reactor_ticked(event);
        }
    }
    #[inline(always)]
    fn on_reactor_exited(&self, event: &ReactorExited) {
        if let Some(s) = self {
            s.on_reactor_exited(event);
        }
    }
    #[inline(always)]
    fn on_span_begin(&self, event: &SpanBegin) {
        if let Some(s) = self {
            s.on_span_begin(event);
        }
    }
    #[inline(always)]
    fn on_span_end(&self, event: &SpanEnd) {
        if let Some(s) = self {
            s.on_span_end(event);
        }
    }
    #[inline(always)]
    fn flush(&self) {
        if let Some(s) = self {
            s.flush();
        }
    }
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        if let Some(s) = self {
            s.on_event(event);
        }
    }
}

/// A pair of subscribers both receive every event (in order), which is
/// how the CLI stacks stderr rendering on top of metrics collection.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn on_rung_attempt_started(&self, event: &RungAttemptStarted) {
        self.0.on_rung_attempt_started(event);
        self.1.on_rung_attempt_started(event);
    }
    #[inline(always)]
    fn on_rung_attempt_ended(&self, event: &RungAttemptEnded) {
        self.0.on_rung_attempt_ended(event);
        self.1.on_rung_attempt_ended(event);
    }
    #[inline(always)]
    fn on_gather_finished(&self, event: &GatherFinished) {
        self.0.on_gather_finished(event);
        self.1.on_gather_finished(event);
    }
    #[inline(always)]
    fn on_probe_timed(&self, event: &ProbeTimed) {
        self.0.on_probe_timed(event);
        self.1.on_probe_timed(event);
    }
    #[inline(always)]
    fn on_census_record_observed(&self, event: &CensusRecordObserved) {
        self.0.on_census_record_observed(event);
        self.1.on_census_record_observed(event);
    }
    #[inline(always)]
    fn on_census_resumed(&self, event: &CensusResumed) {
        self.0.on_census_resumed(event);
        self.1.on_census_resumed(event);
    }
    #[inline(always)]
    fn on_checkpoint_written(&self, event: &CheckpointWritten) {
        self.0.on_checkpoint_written(event);
        self.1.on_checkpoint_written(event);
    }
    #[inline(always)]
    fn on_frame_decoded(&self, event: &FrameDecoded) {
        self.0.on_frame_decoded(event);
        self.1.on_frame_decoded(event);
    }
    #[inline(always)]
    fn on_packet_skipped(&self, event: &PacketSkipped<'_>) {
        self.0.on_packet_skipped(event);
        self.1.on_packet_skipped(event);
    }
    #[inline(always)]
    fn on_capture_truncated(&self, event: &CaptureTruncated<'_>) {
        self.0.on_capture_truncated(event);
        self.1.on_capture_truncated(event);
    }
    #[inline(always)]
    fn on_flow_opened(&self, event: &FlowOpened) {
        self.0.on_flow_opened(event);
        self.1.on_flow_opened(event);
    }
    #[inline(always)]
    fn on_flow_evicted(&self, event: &FlowEvicted) {
        self.0.on_flow_evicted(event);
        self.1.on_flow_evicted(event);
    }
    #[inline(always)]
    fn on_granule_completed(&self, event: &GranuleCompleted) {
        self.0.on_granule_completed(event);
        self.1.on_granule_completed(event);
    }
    #[inline(always)]
    fn on_session_emitted(&self, event: &SessionEmitted) {
        self.0.on_session_emitted(event);
        self.1.on_session_emitted(event);
    }
    #[inline(always)]
    fn on_net_session_ended(&self, event: &NetSessionEnded) {
        self.0.on_net_session_ended(event);
        self.1.on_net_session_ended(event);
    }
    #[inline(always)]
    fn on_rate_limiter_stalled(&self, event: &RateLimiterStalled) {
        self.0.on_rate_limiter_stalled(event);
        self.1.on_rate_limiter_stalled(event);
    }
    #[inline(always)]
    fn on_reactor_ticked(&self, event: &ReactorTicked) {
        self.0.on_reactor_ticked(event);
        self.1.on_reactor_ticked(event);
    }
    #[inline(always)]
    fn on_reactor_exited(&self, event: &ReactorExited) {
        self.0.on_reactor_exited(event);
        self.1.on_reactor_exited(event);
    }
    #[inline(always)]
    fn on_span_begin(&self, event: &SpanBegin) {
        self.0.on_span_begin(event);
        self.1.on_span_begin(event);
    }
    #[inline(always)]
    fn on_span_end(&self, event: &SpanEnd) {
        self.0.on_span_end(event);
        self.1.on_span_end(event);
    }
    #[inline(always)]
    fn flush(&self) {
        self.0.flush();
        self.1.flush();
    }
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountAll(AtomicU64);

    impl Subscriber for CountAll {
        fn on_event(&self, _event: &Event<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn null_subscriber_is_disabled_and_silent() {
        const {
            assert!(!NullSubscriber::ENABLED);
        }
        NullSubscriber.on_flow_opened(&FlowOpened {});
        NullSubscriber.on_packet_skipped(&PacketSkipped {
            index: 3,
            reason: "bad header",
        });
    }

    #[test]
    fn specific_methods_default_into_on_event() {
        let s = CountAll::default();
        s.on_flow_opened(&FlowOpened {});
        s.on_frame_decoded(&FrameDecoded { bytes: 60 });
        s.on_capture_truncated(&CaptureTruncated {
            packets: 9,
            reason: "mid-record EOF",
        });
        assert_eq!(s.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn tuple_composition_fans_out_and_ors_enabled() {
        let a = CountAll::default();
        let b = CountAll::default();
        let pair = (&a, &b);
        pair.on_flow_opened(&FlowOpened {});
        assert_eq!(a.0.load(Ordering::Relaxed), 1);
        assert_eq!(b.0.load(Ordering::Relaxed), 1);

        const {
            assert!(<(&CountAll, &CountAll)>::ENABLED);
            assert!(!<(NullSubscriber, NullSubscriber)>::ENABLED);
            assert!(<(NullSubscriber, &CountAll)>::ENABLED);
        }
    }
}
