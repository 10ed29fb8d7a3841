//! Span primitives: begin/end events with parent links and optional
//! virtual timestamps.
//!
//! Spans follow the same zero-cost discipline as the rest of the event
//! vocabulary: a span is *two* plain events ([`SpanBegin`] /
//! [`SpanEnd`]) delivered through the [`Subscriber`] trait, and every
//! helper in this module checks `S::ENABLED` (a `const`) before doing
//! any work, so under [`NullSubscriber`](crate::NullSubscriber) the
//! whole layer compiles to nothing — id allocation, thread-local
//! bookkeeping and all.
//!
//! Wall-clock timestamps are deliberately *not* carried in the events:
//! the subscriber stamps its own clock at receipt (see
//! [`TraceSubscriber`](crate::TraceSubscriber)), which keeps the
//! disabled path free of `Instant::now()` calls. Virtual timestamps —
//! simulator time, which is data, not measurement — ride along in the
//! events as `virt` seconds (negative means "no virtual clock here").
//!
//! # Parent links and the ambient stack
//!
//! Synchronous spans nest: each thread keeps an ambient stack of open
//! span ids, [`span_begin`] links to the top of it, and
//! [`SpanToken::end`] pops. Work that crosses threads links explicitly
//! instead: [`span_begin_with_parent`] (push onto the local stack under
//! a foreign parent — e.g. a worker batch under the coordinator's run
//! span) and [`span_begin_async`] (no stack at all — overlapping spans
//! like flows and reactor sessions).
//!
//! # Determinism contract
//!
//! Span *structure* — the tree shape and the per-kind census — is as
//! deterministic as the counters: for the kinds where
//! [`SpanKind::deterministic`] returns `true`, a seeded census produces
//! the same per-server subtrees whatever the worker count and across
//! SIGKILL+resume. Mechanical kinds (batches, ticks) are scheduling
//! artifacts and exempt. Only timestamps and raw ids vary;
//! tests compare structure, never ids.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::Subscriber;

/// Process-unique span identifier. `0` is reserved for "no span"
/// (absent parent); real ids start at 1.
pub type SpanId = u64;

/// Sentinel for "no virtual timestamp": the simulator clock does not
/// exist on this code path.
pub const NO_VIRT: f64 = -1.0;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique [`SpanId`]. Ids are allocation
/// order, not structure: nothing may depend on their values.
#[inline]
pub fn next_span_id() -> SpanId {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open synchronous span on this thread (`0` if none).
#[inline]
pub fn current_span() -> SpanId {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Which stage of the probe path a span covers.
///
/// The two integer args a span carries are kind-specific; see
/// [`SpanKind::arg_names`] for what each slot means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum SpanKind {
    /// One whole census run (coordinator thread, engine path).
    CensusRun,
    /// One work-stealing batch on an engine worker.
    Batch,
    /// One server's full gather: the ladder walk that produces its
    /// window traces (simulator or live transport).
    Gather,
    /// One rung attempt inside a gather (one `wmax` in one environment).
    RungAttempt,
    /// One congestion round inside a rung attempt (virtual-time span).
    Round,
    /// Feature extraction + forest vote for one server or session.
    Classify,
    /// Replaying one reconstructed capture session through the ladder.
    SessionReplay,
    /// Flow reassembly work: a whole offline capture, or the streaming
    /// loop's read-decode-feed run between two granule ticks (`frames`
    /// is then the capture records read before the run began — its
    /// length is not known until it ends).
    Reassembly,
    /// A flow's lifetime in the streaming pipeline: open to eviction.
    Flow,
    /// One granule tick of the streaming loop: evictions folded into
    /// sessions, timed-out sessions emitted.
    GranuleTick,
    /// One dispatch pass of the net reactor's event loop.
    ReactorTick,
    /// A live probe session on the reactor: first connect to verdict
    /// hand-off.
    NetSession,
    /// One TCP connect attempt inside a live session.
    NetConnect,
    /// A live session's backoff wait before re-connecting.
    NetRetry,
    /// One request/response frame round-trip on a live connection.
    NetRoundtrip,
    /// One rung of the ladder as executed over the wire.
    NetRung,
}

impl SpanKind {
    /// Every kind, for census tables and parsers.
    pub const ALL: [SpanKind; 16] = [
        SpanKind::CensusRun,
        SpanKind::Batch,
        SpanKind::Gather,
        SpanKind::RungAttempt,
        SpanKind::Round,
        SpanKind::Classify,
        SpanKind::SessionReplay,
        SpanKind::Reassembly,
        SpanKind::Flow,
        SpanKind::GranuleTick,
        SpanKind::ReactorTick,
        SpanKind::NetSession,
        SpanKind::NetConnect,
        SpanKind::NetRetry,
        SpanKind::NetRoundtrip,
        SpanKind::NetRung,
    ];

    /// Stable lowercase name, used as the trace-event `name` field.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::CensusRun => "census.run",
            SpanKind::Batch => "census.batch",
            SpanKind::Gather => "gather",
            SpanKind::RungAttempt => "gather.rung",
            SpanKind::Round => "gather.round",
            SpanKind::Classify => "classify",
            SpanKind::SessionReplay => "session.replay",
            SpanKind::Reassembly => "reassembly",
            SpanKind::Flow => "flow",
            SpanKind::GranuleTick => "granule.tick",
            SpanKind::ReactorTick => "reactor.tick",
            SpanKind::NetSession => "net.session",
            SpanKind::NetConnect => "net.connect",
            SpanKind::NetRetry => "net.retry",
            SpanKind::NetRoundtrip => "net.roundtrip",
            SpanKind::NetRung => "net.rung",
        }
    }

    /// Inverse of [`SpanKind::name`] (trace-file parsing).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// What the two argument slots mean for this kind. Empty string =
    /// the slot is unused.
    pub fn arg_names(self) -> [&'static str; 2] {
        match self {
            SpanKind::CensusRun => ["population", "workers"],
            SpanKind::Batch => ["start", "len"],
            SpanKind::Gather => ["server_id", ""],
            SpanKind::RungAttempt => ["wmax", "env"],
            SpanKind::Round => ["round", "phase"],
            SpanKind::Classify => ["server_id", ""],
            SpanKind::SessionReplay => ["session", ""],
            SpanKind::Reassembly => ["frames", ""],
            SpanKind::Flow => ["first_seq", ""],
            SpanKind::GranuleTick => ["granule", ""],
            SpanKind::ReactorTick => ["sessions", ""],
            SpanKind::NetSession => ["ip", "port"],
            SpanKind::NetConnect => ["attempt", ""],
            SpanKind::NetRetry => ["retry", "backoff_ms"],
            SpanKind::NetRoundtrip => ["frames", ""],
            SpanKind::NetRung => ["attempt", ""],
        }
    }

    /// Whether this kind is covered by the determinism contract: its
    /// per-server count and tree position are worker-count- and
    /// resume-invariant. Mechanical kinds (scheduling, event loops,
    /// live-network retries) are exempt.
    pub fn deterministic(self) -> bool {
        matches!(
            self,
            SpanKind::Gather
                | SpanKind::RungAttempt
                | SpanKind::Round
                | SpanKind::Classify
                | SpanKind::SessionReplay
                | SpanKind::Flow
        )
    }

    /// Whether spans of this kind may overlap on one thread (flows,
    /// multiplexed reactor sessions). Interleaved spans
    /// are rendered as async ("b"/"e") trace events; the rest nest and
    /// render as complete ("X") events.
    pub fn interleaved(self) -> bool {
        matches!(
            self,
            SpanKind::Flow
                | SpanKind::NetSession
                | SpanKind::NetConnect
                | SpanKind::NetRetry
                | SpanKind::NetRoundtrip
                | SpanKind::NetRung
        )
    }
}

/// A span opened: the subscriber stamps its wall clock at receipt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanBegin {
    /// This span's id (process-unique, never 0).
    pub id: SpanId,
    /// Enclosing span's id, or 0 for a root span.
    pub parent: SpanId,
    /// What stage this span covers.
    pub kind: SpanKind,
    /// First kind-specific argument ([`SpanKind::arg_names`]).
    pub arg0: i64,
    /// Second kind-specific argument.
    pub arg1: i64,
    /// Virtual (simulator) time in seconds, or negative if this code
    /// path has no virtual clock.
    pub virt: f64,
}

/// A span closed; pairs with the [`SpanBegin`] carrying the same `id`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEnd {
    /// Id of the span being closed.
    pub id: SpanId,
    /// Virtual (simulator) time in seconds, or negative if absent.
    pub virt: f64,
}

/// Handle for an open span. `Copy` so multi-exit code (early returns,
/// loop breaks) can end the same token wherever control leaves — ending
/// a token twice is a caller bug the tests catch, not a safety issue.
#[derive(Debug, Clone, Copy)]
#[must_use = "an unended span never closes in the trace"]
pub struct SpanToken {
    id: SpanId,
    pushed: bool,
}

impl SpanToken {
    /// The no-op token: ending it does nothing. What every `begin`
    /// helper returns when the subscriber is disabled.
    pub const NONE: SpanToken = SpanToken {
        id: 0,
        pushed: false,
    };

    /// This span's id (0 when disabled) — for explicit parent links
    /// across threads.
    #[inline]
    pub fn id(self) -> SpanId {
        self.id
    }

    /// Closes the span (no virtual clock on this path).
    #[inline(always)]
    pub fn end<S: Subscriber + ?Sized>(self, obs: &S) {
        self.end_at(obs, NO_VIRT);
    }

    /// Closes the span, stamping the simulator clock.
    #[inline(always)]
    pub fn end_at<S: Subscriber + ?Sized>(self, obs: &S, virt: f64) {
        if !S::ENABLED || self.id == 0 {
            return;
        }
        if self.pushed {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Normal case: we are the innermost span. A caller that
                // ends out of order still converges: drop every deeper
                // entry (they leaked their tokens) rather than corrupt
                // parent links for the rest of the thread's lifetime.
                while let Some(top) = stack.pop() {
                    if top == self.id {
                        break;
                    }
                }
            });
        }
        obs.on_span_end(&SpanEnd { id: self.id, virt });
    }
}

#[inline(always)]
fn begin_inner<S: Subscriber + ?Sized>(
    obs: &S,
    kind: SpanKind,
    parent: SpanId,
    arg0: i64,
    arg1: i64,
    virt: f64,
    push: bool,
) -> SpanToken {
    let id = next_span_id();
    if push {
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
    }
    obs.on_span_begin(&SpanBegin {
        id,
        parent,
        kind,
        arg0,
        arg1,
        virt,
    });
    SpanToken { id, pushed: push }
}

/// Opens a synchronous span under the thread's current ambient span.
#[inline(always)]
pub fn span_begin<S: Subscriber + ?Sized>(
    obs: &S,
    kind: SpanKind,
    arg0: i64,
    arg1: i64,
) -> SpanToken {
    if !S::ENABLED {
        return SpanToken::NONE;
    }
    begin_inner(obs, kind, current_span(), arg0, arg1, NO_VIRT, true)
}

/// [`span_begin`] with a simulator timestamp.
#[inline(always)]
pub fn span_begin_at<S: Subscriber + ?Sized>(
    obs: &S,
    kind: SpanKind,
    arg0: i64,
    arg1: i64,
    virt: f64,
) -> SpanToken {
    if !S::ENABLED {
        return SpanToken::NONE;
    }
    begin_inner(obs, kind, current_span(), arg0, arg1, virt, true)
}

/// Opens a synchronous span under an *explicit* parent — the
/// cross-thread link (a worker batch under the coordinator's run
/// span). Still pushed on this thread's ambient stack so deeper spans
/// nest underneath it.
#[inline(always)]
pub fn span_begin_with_parent<S: Subscriber + ?Sized>(
    obs: &S,
    kind: SpanKind,
    parent: SpanId,
    arg0: i64,
    arg1: i64,
) -> SpanToken {
    if !S::ENABLED {
        return SpanToken::NONE;
    }
    begin_inner(obs, kind, parent, arg0, arg1, NO_VIRT, true)
}

/// Opens an interleaved (async) span: explicit parent, never on the
/// ambient stack, may overlap other spans and cross threads between
/// begin and end.
#[inline(always)]
pub fn span_begin_async<S: Subscriber + ?Sized>(
    obs: &S,
    kind: SpanKind,
    parent: SpanId,
    arg0: i64,
    arg1: i64,
) -> SpanToken {
    if !S::ENABLED {
        return SpanToken::NONE;
    }
    begin_inner(obs, kind, parent, arg0, arg1, NO_VIRT, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullSubscriber;
    use std::sync::Mutex;

    struct Recorder {
        log: Mutex<Vec<(SpanId, SpanId, Option<SpanKind>)>>,
    }

    impl Subscriber for Recorder {
        fn on_span_begin(&self, e: &SpanBegin) {
            self.log
                .lock()
                .unwrap()
                .push((e.id, e.parent, Some(e.kind)));
        }
        fn on_span_end(&self, e: &SpanEnd) {
            self.log.lock().unwrap().push((e.id, 0, None));
        }
    }

    #[test]
    fn null_subscriber_allocates_no_ids() {
        let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
        let t = span_begin(&NullSubscriber, SpanKind::Gather, 1, 0);
        t.end(&NullSubscriber);
        assert_eq!(t.id(), 0);
        assert_eq!(NEXT_SPAN_ID.load(Ordering::Relaxed), before);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn nesting_links_parents_through_the_ambient_stack() {
        let rec = Recorder {
            log: Mutex::new(Vec::new()),
        };
        let outer = span_begin(&rec, SpanKind::Gather, 7, 0);
        let inner = span_begin(&rec, SpanKind::RungAttempt, 512, 0);
        assert_eq!(current_span(), inner.id());
        inner.end(&rec);
        assert_eq!(current_span(), outer.id());
        outer.end(&rec);
        assert_eq!(current_span(), 0);

        let log = rec.log.lock().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].1, 0, "outer span is a root");
        assert_eq!(log[1].1, log[0].0, "inner's parent is outer");
        assert_eq!(log[2].0, log[1].0, "inner ends first");
        assert_eq!(log[3].0, log[0].0, "outer ends last");
    }

    #[test]
    fn async_spans_do_not_touch_the_stack() {
        let rec = Recorder {
            log: Mutex::new(Vec::new()),
        };
        let t = span_begin_async(&rec, SpanKind::Flow, 0, 100, 0);
        assert_eq!(current_span(), 0);
        t.end(&rec);
    }

    #[test]
    fn out_of_order_end_unwinds_to_the_survivor() {
        let rec = Recorder {
            log: Mutex::new(Vec::new()),
        };
        let a = span_begin(&rec, SpanKind::Gather, 0, 0);
        let _b = span_begin(&rec, SpanKind::RungAttempt, 0, 0);
        // Ending `a` with `b` still open drops b from the stack too:
        // later spans must not link under a leaked id.
        a.end(&rec);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(SpanKind::from_name("no-such-kind"), None);
    }
}
