//! Structured events and lock-free metrics for the CAAI workspace.
//!
//! The paper's census ran for weeks against tens of thousands of servers;
//! at that scale "how fast, how valid, where is time going, what got
//! dropped" must be observable *while the system runs*. This crate is the
//! observability spine the rest of the workspace plugs into, modeled on
//! s2n-quic's event codegen:
//!
//! * [`event`] — one struct per wire-visible occurrence, an [`Event`]
//!   enum owning them, and the [`Subscriber`] trait, whose one event
//!   method is `on_event(&Event)`. Instrumentation points are generic
//!   over `S: Subscriber`, never `dyn`, so the [`NullSubscriber`]
//!   compiles to nothing (its `ENABLED: false` constant also elides
//!   measurement preparation at call sites).
//! * [`metrics`] — wait-free [`Counter`]s and power-of-two-bucket
//!   [`Histogram`]s whose snapshots merge associatively, so per-worker
//!   and per-shard metrics fold into one run-level view in any order.
//! * [`subscribers`] — the stock [`MetricsSubscriber`] (counts
//!   everything) and [`StderrSubscriber`] (renders skip-and-report
//!   diagnostics, the CLI default).
//! * [`snapshot`] — the versioned `caai-metrics-v1` JSONL schema behind
//!   `--metrics FILE`, with the shared parser/validator.
//! * [`span`] — the tracing half: [`SpanBegin`]/[`SpanEnd`] events with
//!   parent links and virtual timestamps, zero-cost under the
//!   [`NullSubscriber`] like everything else.
//! * [`trace`] — [`TraceSubscriber`], streaming spans to a Chrome
//!   trace-event JSON file (`--trace FILE`, Perfetto-loadable).
//! * [`report`] — the offline trace analyzer behind `caai trace-report`:
//!   per-stage self-time attribution, quantiles, rung/round breakdown,
//!   slow-outlier table.
//!
//! Events carry primitives only — no domain types — so `caai-obs` is a
//! leaf crate every layer (core, engine, capture, stream, CLI) can
//! depend on without cycles.
//!
//! ```
//! use caai_obs::{Event, FlowOpened, FrameDecoded, MetricsSubscriber, Subscriber};
//!
//! // Each run of decoded frames (their captured lengths) is one event,
//! // handed on before the next other event, as the streaming pipeline
//! // does: every count a subscriber reads at `FlowOpened` is the count
//! // one event per frame would have given.
//! fn ingest<S: Subscriber>(runs: &[&[u64]], obs: &S) {
//!     for run in runs {
//!         obs.on_event(&Event::FrameDecoded(FrameDecoded {
//!             frames: run.len() as u64,
//!             bytes: run.iter().sum(),
//!         }));
//!         obs.on_event(&Event::FlowOpened(FlowOpened {}));
//!     }
//! }
//!
//! let metrics = MetricsSubscriber::new();
//! ingest(&[&[60, 1514], &[60]], &metrics);
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counters["capture.frames_decoded"], 3);
//! assert_eq!(snap.counters["capture.bytes"], 1634);
//!
//! // The same call with the null subscriber compiles to the bare loop.
//! ingest(&[&[60, 1514]], &caai_obs::NullSubscriber);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod report;
pub mod snapshot;
pub mod span;
pub mod subscribers;
pub mod trace;

pub use event::{
    CaptureTruncated, CensusRecordObserved, CensusResumed, CheckpointWritten, Environment, Event,
    EvictionCause, FlowEvicted, FlowOpened, FrameDecoded, GatherFinished, GranuleCompleted,
    NetSessionEnded, NullSubscriber, PacketSkipped, ProbeTimed, RateLimiterStalled, ReactorExited,
    ReactorTicked, RungAttemptEnded, RungAttemptStarted, SessionEmitted, Subscriber, VerdictKind,
};
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use report::{TraceAnalysis, TraceReadOutcome};
pub use snapshot::{parse_line, validate_jsonl, MetricsSnapshot, SnapshotLine, SCHEMA};
pub use span::{
    current_span, next_span_id, span_begin, span_begin_async, span_begin_at,
    span_begin_with_parent, SpanBegin, SpanEnd, SpanId, SpanKind, SpanToken, NO_VIRT,
};
pub use subscribers::{MetricsSubscriber, StderrSubscriber};
pub use trace::TraceSubscriber;
