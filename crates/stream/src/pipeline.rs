//! The streaming identification pipeline: source → RSS hash → workers →
//! collector → verdicts.
//!
//! ```text
//!              dispatcher (caller thread)
//!   source ──► decode in the feed buffer,   ──► worker 0 ─┐
//!   (lends     hash, batch `Copy` headers   ──► worker 1 ─┼──► collector ──► verdicts
//!    frames)   │ granule ticks broadcast    ──► worker N ─┘    (sessions,     (ResultSink,
//!              │ (watermark barriers)           (flows,        timeouts,      stdout, ...)
//!              └ skips/truncation                eviction)      classify)
//! ```
//!
//! The dispatcher is the only stage that touches packet bytes: it decodes
//! each frame once, where the source read it, and what crosses a worker
//! channel is a `Copy` header per packet (index, timestamp and the
//! [`SegmentHeader`] reassembly reads — the payload's length, never the
//! payload). No frame is allocated on one thread and freed on another.
//!
//! Packets are sharded onto workers RSS-style: a deterministic hash of
//! the direction-insensitive 4-tuple ([`FlowKey`]), so both directions of
//! a connection always land on the same worker — the software analogue of
//! a NIC's symmetric-Toeplitz receive-side scaling. Each worker reassembles
//! its flows incrementally ([`FlowBuilder`]) and evicts them on a timeout
//! wheel; the collector groups evicted flows into (client IP, server IP)
//! probe sessions, replays the `w_max` ladder, classifies, and emits one
//! [`SessionReport`] per session — while the capture is still growing.
//!
//! # Bounded memory
//!
//! Nothing accumulates for the lifetime of the capture:
//!
//! * a flow idle longer than [`StreamConfig::flow_timeout`] is evicted
//!   and reduced to its [`ConnectionObservation`] (worker memory ∝ live
//!   flows, not total flows);
//! * a flow that somehow never goes idle is force-evicted after
//!   [`StreamConfig::max_flow_events`] events;
//! * a session idle longer than [`StreamConfig::session_timeout`] emits
//!   its verdict and is dropped (collector memory ∝ live sessions).
//!
//! # Determinism
//!
//! Verdicts are byte-identical for every worker count, the same contract
//! the census engine honors for `--workers`. Three mechanisms make the
//! parallel pipeline order-free:
//!
//! 1. the dispatcher broadcasts a **granule tick** (granule =
//!    `flow_timeout / 2` of *capture* time) whenever the watermark — the
//!    largest timestamp seen — crosses a granule boundary, after flushing
//!    every in-flight batch, so eviction decisions depend only on the
//!    packet stream, never on thread timing;
//! 2. the collector **barriers per granule**: it processes a granule's
//!    evictions only after all workers acknowledged that tick, sorted by
//!    each flow's first packet index;
//! 3. sessions are created, updated and emitted in that sorted order, and
//!    `session_timeout` is measured against the same watermark.
//!
//! [`FlowKey`]: caai_capture::flow::FlowKey
//! [`FlowBuilder`]: caai_capture::flow::FlowBuilder
//! [`SegmentHeader`]: caai_capture::flow::SegmentHeader
//! [`ConnectionObservation`]: caai_capture::reconstruct::ConnectionObservation

use crate::source::{CaptureSource, SourceError, SourceItem};
use caai_capture::flow::{FlowBuilder, FlowKey, SegmentHeader};
use caai_capture::reconstruct::{
    observe_connection, session_outcome, ConnectionObservation, ProbeSession, DEFAULT_LADDER,
};
use caai_capture::{verdict_for, SessionReport};
use caai_core::census::CensusRecord;
use caai_core::classify::CaaiClassifier;
use caai_obs::{
    span_begin, span_begin_async, CaptureTruncated, EvictionCause, FlowEvicted, FlowOpened,
    FrameDecoded, GranuleCompleted, NullSubscriber, PacketSkipped, QueueDepthSampled,
    SessionEmitted, SpanKind, SpanToken, Subscriber,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Tuning for one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Parallel reassembly workers (≥ 1).
    pub workers: usize,
    /// Seconds of capture-time idleness before a flow is evicted and
    /// reduced to its observation.
    pub flow_timeout: f64,
    /// Seconds of capture-time idleness before a session's verdict is
    /// emitted. Must exceed the prober's inter-connection wait (630 s)
    /// plus a connection's duration, or one probe session splits in two.
    pub session_timeout: f64,
    /// Hard per-flow event cap: a flow that never goes idle is force-
    /// evicted here, bounding memory against adversarial captures.
    pub max_flow_events: usize,
    /// Frames per dispatcher→worker batch.
    pub batch: usize,
    /// Bounded depth of each worker channel, in batches.
    pub channel_depth: usize,
    /// The `w_max` ladder to replay (defaults to the prober's).
    pub ladder: Vec<u32>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 1,
            flow_timeout: 60.0,
            session_timeout: 1800.0,
            max_flow_events: 1 << 16,
            batch: 128,
            channel_depth: 8,
            ladder: DEFAULT_LADDER.to_vec(),
        }
    }
}

/// Counters and diagnostics from one streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Frames decoded into TCP segments.
    pub packets: u64,
    /// Flows opened across all workers.
    pub flows: u64,
    /// Sessions whose verdict was emitted.
    pub sessions: u64,
    /// Sessions dropped because no connection was reconstructable (SYN
    /// scans, handshake-only chatter) — mirror of the offline filter.
    pub dataless_sessions: u64,
    /// Flows force-evicted at the `max_flow_events` cap.
    pub overflowed_flows: u64,
    /// Peak live flows, summed across workers — the memory high-water
    /// mark the eviction wheel is bounding.
    pub peak_live_flows: usize,
    /// Packets skipped with their index and reason, in index order.
    pub skipped: Vec<(u64, String)>,
    /// Mid-stream fatal framing/I/O diagnostic; everything before it was
    /// still identified (the offline `truncated` policy).
    pub truncated: Option<String>,
}

/// A streaming run that could not even start (unreadable or alien
/// container header). Mid-capture damage is *not* an error — it ends the
/// run with [`StreamStats::truncated`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The capture container's header could not be parsed.
    Source(SourceError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

/// RSS-style worker selection: deterministic hash of the canonical
/// (direction-insensitive) 4-tuple. One worker is one shard — no hash.
fn shard_of(seg: &SegmentHeader, workers: usize) -> usize {
    if workers == 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    FlowKey::of(seg).hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// One decoded packet as it crosses a worker channel.
#[derive(Debug, Clone, Copy)]
struct Packet {
    /// 0-based packet index within the capture.
    index: u64,
    /// Capture timestamp, seconds.
    ts: f64,
    seg: SegmentHeader,
}

// Owned frame bytes must not creep back onto the channel: a field holding
// them is not `Copy`, and anything wider than a cache line is not a header.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Packet>();
    assert!(std::mem::size_of::<Packet>() <= 64);
};

fn bucket_of(ts: f64, granule: f64) -> i64 {
    (ts / granule).floor() as i64
}

#[derive(Debug, Clone, Copy)]
struct WorkerCfg {
    granule: f64,
    flow_timeout: f64,
    max_events: usize,
    /// This worker's RSS shard index (span arguments only).
    shard: usize,
}

enum WorkerMsg {
    /// A batch of packets plus the dispatcher's queue-wait span, ended by
    /// the worker at dequeue — the gap is queue latency, not work.
    Batch(Vec<Packet>, SpanToken),
    Tick {
        granule: i64,
        watermark: f64,
        /// Wall-clock broadcast time, present only when someone observes
        /// (drives the granule tick-latency histogram).
        sent_at: Option<Instant>,
    },
    Finish,
}

/// Per-worker inbound-queue gauge: current depth in batches and the
/// high-water mark since the last sample. Only touched when
/// `S::ENABLED` — the null path never pays the atomics.
#[derive(Debug, Default)]
struct QueueGauge {
    depth: AtomicU64,
    high_water: AtomicU64,
}

impl QueueGauge {
    fn inc(&self) {
        let now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    fn dec(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn take_high_water(&self) -> u64 {
        self.high_water.swap(0, Ordering::Relaxed)
    }
}

/// One evicted flow, reduced worker-side to what the collector needs.
struct FlowDone {
    client_ip: [u8; 4],
    server_ip: [u8; 4],
    /// Global index of the flow's first packet — the deterministic sort
    /// and tie-break key everywhere downstream.
    first_seq: u64,
    /// Largest capture timestamp the flow saw (drives session timeouts).
    last_seen: f64,
    /// The reconstructed connection, when the flow carried one.
    obs: Option<ConnectionObservation>,
}

enum ToCollector {
    TickDone {
        granule: i64,
        watermark: f64,
        sent_at: Option<Instant>,
        flows: Vec<FlowDone>,
        skipped: Vec<(u64, String)>,
    },
    WorkerDone {
        flows: Vec<FlowDone>,
        skipped: Vec<(u64, String)>,
        peak: usize,
        flows_total: u64,
        overflowed: u64,
    },
}

struct FlowEntry {
    builder: FlowBuilder,
    first_seq: u64,
    key: FlowKey,
    /// The flow's lifetime span: opened at first packet, ended at
    /// eviction (idle, overflow, or drain).
    span: SpanToken,
}

/// Per-worker reassembly state: a slab of live flows (free list +
/// generation counters so wheel entries can be validated lazily) and the
/// timeout wheel bucketing flows by last-activity granule.
struct WorkerState {
    table: HashMap<FlowKey, usize>,
    slab: Vec<(u64, Option<FlowEntry>)>,
    free: Vec<usize>,
    wheel: BTreeMap<i64, Vec<(usize, u64)>>,
    due: Vec<FlowDone>,
    skipped: Vec<(u64, String)>,
    live: usize,
    peak: usize,
    flows_total: u64,
    overflowed: u64,
}

impl WorkerState {
    fn new() -> WorkerState {
        WorkerState {
            table: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            wheel: BTreeMap::new(),
            due: Vec::new(),
            skipped: Vec::new(),
            live: 0,
            peak: 0,
            flows_total: 0,
            overflowed: 0,
        }
    }

    fn finalize<S: Subscriber>(&mut self, slot: usize, ladder: &[u32], obs: &S) -> FlowDone {
        let entry = self.slab[slot].1.take().expect("finalizing a live slot");
        entry.span.end(obs);
        self.slab[slot].0 += 1; // stale wheel entries now fail the gen check
        self.table.remove(&entry.key);
        self.free.push(slot);
        self.live -= 1;
        let last_seen = entry.builder.last_seen();
        let flow = entry.builder.into_flow();
        FlowDone {
            client_ip: flow.client.0,
            server_ip: flow.server.0,
            first_seq: entry.first_seq,
            last_seen,
            obs: observe_connection(&flow, ladder),
        }
    }

    fn feed<S: Subscriber>(&mut self, packet: &Packet, cfg: &WorkerCfg, ladder: &[u32], obs: &S) {
        let seg = &packet.seg;
        let key = FlowKey::of(seg);
        let slot = match self.table.get(&key).copied() {
            Some(s) => s,
            None => {
                let entry = FlowEntry {
                    builder: FlowBuilder::new(seg, packet.ts),
                    first_seq: packet.index,
                    key,
                    span: span_begin_async(
                        obs,
                        SpanKind::Flow,
                        0,
                        cfg.shard as i64,
                        packet.index as i64,
                    ),
                };
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slab[s].1 = Some(entry);
                        s
                    }
                    None => {
                        self.slab.push((0, Some(entry)));
                        self.slab.len() - 1
                    }
                };
                self.table.insert(key, s);
                let gen = self.slab[s].0;
                self.wheel
                    .entry(bucket_of(packet.ts, cfg.granule))
                    .or_default()
                    .push((s, gen));
                self.live += 1;
                self.peak = self.peak.max(self.live);
                self.flows_total += 1;
                obs.on_flow_opened(&FlowOpened {});
                s
            }
        };
        let entry = self.slab[slot].1.as_mut().expect("live slot");
        if let Some(reason) = entry.builder.feed(packet.ts, seg) {
            obs.on_packet_skipped(&PacketSkipped {
                index: packet.index,
                reason: &reason,
            });
            self.skipped.push((packet.index, reason));
        }
        if entry.builder.events() >= cfg.max_events {
            self.overflowed += 1;
            obs.on_flow_evicted(&FlowEvicted {
                cause: EvictionCause::Overflow,
                events: entry.builder.events() as u64,
            });
            let done = self.finalize(slot, ladder, obs);
            self.due.push(done);
        }
    }

    /// Evicts every flow idle since before `watermark - flow_timeout`.
    /// Wheel entries are validated lazily: a flow that was active since
    /// its bucket was written is re-bucketed instead of evicted.
    fn evict_due<S: Subscriber>(
        &mut self,
        watermark: f64,
        cfg: &WorkerCfg,
        ladder: &[u32],
        obs: &S,
    ) -> Vec<FlowDone> {
        let cutoff = watermark - cfg.flow_timeout;
        let mut out = std::mem::take(&mut self.due);
        while let Some((&bucket, _)) = self.wheel.iter().next() {
            if ((bucket + 1) as f64) * cfg.granule > cutoff {
                break;
            }
            for (slot, gen) in self.wheel.remove(&bucket).expect("bucket exists") {
                let stale = self.slab[slot].0 != gen || self.slab[slot].1.is_none();
                if stale {
                    continue;
                }
                let builder = &self.slab[slot].1.as_ref().expect("checked above").builder;
                let last_seen = builder.last_seen();
                if last_seen <= cutoff {
                    obs.on_flow_evicted(&FlowEvicted {
                        cause: EvictionCause::Idle,
                        events: builder.events() as u64,
                    });
                    let done = self.finalize(slot, ladder, obs);
                    out.push(done);
                } else {
                    self.wheel
                        .entry(bucket_of(last_seen, cfg.granule))
                        .or_default()
                        .push((slot, gen));
                }
            }
        }
        out
    }

    fn drain_all<S: Subscriber>(&mut self, ladder: &[u32], obs: &S) -> Vec<FlowDone> {
        let mut out = std::mem::take(&mut self.due);
        for slot in 0..self.slab.len() {
            if let Some(entry) = &self.slab[slot].1 {
                obs.on_flow_evicted(&FlowEvicted {
                    cause: EvictionCause::Drain,
                    events: entry.builder.events() as u64,
                });
                let done = self.finalize(slot, ladder, obs);
                out.push(done);
            }
        }
        out
    }
}

/// Hands worker `w` its pending batch (leaving an empty one of capacity
/// `batch`), opening the queue-wait span the worker ends at dequeue.
fn send_batch<S: Subscriber>(
    w: usize,
    pending: &mut Vec<Packet>,
    batch: usize,
    tx: &mpsc::SyncSender<WorkerMsg>,
    gauge: &QueueGauge,
    obs: &S,
) {
    let full = std::mem::replace(pending, Vec::with_capacity(batch));
    if S::ENABLED {
        gauge.inc();
    }
    let queue_span = span_begin_async(obs, SpanKind::QueueWait, 0, w as i64, full.len() as i64);
    tx.send(WorkerMsg::Batch(full, queue_span))
        .expect("worker alive");
}

fn worker_loop<S: Subscriber>(
    cfg: WorkerCfg,
    ladder: Vec<u32>,
    rx: mpsc::Receiver<WorkerMsg>,
    tx: mpsc::SyncSender<ToCollector>,
    gauge: &QueueGauge,
    obs: &S,
) {
    let mut st = WorkerState::new();
    for msg in rx {
        match msg {
            WorkerMsg::Batch(packets, queue_span) => {
                if S::ENABLED {
                    gauge.dec();
                }
                queue_span.end(obs);
                let batch_span = span_begin(obs, SpanKind::Reassembly, packets.len() as i64, 0);
                for packet in &packets {
                    st.feed(packet, &cfg, &ladder, obs);
                }
                batch_span.end(obs);
            }
            WorkerMsg::Tick {
                granule,
                watermark,
                sent_at,
            } => {
                let flows = st.evict_due(watermark, &cfg, &ladder, obs);
                let skipped = std::mem::take(&mut st.skipped);
                tx.send(ToCollector::TickDone {
                    granule,
                    watermark,
                    sent_at,
                    flows,
                    skipped,
                })
                .expect("collector alive");
            }
            WorkerMsg::Finish => {
                let flows = st.drain_all(&ladder, obs);
                tx.send(ToCollector::WorkerDone {
                    flows,
                    skipped: std::mem::take(&mut st.skipped),
                    peak: st.peak,
                    flows_total: st.flows_total,
                    overflowed: st.overflowed,
                })
                .expect("collector alive");
                return;
            }
        }
    }
}

/// One (client IP, server IP) probe session being assembled.
struct SessionSlot {
    client_ip: [u8; 4],
    server_ip: [u8; 4],
    first_seq: u64,
    flows: usize,
    last_seen: f64,
    connections: Vec<(f64, u64, ConnectionObservation)>,
}

struct SessionTable {
    slots: Vec<Option<SessionSlot>>,
    map: HashMap<([u8; 4], [u8; 4]), usize>,
    live: usize,
}

impl SessionTable {
    fn new() -> SessionTable {
        SessionTable {
            slots: Vec::new(),
            map: HashMap::new(),
            live: 0,
        }
    }

    /// Folds a granule's evictions in, sorted by first packet index so
    /// session creation/update order is worker-count independent.
    fn absorb(&mut self, mut flows: Vec<FlowDone>) {
        flows.sort_by_key(|f| f.first_seq);
        for fd in flows {
            let key = (fd.client_ip, fd.server_ip);
            let idx = match self.map.get(&key).copied() {
                Some(i) => i,
                None => {
                    self.slots.push(Some(SessionSlot {
                        client_ip: fd.client_ip,
                        server_ip: fd.server_ip,
                        first_seq: fd.first_seq,
                        flows: 0,
                        last_seen: f64::NEG_INFINITY,
                        connections: Vec::new(),
                    }));
                    let i = self.slots.len() - 1;
                    self.map.insert(key, i);
                    self.live += 1;
                    i
                }
            };
            let slot = self.slots[idx].as_mut().expect("live session");
            slot.flows += 1;
            slot.last_seen = slot.last_seen.max(fd.last_seen);
            if let Some(obs) = fd.obs {
                slot.connections.push((obs.start, fd.first_seq, obs));
            }
        }
    }

    /// Removes sessions idle past the timeout (or all of them), returned
    /// in first-packet order for deterministic emission.
    fn take_due(&mut self, cutoff: Option<f64>) -> Vec<SessionSlot> {
        let mut due = Vec::new();
        for idx in 0..self.slots.len() {
            let expired = match (&self.slots[idx], cutoff) {
                (Some(s), Some(c)) => s.last_seen <= c,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if expired {
                let slot = self.slots[idx].take().expect("checked above");
                self.map.remove(&(slot.client_ip, slot.server_ip));
                self.live -= 1;
                due.push(slot);
            }
        }
        // Tombstone compaction keeps collector memory ∝ live sessions.
        if self.slots.len() >= 64 && self.live * 2 < self.slots.len() {
            let kept: Vec<SessionSlot> = self.slots.drain(..).flatten().collect();
            self.map.clear();
            for (i, s) in kept.iter().enumerate() {
                self.map.insert((s.client_ip, s.server_ip), i);
            }
            self.slots = kept.into_iter().map(Some).collect();
        }
        due.sort_by_key(|s| s.first_seq);
        due
    }
}

#[derive(Default)]
struct CollectorOut {
    skipped: Vec<(u64, String)>,
    sessions: u64,
    dataless: u64,
    flows: u64,
    overflowed: u64,
    peak_live_flows: usize,
}

fn emit_session<F: FnMut(&SessionReport), S: Subscriber>(
    slot: SessionSlot,
    classifier: &CaaiClassifier,
    ladder: &[u32],
    out: &mut CollectorOut,
    on_verdict: &mut F,
    watermark: Option<f64>,
    obs: &S,
) {
    if slot.connections.is_empty() {
        out.dataless += 1;
        return;
    }
    let lag_secs = watermark.map_or(0.0, |w| (w - slot.last_seen).max(0.0));
    let mut conns = slot.connections;
    // Offline `sessions()` orders connections by start time, ties kept in
    // first-packet order (its sort is stable over capture order); the
    // first_seq tie-break reproduces that exactly.
    conns.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let session = ProbeSession {
        client_ip: slot.client_ip,
        server_ip: slot.server_ip,
        connections: conns.into_iter().map(|(_, _, obs)| obs).collect(),
        flows: slot.flows,
    };
    let replay_span = span_begin(obs, SpanKind::SessionReplay, out.sessions as i64, 0);
    let outcome = session_outcome(&session, ladder);
    replay_span.end(obs);
    let classify_span = span_begin(obs, SpanKind::Classify, out.sessions as i64, 0);
    let (verdict, identification) = verdict_for(&outcome, classifier);
    classify_span.end(obs);
    obs.on_session_emitted(&SessionEmitted {
        verdict: verdict.kind(),
        wmax: verdict.wmax(),
        flows: session.flows as u64,
        lag_secs,
    });
    let report = SessionReport {
        client_ip: session.client_ip,
        server_ip: session.server_ip,
        flows: session.flows,
        outcome,
        identification,
        record: CensusRecord {
            server_id: out.sessions as u32,
            truth: None,
            verdict,
        },
    };
    out.sessions += 1;
    on_verdict(&report);
}

#[derive(Default)]
struct PendingTick {
    done: usize,
    watermark: f64,
    sent_at: Option<Instant>,
    flows: Vec<FlowDone>,
}

fn collector_loop<F: FnMut(&SessionReport), S: Subscriber>(
    rx: mpsc::Receiver<ToCollector>,
    workers: usize,
    classifier: &CaaiClassifier,
    ladder: Vec<u32>,
    session_timeout: f64,
    mut on_verdict: F,
    obs: &S,
) -> CollectorOut {
    let mut out = CollectorOut::default();
    let mut sessions = SessionTable::new();
    let mut pending: BTreeMap<i64, PendingTick> = BTreeMap::new();
    let mut final_flows: Vec<FlowDone> = Vec::new();
    let mut done_workers = 0;
    while done_workers < workers {
        match rx.recv().expect("workers alive") {
            ToCollector::TickDone {
                granule,
                watermark,
                sent_at,
                flows,
                skipped,
            } => {
                out.skipped.extend(skipped);
                let p = pending.entry(granule).or_default();
                p.done += 1;
                p.watermark = watermark;
                p.sent_at = p.sent_at.or(sent_at);
                p.flows.extend(flows);
                if p.done == workers {
                    let p = pending.remove(&granule).expect("just updated");
                    let tick_span = span_begin(obs, SpanKind::GranuleTick, granule.max(0), 0);
                    sessions.absorb(p.flows);
                    for slot in sessions.take_due(Some(p.watermark - session_timeout)) {
                        emit_session(
                            slot,
                            classifier,
                            &ladder,
                            &mut out,
                            &mut on_verdict,
                            Some(p.watermark),
                            obs,
                        );
                    }
                    obs.on_granule_completed(&GranuleCompleted {
                        granule: granule.max(0) as u64,
                        watermark_secs: p.watermark,
                        tick_latency_us: p.sent_at.map_or(0, |t0| t0.elapsed().as_micros() as u64),
                        live_sessions: sessions.live as u64,
                    });
                    tick_span.end(obs);
                }
            }
            ToCollector::WorkerDone {
                flows,
                skipped,
                peak,
                flows_total,
                overflowed,
            } => {
                out.skipped.extend(skipped);
                out.peak_live_flows += peak;
                out.flows += flows_total;
                out.overflowed += overflowed;
                final_flows.extend(flows);
                done_workers += 1;
            }
        }
    }
    // Every tick was broadcast to every worker, so no granule can still be
    // incomplete here; fold any stragglers in granule order regardless.
    for (_, p) in std::mem::take(&mut pending) {
        sessions.absorb(p.flows);
    }
    sessions.absorb(final_flows);
    for slot in sessions.take_due(None) {
        emit_session(
            slot,
            classifier,
            &ladder,
            &mut out,
            &mut on_verdict,
            None,
            obs,
        );
    }
    out
}

/// Runs the streaming pipeline to the end of the source, invoking
/// `on_verdict` (from the collector thread) as each session's verdict
/// becomes final.
///
/// Returns `Err` only when the capture could not even start (unreadable
/// container header); damage mid-capture ends the run early with
/// [`StreamStats::truncated`] set and everything before it identified,
/// the same tolerance the offline path has.
pub fn run<F>(
    source: &mut dyn CaptureSource,
    classifier: &CaaiClassifier,
    config: &StreamConfig,
    on_verdict: F,
) -> Result<StreamStats, StreamError>
where
    F: FnMut(&SessionReport) + Send,
{
    run_obs(source, classifier, config, on_verdict, &NullSubscriber)
}

/// [`run`] with a structured-event subscriber.
///
/// On top of the capture events ([`FrameDecoded`], [`PacketSkipped`],
/// [`CaptureTruncated`], [`FlowOpened`], [`FlowEvicted`] with its
/// idle/overflow/drain cause) this emits the pipeline's own health
/// signals: a [`QueueDepthSampled`] per worker per granule (inbound-queue
/// high-water mark in batches), a [`GranuleCompleted`] per collector
/// barrier (tick latency, live sessions), and a [`SessionEmitted`] per
/// verdict with its emission lag behind the watermark. Verdicts and
/// [`StreamStats`] are identical to the unobserved call for every worker
/// count, and merged counter totals are worker-count invariant; only
/// wall-clock histograms (tick latency, queue depth) vary run to run.
pub fn run_obs<F, S>(
    source: &mut dyn CaptureSource,
    classifier: &CaaiClassifier,
    config: &StreamConfig,
    on_verdict: F,
    obs: &S,
) -> Result<StreamStats, StreamError>
where
    F: FnMut(&SessionReport) + Send,
    S: Subscriber,
{
    let workers = config.workers.max(1);
    let granule = (config.flow_timeout / 2.0).max(1e-3);
    let batch = config.batch.max(1);
    let ladder = if config.ladder.is_empty() {
        DEFAULT_LADDER.to_vec()
    } else {
        config.ladder.clone()
    };
    let wcfg = WorkerCfg {
        granule,
        flow_timeout: config.flow_timeout,
        max_events: config.max_flow_events.max(8),
        shard: 0,
    };

    let mut packets = 0u64;
    let mut local_skips: Vec<(u64, String)> = Vec::new();
    let mut truncated: Option<String> = None;
    let mut header_err: Option<SourceError> = None;
    let gauges: Vec<QueueGauge> = (0..workers).map(|_| QueueGauge::default()).collect();

    let collected = std::thread::scope(|s| {
        let (col_tx, col_rx) = mpsc::sync_channel::<ToCollector>(workers * 2 + 2);
        let mut txs = Vec::with_capacity(workers);
        for (w, gauge) in gauges.iter().enumerate().take(workers) {
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(config.channel_depth.max(1));
            let col = col_tx.clone();
            let worker_ladder = ladder.clone();
            let wcfg = WorkerCfg { shard: w, ..wcfg };
            s.spawn(move || worker_loop(wcfg, worker_ladder, rx, col, gauge, obs));
            txs.push(tx);
        }
        drop(col_tx);
        let collector_ladder = ladder.clone();
        let collector = s.spawn(move || {
            collector_loop(
                col_rx,
                workers,
                classifier,
                collector_ladder,
                config.session_timeout,
                on_verdict,
                obs,
            )
        });

        let mut batches: Vec<Vec<Packet>> =
            (0..workers).map(|_| Vec::with_capacity(batch)).collect();
        let mut watermark = f64::NEG_INFINITY;
        let mut cur_granule = i64::MIN;
        let mut saw_item = false;
        loop {
            match source.next_lent() {
                Ok(Some(SourceItem::Skipped { index, reason })) => {
                    saw_item = true;
                    obs.on_packet_skipped(&PacketSkipped {
                        index,
                        reason: &reason,
                    });
                    local_skips.push((index, reason));
                }
                Ok(Some(SourceItem::Frame(frame))) => {
                    saw_item = true;
                    let seg = match caai_capture::decode(frame.data) {
                        Ok(seg) => SegmentHeader::from(&seg),
                        Err(e) => {
                            let reason = e.to_string();
                            obs.on_packet_skipped(&PacketSkipped {
                                index: frame.index,
                                reason: &reason,
                            });
                            local_skips.push((frame.index, reason));
                            continue;
                        }
                    };
                    let target = shard_of(&seg, workers);
                    packets += 1;
                    obs.on_frame_decoded(&FrameDecoded {
                        bytes: frame.data.len() as u64,
                    });
                    let ts = frame.ts;
                    batches[target].push(Packet {
                        index: frame.index,
                        ts,
                        seg,
                    });
                    if batches[target].len() >= batch {
                        send_batch(
                            target,
                            &mut batches[target],
                            batch,
                            &txs[target],
                            &gauges[target],
                            obs,
                        );
                    }
                    if ts.is_finite() && ts > watermark {
                        watermark = ts;
                        let g = bucket_of(watermark, granule);
                        if g > cur_granule {
                            cur_granule = g;
                            let sent_at = S::ENABLED.then(Instant::now);
                            // Flush everything first: a tick must never
                            // overtake frames already read, or eviction
                            // would depend on batching, not the capture.
                            for (w, tx) in txs.iter().enumerate() {
                                if !batches[w].is_empty() {
                                    send_batch(w, &mut batches[w], batch, tx, &gauges[w], obs);
                                }
                                tx.send(WorkerMsg::Tick {
                                    granule: g,
                                    watermark,
                                    sent_at,
                                })
                                .expect("worker alive");
                            }
                            if S::ENABLED {
                                for (w, gauge) in gauges.iter().enumerate() {
                                    obs.on_queue_depth_sampled(&QueueDepthSampled {
                                        worker: w as u32,
                                        high_water: gauge.take_high_water(),
                                    });
                                }
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    if saw_item {
                        let reason = e.to_string();
                        obs.on_capture_truncated(&CaptureTruncated {
                            packets,
                            reason: &reason,
                        });
                        truncated = Some(reason);
                    } else {
                        header_err = Some(e);
                    }
                    break;
                }
            }
        }
        for (w, tx) in txs.iter().enumerate() {
            if !batches[w].is_empty() {
                send_batch(w, &mut batches[w], batch, tx, &gauges[w], obs);
            }
            tx.send(WorkerMsg::Finish).expect("worker alive");
        }
        drop(txs);
        collector.join().expect("collector thread")
    });

    if let Some(e) = header_err {
        return Err(StreamError::Source(e));
    }
    let mut skipped = collected.skipped;
    skipped.extend(local_skips);
    skipped.sort_by_key(|(index, _)| *index);
    Ok(StreamStats {
        packets,
        flows: collected.flows,
        sessions: collected.sessions,
        dataless_sessions: collected.dataless,
        overflowed_flows: collected.overflowed,
        peak_live_flows: collected.peak_live_flows,
        skipped,
        truncated,
    })
}
