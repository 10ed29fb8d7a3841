//! The streaming identification pipeline: one loop from source to
//! verdicts, run by whoever calls [`run`].
//!
//! ```text
//!   source ──► decode in the ──► flow table ──► session table ──► verdicts
//!   (lends     feed buffer       (FlowBuilder    (client IP,       (ResultSink,
//!    frames)   (skips,            per flow,       server IP;        stdout, ...)
//!              truncation)        timeout wheel)  timeouts,
//!                                                 classify)
//!   └── decode thread ──┘ └────────────── calling thread ──────────────┘
//! ```
//!
//! Each frame is decoded once, where the source read it, and fed to its
//! flow's [`FlowBuilder`] as a [`SegmentHeader`] — the payload's length,
//! never the payload. Reading and decoding run ahead on the drain's
//! decode thread ([`caai_capture::source`]); everything after them, and
//! every callback and event, runs on the calling thread. Whenever the watermark (the largest timestamp seen)
//! crosses into a new **granule** (`flow_timeout / 2` of *capture* time)
//! the loop ticks, after feeding the packet that crossed: flows idle past
//! the timeout leave the wheel reduced to a [`ConnectionObservation`], are
//! grouped into (client IP, server IP) probe sessions, and every session
//! idle past its own timeout has its `w_max` ladder replayed, is
//! classified and emits one [`SessionReport`] — while the capture is
//! still growing.
//!
//! # Bounded memory
//!
//! Nothing accumulates for the lifetime of the capture:
//!
//! * a flow idle longer than [`StreamConfig::flow_timeout`] is evicted
//!   and reduced to its [`ConnectionObservation`] (flow memory ∝ live
//!   flows, not total flows);
//! * a flow that somehow never goes idle is force-evicted after
//!   [`StreamConfig::max_flow_events`] events;
//! * a session idle longer than [`StreamConfig::session_timeout`] emits
//!   its verdict and is dropped (session memory ∝ live sessions).
//!
//! # Offline is this loop run to EOF
//!
//! [`StreamConfig::whole_capture`] is offline identification's one rule:
//! no flow timeout, no session timeout, no per-flow event cap. Under it
//! no granule ever ticks, no flow is split and no session is emitted
//! before the source ends, so the verdicts are whole-capture verdicts,
//! those of `caai_capture`'s reference fold (`reassemble` +
//! `identify_reassembly`), while memory holds the flows and never the
//! capture. `identify_bytes` and `caai identify --pcap` run it;
//! `--follow` runs the same loop with finite timeouts.
//!
//! # Determinism
//!
//! The verdict stream is a function of the packet stream alone: time is
//! the watermark, never a wall clock, so eviction and emission do not
//! depend on how fast or in what pieces the bytes arrived; and a
//! granule's evictions enter their sessions, and due sessions emit, in
//! order of each one's first packet index. Where no timeout fires
//! mid-session, the verdicts equal the whole-capture reference's.
//!
//! [`FlowBuilder`]: caai_capture::flow::FlowBuilder
//! [`SegmentHeader`]: caai_capture::flow::SegmentHeader
//! [`ConnectionObservation`]: caai_capture::reconstruct::ConnectionObservation

use caai_capture::flow::{FlowBuilder, FlowIndex, FlowKey, SegmentHeader};
use caai_capture::reconstruct::{
    observe_connection, ConnectionObservation, ProbeSession, DEFAULT_LADDER,
};
use caai_capture::source::{drain_segments, skip, Skips};
use caai_capture::{session_report, CaptureError, CaptureSource, SessionReport};
use caai_core::classify::CaaiClassifier;
use caai_obs::{
    span_begin, span_begin_async, Event, EvictionCause, FlowEvicted, FlowOpened, GranuleCompleted,
    NullSubscriber, SpanKind, SpanToken, Subscriber,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Tuning for one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Read by nothing: there is no worker pool. The pipeline's one
    /// helper thread is the drain's decode thread, which is not
    /// configurable. Goes when a `benchmark` PR drops the
    /// `stream.speedup_w2` row that sets it.
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
            ladder: DEFAULT_LADDER.to_vec(),
        }
    }
}

impl StreamConfig {
    /// Offline identification's rule, written once: no flow timeout, no
    /// session timeout and no per-flow event cap, so a flow is never
    /// split, a session is never emitted before the capture ends, and no
    /// granule ever ticks. Every verdict is a whole-capture verdict.
    pub fn whole_capture() -> StreamConfig {
        StreamConfig {
            flow_timeout: f64::INFINITY,
            session_timeout: f64::INFINITY,
            max_flow_events: usize::MAX,
            ..StreamConfig::default()
        }
    }
}

/// Counters and diagnostics from one streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Frames decoded into TCP segments.
    pub packets: u64,
    /// Flows opened.
    pub flows: u64,
    /// Sessions whose verdict was emitted.
    pub sessions: u64,
    /// Sessions dropped because no connection was reconstructable (SYN
    /// scans, handshake-only chatter) — mirror of the whole-capture
    /// reference's filter.
    pub dataless_sessions: u64,
    /// Flows force-evicted at the `max_flow_events` cap.
    pub overflowed_flows: u64,
    /// The most flows that were live at once — the memory high-water
    /// mark the eviction wheel is bounding.
    pub peak_live_flows: usize,
    /// Packets skipped with their index and reason, in index order.
    pub skipped: Vec<(u64, String)>,
    /// The framing/I/O error that ended the capture after its header;
    /// everything before it was still identified (the one `truncated`
    /// policy of [`caai_capture::source`]).
    pub truncated: Option<CaptureError>,
}

fn bucket_of(ts: f64, granule: f64) -> i64 {
    (ts / granule).floor() as i64
}

/// A timestamp at or below the start of granule `bucket`, so a packet
/// earlier than it cannot lie in that granule or a later one: the start
/// lowered by four machine epsilons of its size, more than the rounding
/// in [`bucket_of`]'s division and in this product can move either.
fn granule_floor(bucket: i64, granule: f64) -> f64 {
    let start = bucket as f64 * granule;
    start - start.abs() * 4.0 * f64::EPSILON
}

/// One evicted flow, reduced to what its session needs.
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

struct FlowEntry {
    builder: FlowBuilder,
    first_seq: u64,
    key: FlowKey,
    /// The flow's lifetime span: opened at first packet, ended at
    /// eviction (idle, overflow, or drain).
    span: SpanToken,
}

/// The live flows: a slab (free list + generation counters so wheel
/// entries can be validated lazily) and the timeout wheel bucketing
/// flows by last-activity granule.
struct FlowTable<'a> {
    granule: f64,
    flow_timeout: f64,
    max_events: usize,
    ladder: &'a [u32],
    index: FlowIndex,
    slab: Vec<(u64, Option<FlowEntry>)>,
    free: Vec<usize>,
    wheel: BTreeMap<i64, Vec<(usize, u64)>>,
    /// Flows evicted at the event cap, waiting for the next tick.
    due: Vec<FlowDone>,
    live: usize,
    peak: usize,
    flows_total: u64,
    overflowed: u64,
}

impl<'a> FlowTable<'a> {
    fn new(config: &'a StreamConfig) -> FlowTable<'a> {
        FlowTable {
            granule: (config.flow_timeout / 2.0).max(1e-3),
            flow_timeout: config.flow_timeout,
            max_events: config.max_flow_events.max(8),
            ladder: if config.ladder.is_empty() {
                &DEFAULT_LADDER
            } else {
                &config.ladder
            },
            index: FlowIndex::new(),
            slab: Vec::new(),
            free: Vec::new(),
            wheel: BTreeMap::new(),
            due: Vec::new(),
            live: 0,
            peak: 0,
            flows_total: 0,
            overflowed: 0,
        }
    }

    fn finalize<S: Subscriber>(&mut self, slot: usize, obs: &S) -> FlowDone {
        let entry = self.slab[slot].1.take().expect("finalizing a live slot");
        entry.span.end(obs);
        self.slab[slot].0 += 1; // stale wheel entries now fail the gen check
        self.index.remove(&entry.key); // and its cached slot, before reuse
        self.free.push(slot);
        self.live -= 1;
        let last_seen = entry.builder.last_seen();
        let flow = entry.builder.into_flow();
        FlowDone {
            client_ip: flow.client.0,
            server_ip: flow.server.0,
            first_seq: entry.first_seq,
            last_seen,
            obs: observe_connection(&flow, self.ladder),
        }
    }

    fn feed<S: Subscriber>(
        &mut self,
        index: u64,
        ts: f64,
        seg: &SegmentHeader,
        skipped: &mut Skips,
        obs: &S,
    ) {
        let key = FlowKey::of(seg);
        let slot = match self.index.get(&key) {
            Some(s) => s,
            None => {
                let entry = FlowEntry {
                    builder: FlowBuilder::new(seg, ts),
                    first_seq: index,
                    key,
                    span: span_begin_async(obs, SpanKind::Flow, 0, index as i64, 0),
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
                self.index.insert(key, s);
                let gen = self.slab[s].0;
                self.wheel
                    .entry(bucket_of(ts, self.granule))
                    .or_default()
                    .push((s, gen));
                self.live += 1;
                self.peak = self.peak.max(self.live);
                self.flows_total += 1;
                obs.on_event(&Event::FlowOpened(FlowOpened {}));
                s
            }
        };
        let entry = self.slab[slot].1.as_mut().expect("live slot");
        if let Some(reason) = entry.builder.feed(ts, seg) {
            skip(obs, skipped, index, reason);
        }
        if entry.builder.events() >= self.max_events {
            self.overflowed += 1;
            obs.on_event(&Event::FlowEvicted(FlowEvicted {
                cause: EvictionCause::Overflow,
                events: entry.builder.events() as u64,
            }));
            let done = self.finalize(slot, obs);
            self.due.push(done);
        }
    }

    /// Evicts every flow idle since before `watermark - flow_timeout`.
    /// Wheel entries are validated lazily: a flow that was active since
    /// its bucket was written is re-bucketed instead of evicted.
    fn evict_due<S: Subscriber>(&mut self, watermark: f64, obs: &S) -> Vec<FlowDone> {
        let cutoff = watermark - self.flow_timeout;
        let mut out = std::mem::take(&mut self.due);
        while let Some((&bucket, _)) = self.wheel.iter().next() {
            if ((bucket + 1) as f64) * self.granule > cutoff {
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
                    obs.on_event(&Event::FlowEvicted(FlowEvicted {
                        cause: EvictionCause::Idle,
                        events: builder.events() as u64,
                    }));
                    let done = self.finalize(slot, obs);
                    out.push(done);
                } else {
                    self.wheel
                        .entry(bucket_of(last_seen, self.granule))
                        .or_default()
                        .push((slot, gen));
                }
            }
        }
        out
    }

    fn drain_all<S: Subscriber>(&mut self, obs: &S) -> Vec<FlowDone> {
        let mut out = std::mem::take(&mut self.due);
        for slot in 0..self.slab.len() {
            if let Some(entry) = &self.slab[slot].1 {
                obs.on_event(&Event::FlowEvicted(FlowEvicted {
                    cause: EvictionCause::Drain,
                    events: entry.builder.events() as u64,
                }));
                let done = self.finalize(slot, obs);
                out.push(done);
            }
        }
        out
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

impl SessionSlot {
    /// The probe session, its connections ordered as the whole-capture
    /// reference's `sessions()` orders them: by start time, ties kept in first-packet order (its
    /// sort is stable over capture order), which the first_seq
    /// tie-break reproduces exactly.
    fn into_session(mut self) -> ProbeSession {
        self.connections
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ProbeSession {
            client_ip: self.client_ip,
            server_ip: self.server_ip,
            connections: self.connections.into_iter().map(|(_, _, c)| c).collect(),
            flows: self.flows,
        }
    }
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

    /// Folds a granule's evictions in by first packet index — the order
    /// the whole-capture reference meets them in — whatever order the
    /// wheel released them in.
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
        // Tombstone compaction keeps session memory ∝ live sessions.
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

/// Runs the streaming pipeline to the end of the source, invoking
/// `on_verdict` as each session's verdict becomes final — from inside
/// this call, between two reads of the source, so it may borrow and
/// mutate whatever the caller likes.
///
/// Returns `Err` only when the container header is unreadable; damage
/// after it ends the run early with [`StreamStats::truncated`] set and
/// everything before it identified — the one rule of
/// [`caai_capture::source`].
pub fn run<C, F>(
    source: &mut C,
    classifier: &CaaiClassifier,
    config: &StreamConfig,
    on_verdict: F,
) -> Result<StreamStats, CaptureError>
where
    C: CaptureSource + ?Sized,
    F: FnMut(&SessionReport),
{
    run_obs(source, classifier, config, on_verdict, &NullSubscriber)
}

/// [`run`] with a structured-event subscriber; like `on_verdict`, `obs`
/// is only ever called from inside this call.
///
/// On top of the capture events (`FrameDecoded`, `PacketSkipped`,
/// `CaptureTruncated`, [`FlowOpened`], [`FlowEvicted`] with its
/// idle/overflow/drain cause) this emits the pipeline's own health
/// signals: a [`GranuleCompleted`] per granule tick (tick latency, live
/// sessions) and a [`SessionEmitted`](caai_obs::SessionEmitted) per
/// verdict with its emission lag behind the watermark. Verdicts and
/// [`StreamStats`] are identical to the unobserved call, and counter
/// totals depend on the capture alone; only the wall-clock tick-latency
/// histogram varies run to run.
pub fn run_obs<C, F, S>(
    source: &mut C,
    classifier: &CaaiClassifier,
    config: &StreamConfig,
    mut on_verdict: F,
    obs: &S,
) -> Result<StreamStats, CaptureError>
where
    C: CaptureSource + ?Sized,
    F: FnMut(&SessionReport),
    S: Subscriber,
{
    let mut flows = FlowTable::new(config);
    let (granule, ladder) = (flows.granule, flows.ladder);
    let mut sessions = SessionTable::new();
    let mut stats = StreamStats::default();
    // The watermark (the largest timestamp seen) ticks when it enters a
    // later granule than the last tick's; no packet below `next_tick`
    // can, so most skip the division. An infinite flow timeout has no
    // granules: nothing ever ticks.
    let mut cur_granule = i64::MIN;
    let mut next_tick = if granule.is_finite() {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    let mut ingest_span = SpanToken::NONE;
    // A due session's verdict (a dataless one is only counted); the lag
    // is measured against the watermark, none at the end of the capture.
    let mut emit = |slot: SessionSlot, watermark: Option<f64>| {
        if slot.connections.is_empty() {
            stats.dataless_sessions += 1;
            return;
        }
        let lag_secs = watermark.map_or(0.0, |w| (w - slot.last_seen).max(0.0));
        let index = stats.sessions as usize;
        stats.sessions += 1;
        let session = slot.into_session();
        on_verdict(&session_report(
            &session, index, lag_secs, classifier, ladder, obs,
        ));
    };

    let drained = drain_segments(source, obs, |index, ts, seg, skipped| {
        if ingest_span.id() == 0 {
            ingest_span = span_begin(obs, SpanKind::Reassembly, index as i64, 0);
        }
        flows.feed(index, ts, seg, skipped, obs);
        if !(ts >= next_tick && ts.is_finite()) {
            return;
        }
        let g = bucket_of(ts, granule);
        if g <= cur_granule {
            return;
        }
        // A packet in a later granule than every earlier one is the new
        // watermark. It was fed first: a flow it belongs to is live at
        // this tick, exactly as in a whole-capture read.
        let watermark = ts;
        cur_granule = g;
        next_tick = granule_floor(g.saturating_add(1), granule);
        ingest_span.end(obs);
        ingest_span = SpanToken::NONE;
        let began = S::ENABLED.then(Instant::now);
        let evicted = flows.evict_due(watermark, obs);
        let tick_span = span_begin(obs, SpanKind::GranuleTick, g.max(0), 0);
        sessions.absorb(evicted);
        for slot in sessions.take_due(Some(watermark - config.session_timeout)) {
            emit(slot, Some(watermark));
        }
        obs.on_event(&Event::GranuleCompleted(GranuleCompleted {
            granule: g.max(0) as u64,
            watermark_secs: watermark,
            tick_latency_us: began.map_or(0, |t0| t0.elapsed().as_micros() as u64),
            live_sessions: sessions.live as u64,
        }));
        tick_span.end(obs);
    })?;
    ingest_span.end(obs);
    sessions.absorb(flows.drain_all(obs));
    for slot in sessions.take_due(None) {
        emit(slot, None);
    }
    stats.packets = drained.packets;
    stats.skipped = drained.skipped;
    stats.truncated = drained.truncated;
    stats.flows = flows.flows_total;
    stats.overflowed_flows = flows.overflowed;
    stats.peak_live_flows = flows.peak;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{PcapStream, StallPolicy};
    use caai_capture::packet::{encode, flags, FrameSpec};
    use caai_capture::{identify_reassembly, reassemble, PcapWriter};
    use caai_core::training::{build_training_set, TrainingConfig};
    use caai_netem::rng::seeded;
    use caai_netem::ConditionDb;
    use std::sync::Mutex;

    /// Records the order of the events eviction order shows up in.
    #[derive(Default)]
    struct Order(Mutex<Vec<String>>);

    impl Subscriber for Order {
        fn on_event(&self, event: &Event<'_>) {
            let tag = match event {
                Event::FrameDecoded(_) => "frame".to_owned(),
                Event::FlowOpened(_) => "open".to_owned(),
                Event::FlowEvicted(e) => format!("evict:{:?}", e.cause),
                Event::GranuleCompleted(e) => format!("granule:{}", e.granule),
                _ => return,
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    /// The tick test's shortcut hides no tick: however the division in
    /// `bucket_of` rounds, no timestamp lies below the floor of its own
    /// granule. Checked a few ulps either side of granule starts up to
    /// 2e9 s, the timestamps of a capture taken today.
    #[test]
    fn no_timestamp_lies_below_its_granules_floor() {
        for granule in [1e-3, 0.05, 0.5, 1.0, 7.0, 30.0, 900.0] {
            for i in 0..4_000 {
                let t = 1e3 + f64::from(i) * 499_999.37;
                let start = (t / granule).floor() * granule;
                for ulps in -4i64..=4 {
                    let ts = f64::from_bits(start.to_bits().wrapping_add_signed(ulps));
                    let floor = granule_floor(bucket_of(ts, granule), granule);
                    assert!(ts >= floor, "{ts} below {floor} (granule {granule})");
                }
            }
        }
    }

    /// Flow A goes quiet for longer than the flow timeout and then speaks
    /// once more, and that packet is the one that moves the watermark
    /// into a new granule. Fed before the tick it belongs to the live
    /// flow, which the tick therefore keeps (it was just active) and a
    /// later tick evicts; evicted first, A would be split in two and its
    /// session would report two connections where a whole-capture read
    /// sees one.
    #[test]
    fn the_crossing_packet_is_fed_before_its_granule_evicts() {
        let client = [10, 1, 0, 1];
        let mut w = PcapWriter::new(Vec::new()).expect("in-memory writer");
        let mut frame = |t: f64, server: [u8; 4], from_server: bool, seq, f, payload: &[u8]| {
            let (src_ip, dst_ip, src_port, dst_port) = if from_server {
                (server, client, 80, 2000)
            } else {
                (client, server, 2000, 80)
            };
            let spec = FrameSpec {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                seq,
                ack: if from_server { 101 } else { 0 },
                flags: f,
                window: 65_535,
                mss_option: Some(1460),
                payload,
            };
            w.write_frame(t, &encode(&spec)).expect("write");
        };
        let data = [0u8; 1000];
        let (a, b) = ([10, 2, 0, 1], [10, 2, 0, 2]);
        frame(0.0, a, false, 100, flags::SYN, b"");
        frame(0.1, a, true, 900, flags::SYN | flags::ACK, b"");
        frame(0.2, a, true, 901, flags::ACK | flags::PSH, &data);
        // 99.8 s of silence (flow_timeout is 60), then A's last packet:
        // granule 0 → 3 at watermark 100, cutoff 40.
        frame(100.0, a, true, 1901, flags::ACK | flags::PSH, &data);
        // Flow B moves the watermark to 300: cutoff 240, A is idle now.
        frame(300.0, b, false, 100, flags::SYN, b"");
        frame(300.1, b, true, 900, flags::SYN | flags::ACK, b"");
        frame(300.2, b, true, 901, flags::ACK | flags::PSH, &data);
        let capture = w.finish().expect("finish");

        let classifier = {
            let mut rng = seeded(4);
            let data = build_training_set(
                &TrainingConfig::quick(1),
                &ConditionDb::paper_2011(),
                &mut rng,
            );
            CaaiClassifier::train(&data, &mut rng)
        };
        let order = Order::default();
        let mut reports = Vec::new();
        let mut source = PcapStream::new(std::io::Cursor::new(&capture[..]), StallPolicy::Eof);
        let stats = run_obs(
            &mut source,
            &classifier,
            &StreamConfig::default(),
            |s: &SessionReport| reports.push(s.clone()),
            &order,
        )
        .expect("capture parses");

        let expected = [
            "frame",
            "open",
            "granule:0",
            "frame",
            "frame",
            "frame",     // t = 100 joins flow A ...
            "granule:3", // ... so this tick evicts nothing
            "frame",
            "open",
            "evict:Idle", // A, one flow, at the t = 300 tick
            "granule:10",
            "frame",
            "frame",
            "evict:Drain",
        ];
        assert_eq!(*order.0.lock().unwrap(), expected);
        assert_eq!(stats.flows, 2);
        let reference = reassemble(&capture).expect("capture parses");
        let whole = identify_reassembly(&reference, &classifier, &DEFAULT_LADDER);
        assert_eq!(whole.len(), 2);
        assert_eq!(reports, whole, "streaming == whole-capture reference");
    }
}
