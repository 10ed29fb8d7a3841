//! TCP flow reassembly.
//!
//! Groups a capture's packets into connections keyed on the 4-tuple,
//! determines which endpoint is the prober (client) and which the web
//! server, extracts the negotiated MSS from the handshake, rebases raw
//! sequence numbers onto the server's ISN, and reduces each connection to
//! what window reconstruction needs: its rounds, plus who closed. A round
//! is one [`Burst`] of server data and the prober's ACKs after it; each
//! data segment and ACK is folded into the flow's current burst as it is
//! fed, so a flow holds O(rounds) memory, not O(packets), on every
//! ingestion path. Packets that fail to decode are skipped and reported,
//! never fatal — the capture-level mirror of `read_jsonl_tagged`'s
//! torn-line policy.
//!
//! A packet finds its flow through a [`FlowIndex`]: a 256-slot
//! direct-mapped front cache in front of a std `HashMap` with its
//! randomly keyed SipHash. The one per-frame loop,
//! [`crate::source::drain_segments`], feeds the product's one flow
//! table, the streaming pipeline's (`caai-stream`), which also
//! [`remove`](FlowIndex::remove)s a flow when it is evicted, before its
//! slab slot is reused. Offline identification is that pipeline run to
//! the end of the capture.
//!
//! [`reassemble_source`] here is the whole-capture reference: every
//! flow of a capture held until its end, in first-packet order, with no
//! timeouts. No product path runs it; tests, the fuzz `offline` target
//! and the benchmark's layer rows compare the pipeline against it, so it
//! stays as plain as a fold can be. Session grouping
//! ([`crate::reconstruct::sessions`]) runs once per flow, not per packet,
//! and uses a plain `HashMap`.

use crate::packet::{flags, TcpSegmentView};
use crate::pcap::PcapReader;
use crate::source::{drain_segments, CaptureError, CaptureSource};
use caai_obs::NullSubscriber;
use std::collections::HashMap;

/// A TCP connection 4-tuple in capture orientation (first-seen direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Lower endpoint (IP, port) of the canonical ordering.
    pub a: ([u8; 4], u16),
    /// Higher endpoint of the canonical ordering.
    pub b: ([u8; 4], u16),
}

/// Number of front-cache slots in a [`FlowIndex`].
const FRONT_SLOTS: usize = 256;

/// The flow lookup of every per-packet loop: `FlowKey → index` in a std
/// `HashMap`, behind a direct-mapped front cache of the most recent key
/// per slot.
///
/// Bulk flows send long runs of packets, and a capture interleaves few
/// of them at a time, so nearly every lookup hits the front slot: two
/// multiplies and one full key comparison instead of a SipHash of the
/// twelve key bytes. The slot comes from an unkeyed mix, but the
/// `HashMap` (randomly keyed SipHash) stays the authority: a hit is only
/// taken on an exact key match, and a miss is one ordinary `HashMap`
/// lookup that refills the slot. A capture crafted so that every packet
/// misses costs that lookup plus a few nanoseconds, never a collision
/// chain.
#[derive(Debug)]
pub struct FlowIndex {
    front: Box<[Option<(FlowKey, usize)>; FRONT_SLOTS]>,
    table: HashMap<FlowKey, usize>,
}

impl Default for FlowIndex {
    fn default() -> FlowIndex {
        FlowIndex::new()
    }
}

impl FlowIndex {
    /// An empty index.
    pub fn new() -> FlowIndex {
        FlowIndex {
            front: Box::new([None; FRONT_SLOTS]),
            table: HashMap::new(),
        }
    }

    /// The front slot a key maps to, below 256: the packed 96-bit key
    /// through an unkeyed multiply-mix, top eight bits. Public so tests
    /// and fuzz seeds can build keys that share a slot.
    #[inline]
    pub fn front_slot(key: &FlowKey) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let lo = u64::from(u32::from_le_bytes(key.a.0))
            | u64::from(key.a.1) << 32
            | u64::from(key.b.1) << 48;
        let hi = u64::from(u32::from_le_bytes(key.b.0));
        ((lo.wrapping_mul(K) ^ hi).wrapping_mul(K) >> 56) as usize
    }

    /// The index stored for `key`, if any.
    #[inline]
    pub fn get(&mut self, key: &FlowKey) -> Option<usize> {
        let slot = &mut self.front[FlowIndex::front_slot(key)];
        if let Some((cached, index)) = slot {
            if cached == key {
                return Some(*index);
            }
        }
        let index = *self.table.get(key)?;
        *slot = Some((*key, index));
        Some(index)
    }

    /// Stores `index` for `key`, returning the index it replaces.
    pub fn insert(&mut self, key: FlowKey, index: usize) -> Option<usize> {
        self.front[FlowIndex::front_slot(&key)] = Some((key, index));
        self.table.insert(key, index)
    }

    /// Forgets `key`, returning its index. The front slot is cleared when
    /// it holds `key`, so a later `get` cannot return the stale index.
    pub fn remove(&mut self, key: &FlowKey) -> Option<usize> {
        let slot = &mut self.front[FlowIndex::front_slot(key)];
        if slot.is_some_and(|(cached, _)| cached == *key) {
            *slot = None;
        }
        self.table.remove(key)
    }
}

/// The fields of a decoded segment that reassembly reads — everything but
/// the payload bytes, of which only the length matters. Small and `Copy`,
/// so streaming ingestion can decode a frame where it was read and hand
/// workers this instead of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
    /// Raw 32-bit sequence number.
    pub seq: u32,
    /// Raw 32-bit acknowledgement number (meaningful when ACK is set).
    pub ack: u32,
    /// TCP flag byte (see [`flags`]).
    pub flags: u8,
    /// The MSS option value, when present (SYN segments).
    pub mss_option: Option<u16>,
    /// Length of the TCP payload in bytes.
    pub payload_len: u32,
}

impl SegmentHeader {
    /// True when the given flag bits are all set.
    pub fn has(&self, bits: u8) -> bool {
        self.flags & bits == bits
    }
}

impl From<&TcpSegmentView<'_>> for SegmentHeader {
    fn from(seg: &TcpSegmentView<'_>) -> SegmentHeader {
        SegmentHeader {
            src_ip: seg.src_ip,
            dst_ip: seg.dst_ip,
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            mss_option: seg.mss_option,
            // A payload sits inside an IPv4 datagram: at most 65,535 bytes.
            payload_len: seg.payload.len() as u32,
        }
    }
}

impl FlowKey {
    /// Direction-insensitive key for a decoded segment.
    pub fn of(seg: &SegmentHeader) -> FlowKey {
        let x = (seg.src_ip, seg.src_port);
        let y = (seg.dst_ip, seg.dst_port);
        if x <= y {
            FlowKey { a: x, b: y }
        } else {
            FlowKey { a: y, b: x }
        }
    }
}

/// Which endpoint of a flow did something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The probing client (connection initiator).
    Client,
    /// The web server (data sender).
    Server,
}

/// Server data segments closer together than this are one burst; the
/// emulated RTTs (0.8 s / 1.0 s) are an order of magnitude larger, so the
/// margin is wide on both sides.
pub const BURST_GAP: f64 = 0.25;

/// One burst of server data: a candidate measurement round. A burst
/// starts at a flow's first data segment, at the first data segment after
/// a prober ACK, and after a pause in the data longer than [`BURST_GAP`];
/// every other data segment joins the current burst.
///
/// Offsets are bytes relative to the server's first data byte. They are
/// turned into packets only once the flow's segment size is known (at its
/// end), which the smallest start and the largest end allow: floor and
/// ceiling division are monotone, so they give the burst's smallest
/// packet index and one past its largest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Capture timestamp of the burst's first data segment.
    pub t0: f64,
    /// Smallest payload start offset in the burst.
    pub start: u64,
    /// Largest payload end offset in the burst.
    pub end: u64,
    /// True when the burst opens with a retransmission (bytes at or past
    /// its offset were seen before).
    pub head_retransmit: bool,
    /// True when a prober ACK came between the previous burst and this
    /// one; true for a flow's first burst.
    pub acked_before: bool,
    /// Timestamp of the first prober ACK after this burst (for RTT
    /// inference).
    pub first_ack_after: Option<f64>,
}

/// One reassembled connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// The prober endpoint (IP, port).
    pub client: ([u8; 4], u16),
    /// The web-server endpoint (IP, port).
    pub server: ([u8; 4], u16),
    /// Timestamp of the first packet of the flow.
    pub start: f64,
    /// MSS option announced in the prober's SYN, if seen.
    pub client_mss: Option<u16>,
    /// MSS option announced in the server's SYN/ACK, if seen.
    pub server_mss: Option<u16>,
    /// Largest data payload observed (the effective segment size).
    pub max_payload: u32,
    /// Bursts of server data in capture order, ending at the first
    /// FIN/RST.
    pub bursts: Vec<Burst>,
    /// Who closed first (FIN or RST), if the capture saw the close.
    pub closed_by: Option<Endpoint>,
    /// Timestamp of the close, when seen.
    pub closed_at: Option<f64>,
}

impl Flow {
    /// The effective MSS: the largest observed data payload, falling back
    /// to the handshake options (server grant bounded by the client's
    /// proposal) when the flow carried no data.
    pub fn effective_mss(&self) -> Option<u32> {
        if self.max_payload > 0 {
            return Some(self.max_payload);
        }
        match (self.client_mss, self.server_mss) {
            (Some(c), Some(s)) => Some(u32::from(c.min(s))),
            (Some(m), None) | (None, Some(m)) => Some(u32::from(m)),
            (None, None) => None,
        }
    }
}

/// Per-flow reassembly state while packets stream in.
///
/// The incremental core of every flow table, public so streaming
/// ingestion (`caai-stream`) can feed one packet at a time and evict idle
/// flows without buffering a whole capture: construct with
/// [`FlowBuilder::new`] on a flow's first segment,
/// [`feed`](FlowBuilder::feed) every segment (including the first), and
/// [`into_flow`](FlowBuilder::into_flow) when the flow closes or is
/// evicted.
#[derive(Debug)]
pub struct FlowBuilder {
    flow: Flow,
    /// Set once the initiator is known (SYN seen or data observed).
    oriented: bool,
    /// ISN of the server (sequence of its SYN/ACK), once seen.
    server_isn: Option<u32>,
    /// Relative byte just past the highest data seen so far.
    high_water: u64,
    /// A prober ACK was recorded since the last data segment.
    acked_since_data: bool,
    /// Timestamp of the last data segment.
    last_data_t: f64,
    /// Data segments and prober ACKs recorded so far.
    events: usize,
    /// Largest timestamp fed so far.
    last_seen: f64,
}

/// Everything the whole-capture reference ([`reassemble_source`])
/// reassembled from one capture.
#[derive(Debug, PartialEq)]
pub struct Reassembly {
    /// Flows in order of their first packet.
    pub flows: Vec<Flow>,
    /// Packets skipped with their record index and reason.
    pub skipped: Vec<(usize, String)>,
    /// A fatal framing error that ended reading early, if any.
    pub truncated: Option<CaptureError>,
    /// Total packets decoded into flows.
    pub packets: usize,
}

/// Reassembles a raw classic capture buffer into flows: the
/// whole-capture reference of [`reassemble_source`] over the zero-copy
/// [`PcapReader`].
///
/// Per-packet problems (non-IP ethertypes, corrupt headers, mid-stream
/// garbage) are skipped and reported in [`Reassembly::skipped`]; only a
/// broken pcap *framing* stops early, recorded in
/// [`Reassembly::truncated`]. The function never panics on any input.
pub fn reassemble(buf: &[u8]) -> Result<Reassembly, CaptureError> {
    reassemble_source(&mut PcapReader::new(buf)?)
}

/// Drains any capture source and reassembles every flow, in order of
/// each flow's first packet. Fails only when the container header is
/// unreadable (or not Ethernet); damage after it is
/// [`Reassembly::truncated`].
///
/// This is the reference the streaming pipeline is checked against, not
/// a product path: it holds every flow until the capture ends and has
/// no subscriber.
pub fn reassemble_source<C>(source: &mut C) -> Result<Reassembly, CaptureError>
where
    C: CaptureSource + ?Sized,
{
    let mut index = FlowIndex::new();
    let mut order: Vec<FlowBuilder> = Vec::new();
    let drained = drain_segments(source, &NullSubscriber, |at, ts, seg, skipped| {
        let key = FlowKey::of(seg);
        let idx = index.get(&key).unwrap_or_else(|| {
            order.push(FlowBuilder::new(seg, ts));
            index.insert(key, order.len() - 1);
            order.len() - 1
        });
        if let Some(reason) = order[idx].feed(ts, seg) {
            skipped.push((at, reason));
        }
    })?;
    Ok(Reassembly {
        flows: order.into_iter().map(FlowBuilder::into_flow).collect(),
        skipped: drained
            .skipped
            .into_iter()
            .map(|(at, reason)| (at as usize, reason))
            .collect(),
        truncated: drained.truncated,
        packets: drained.packets as usize,
    })
}

impl FlowBuilder {
    /// Opens a flow on its first segment. The same segment must still be
    /// [`feed`](FlowBuilder::feed)-ed afterwards — `new` only fixes the
    /// provisional orientation and the start timestamp.
    pub fn new(seg: &SegmentHeader, ts: f64) -> FlowBuilder {
        // Provisional orientation from the first packet: a pure SYN names
        // the client; anything else is re-oriented when data appears.
        let (client, server, oriented) = if seg.has(flags::SYN) && !seg.has(flags::ACK) {
            ((seg.src_ip, seg.src_port), (seg.dst_ip, seg.dst_port), true)
        } else if seg.has(flags::SYN) && seg.has(flags::ACK) {
            ((seg.dst_ip, seg.dst_port), (seg.src_ip, seg.src_port), true)
        } else if seg.payload_len > 0 {
            // Mid-stream capture: orient by the service port — the lower
            // port is the server side (a capture can just as well start
            // at the client's HTTP request as at server data). When the
            // ports tie, fall back to "the data sender is the server".
            if seg.dst_port < seg.src_port {
                ((seg.src_ip, seg.src_port), (seg.dst_ip, seg.dst_port), true)
            } else {
                ((seg.dst_ip, seg.dst_port), (seg.src_ip, seg.src_port), true)
            }
        } else {
            (
                (seg.src_ip, seg.src_port),
                (seg.dst_ip, seg.dst_port),
                false,
            )
        };
        FlowBuilder {
            flow: Flow {
                client,
                server,
                start: ts,
                client_mss: None,
                server_mss: None,
                max_payload: 0,
                bursts: Vec::new(),
                closed_by: None,
                closed_at: None,
            },
            oriented,
            server_isn: None,
            high_water: 0,
            acked_since_data: false,
            last_data_t: f64::NEG_INFINITY,
            events: 0,
            last_seen: ts,
        }
    }

    /// Folds one server data segment into the flow's current [`Burst`], or
    /// opens the next one with it. Returns a skip reason when the segment
    /// could not be placed.
    fn server_data(&mut self, ts: f64, seg: &SegmentHeader) -> Option<String> {
        // First data anchors the relative space when no SYN/ACK was
        // captured (mid-stream ingest): the first data byte sits one past
        // the ISN.
        let anchor = *self.server_isn.get_or_insert(seg.seq.wrapping_sub(1));
        let data_base = anchor.wrapping_add(1);
        let Some(rel) = self.rel(data_base, seg.seq) else {
            return Some("data sequence before the server ISN".to_owned());
        };
        let len = seg.payload_len;
        let end = rel + u64::from(len);
        let retransmit = rel < self.high_water;
        self.high_water = self.high_water.max(end);
        self.flow.max_payload = self.flow.max_payload.max(len);
        self.events += 1;
        let bursts = &mut self.flow.bursts;
        match bursts.last_mut() {
            Some(burst) if !self.acked_since_data && ts - self.last_data_t <= BURST_GAP => {
                burst.start = burst.start.min(rel);
                burst.end = burst.end.max(end);
            }
            _ => bursts.push(Burst {
                t0: ts,
                start: rel,
                end,
                head_retransmit: retransmit,
                acked_before: self.acked_since_data || bursts.is_empty(),
                first_ack_after: None,
            }),
        }
        self.acked_since_data = false;
        self.last_data_t = ts;
        None
    }

    /// Relative data offset of a raw server sequence number. Sequence
    /// arithmetic is modular; offsets in the lower half of the u32 ring
    /// are "at or after" the anchor, the upper half would be "before" it
    /// (stray packets, which the caller drops).
    fn rel(&self, anchor: u32, raw: u32) -> Option<u64> {
        let d = raw.wrapping_sub(anchor);
        if d < 0x8000_0000 {
            Some(u64::from(d))
        } else {
            None
        }
    }

    /// Folds one segment into the flow. Returns a skip reason when the
    /// segment could not be used (at most one per call); `None` means it
    /// was consumed (possibly as a deliberate no-op, e.g. teardown
    /// chatter after the close).
    pub fn feed(&mut self, ts: f64, seg: &SegmentHeader) -> Option<String> {
        self.last_seen = self.last_seen.max(ts);
        if self.flow.closed_by.is_some() {
            return None; // close teardown chatter is not part of the trace
        }
        let from_server = (seg.src_ip, seg.src_port) == self.flow.server;
        let from_client = (seg.src_ip, seg.src_port) == self.flow.client;
        if !from_server && !from_client {
            return Some("packet matches neither flow endpoint".to_owned());
        }

        // Late orientation fix: the first packets were pure ACKs (e.g. a
        // capture opening mid-handshake), so roles were provisional. The
        // first payload decides, with the same rule as `new`: the lower
        // port is the server; on a tie, the payload sender is.
        if !self.oriented && seg.payload_len > 0 {
            let server = if seg.dst_port < seg.src_port {
                (seg.dst_ip, seg.dst_port)
            } else {
                (seg.src_ip, seg.src_port)
            };
            if server != self.flow.server {
                std::mem::swap(&mut self.flow.client, &mut self.flow.server);
            }
            self.oriented = true;
            return self.feed(ts, seg);
        }

        if seg.has(flags::SYN) {
            if from_client {
                self.flow.client_mss = seg.mss_option;
            } else {
                self.flow.server_mss = seg.mss_option;
                self.server_isn = Some(seg.seq);
            }
            self.oriented = true;
            return None;
        }
        if seg.flags & (flags::FIN | flags::RST) != 0 {
            // A FIN routinely piggybacks the sender's last data segment
            // (Linux sends FIN on the final data packet): count those
            // bytes before recording the close, or the last round's
            // window is undercounted.
            let skip = if from_server && seg.payload_len > 0 {
                self.server_data(ts, seg)
            } else {
                None
            };
            self.flow.closed_by = Some(if from_server {
                Endpoint::Server
            } else {
                Endpoint::Client
            });
            self.flow.closed_at = Some(ts);
            return skip;
        }

        if from_server {
            if seg.payload_len == 0 {
                return None; // server pure ACKs carry no window information
            }
            self.server_data(ts, seg)
        } else {
            // Client side: pure cumulative ACKs. Payload from the client
            // (HTTP requests) carries no window information either — CAAI
            // measures the server's sending process — so only the ACK
            // number matters.
            if !seg.has(flags::ACK) {
                return None;
            }
            let Some(anchor) = self.server_isn else {
                return None; // handshake ACK before any server context
            };
            let data_base = anchor.wrapping_add(1);
            let rel = self.rel(data_base, seg.ack)?;
            if rel == 0 && self.flow.bursts.is_empty() {
                return None; // the handshake's third ACK, not a round boundary
            }
            self.events += 1;
            self.acked_since_data = true;
            if let Some(burst) = self.flow.bursts.last_mut() {
                burst.first_ack_after.get_or_insert(ts);
            }
            None
        }
    }

    /// The largest capture timestamp fed so far (the flow's idle clock).
    pub fn last_seen(&self) -> f64 {
        self.last_seen
    }

    /// Number of events recorded so far: server data segments and prober
    /// ACKs, each counted once whatever burst it folded into.
    pub fn events(&self) -> usize {
        self.events
    }

    /// The flow as reassembled so far.
    pub fn flow(&self) -> &Flow {
        &self.flow
    }

    /// Finishes the flow (on close, eviction, or end of capture).
    pub fn into_flow(self) -> Flow {
        self.flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode, FrameSpec};
    use crate::pcap::PcapWriter;

    const CLIENT: ([u8; 4], u16) = ([192, 0, 2, 1], 40000);
    const SERVER: ([u8; 4], u16) = ([198, 51, 100, 9], 80);

    struct Builder {
        out: Vec<u8>,
        w: Option<PcapWriter<Vec<u8>>>,
    }

    impl Builder {
        fn new() -> Builder {
            Builder {
                out: Vec::new(),
                w: Some(PcapWriter::new(Vec::new()).unwrap()),
            }
        }

        fn frame(&mut self, ts: f64, spec: FrameSpec<'_>) {
            self.w
                .as_mut()
                .unwrap()
                .write_frame(ts, &encode(&spec))
                .unwrap();
        }

        fn push_raw(&mut self, ts: f64, bytes: &[u8]) {
            self.w.as_mut().unwrap().write_frame(ts, bytes).unwrap();
        }

        fn finish(mut self) -> Vec<u8> {
            self.out = self.w.take().unwrap().finish().unwrap();
            self.out
        }
    }

    fn seg(from: ([u8; 4], u16), to: ([u8; 4], u16)) -> FrameSpec<'static> {
        FrameSpec {
            src_ip: from.0,
            dst_ip: to.0,
            src_port: from.1,
            dst_port: to.1,
            seq: 0,
            ack: 0,
            flags: flags::ACK,
            window: 65000,
            mss_option: None,
            payload: b"",
        }
    }

    /// A tiny handshake + 2 data packets + ACKs + server FIN.
    fn tiny_capture() -> Vec<u8> {
        let mut b = Builder::new();
        let isn_c = 1000u32;
        let isn_s = 5000u32;
        b.frame(
            0.0,
            FrameSpec {
                seq: isn_c,
                flags: flags::SYN,
                mss_option: Some(100),
                ..seg(CLIENT, SERVER)
            },
        );
        b.frame(
            0.1,
            FrameSpec {
                seq: isn_s,
                ack: isn_c + 1,
                flags: flags::SYN | flags::ACK,
                mss_option: Some(1460),
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            0.2,
            FrameSpec {
                seq: isn_c + 1,
                ack: isn_s + 1,
                ..seg(CLIENT, SERVER)
            },
        );
        let payload = [7u8; 100];
        b.frame(
            1.0,
            FrameSpec {
                seq: isn_s + 1,
                ack: isn_c + 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            1.0,
            FrameSpec {
                seq: isn_s + 101,
                ack: isn_c + 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            2.0,
            FrameSpec {
                seq: isn_c + 1,
                ack: isn_s + 101,
                ..seg(CLIENT, SERVER)
            },
        );
        b.frame(
            2.0,
            FrameSpec {
                seq: isn_c + 1,
                ack: isn_s + 201,
                ..seg(CLIENT, SERVER)
            },
        );
        b.frame(
            3.0,
            FrameSpec {
                seq: isn_s + 201,
                ack: isn_c + 1,
                flags: flags::FIN | flags::ACK,
                ..seg(SERVER, CLIENT)
            },
        );
        b.finish()
    }

    /// Feeds every packet of a capture to one `FlowBuilder` as streaming
    /// ingestion does: decoded where the bytes are, the header alone.
    fn build(capture: &[u8]) -> FlowBuilder {
        let mut reader = PcapReader::new(capture).unwrap();
        let mut builder: Option<FlowBuilder> = None;
        while let Some(Ok(record)) = reader.next() {
            let view = crate::packet::decode(record.data).unwrap();
            let header = SegmentHeader::from(&view);
            assert_eq!(header.payload_len as usize, view.payload.len());
            let b = builder.get_or_insert_with(|| FlowBuilder::new(&header, record.ts));
            assert_eq!(b.feed(record.ts, &header), None);
        }
        builder.expect("fixtures are not empty")
    }

    /// A burst that no ACK preceded (but the flow's first) or followed.
    fn burst(t0: f64, bytes: std::ops::Range<u64>) -> Burst {
        Burst {
            t0,
            start: bytes.start,
            end: bytes.end,
            head_retransmit: false,
            acked_before: true,
            first_ack_after: None,
        }
    }

    #[test]
    fn reassembles_the_tiny_flow() {
        let r = reassemble(&tiny_capture()).unwrap();
        assert!(r.truncated.is_none());
        assert!(r.skipped.is_empty());
        assert_eq!(r.flows.len(), 1);
        let f = &r.flows[0];
        assert_eq!(f.client, CLIENT);
        assert_eq!(f.server, SERVER);
        assert_eq!(f.client_mss, Some(100));
        assert_eq!(f.server_mss, Some(1460));
        assert_eq!(f.effective_mss(), Some(100));
        assert_eq!(f.closed_by, Some(Endpoint::Server));
        // Both data packets are one round, ACKed a second later.
        assert_eq!(
            f.bursts,
            vec![Burst {
                first_ack_after: Some(2.0),
                ..burst(1.0, 0..200)
            }]
        );
    }

    #[test]
    fn handshake_ack_is_not_an_event() {
        // Two data packets and two ACKs: the third handshake packet is
        // suppressed.
        assert_eq!(build(&tiny_capture()).events(), 4);
    }

    #[test]
    fn garbage_packets_are_skipped_and_reported() {
        let mut b = Builder::new();
        b.frame(
            0.0,
            FrameSpec {
                seq: 1,
                flags: flags::SYN,
                mss_option: Some(100),
                ..seg(CLIENT, SERVER)
            },
        );
        b.push_raw(0.5, &[0xAB; 40]); // mid-stream garbage
        b.push_raw(0.6, b"tiny");
        b.frame(
            1.0,
            FrameSpec {
                seq: 77,
                ack: 2,
                flags: flags::SYN | flags::ACK,
                mss_option: Some(536),
                ..seg(SERVER, CLIENT)
            },
        );
        let r = reassemble(&b.finish()).unwrap();
        assert_eq!(r.skipped.len(), 2, "{:?}", r.skipped);
        assert_eq!(r.skipped[0].0, 1);
        assert_eq!(r.flows.len(), 1);
        assert_eq!(r.flows[0].server_mss, Some(536));
    }

    /// The same 50-byte server segment captured twice.
    fn retransmission_capture() -> Vec<u8> {
        let mut b = Builder::new();
        let payload = [1u8; 50];
        b.frame(
            0.0,
            FrameSpec {
                seq: 101,
                ack: 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            5.0,
            FrameSpec {
                seq: 101,
                ack: 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.finish()
    }

    #[test]
    fn retransmissions_are_flagged() {
        let r = reassemble(&retransmission_capture()).unwrap();
        let f = &r.flows[0];
        assert_eq!(f.server, SERVER, "data sender becomes the server");
        assert_eq!(
            f.bursts,
            vec![
                burst(0.0, 0..50),
                Burst {
                    head_retransmit: true,
                    acked_before: false,
                    ..burst(5.0, 0..50)
                }
            ]
        );
    }

    #[test]
    fn non_ethernet_link_type_is_a_single_clear_error() {
        let mut capture = Builder::new().finish();
        capture[20..24].copy_from_slice(&113u32.to_le_bytes()); // LINUX_SLL
        let err = reassemble(&capture).unwrap_err();
        assert!(err.reason.contains("link type 113"), "{err}");
    }

    /// Handshake not captured; the first packet is the prober's HTTP
    /// request toward port 80, then server data flows back.
    fn midstream_capture() -> Vec<u8> {
        let mut b = Builder::new();
        b.frame(
            0.0,
            FrameSpec {
                seq: 500,
                ack: 9000,
                payload: b"GET /longest HTTP/1.1\r\n\r\n",
                ..seg(CLIENT, SERVER)
            },
        );
        let payload = [5u8; 100];
        b.frame(
            1.0,
            FrameSpec {
                seq: 9000,
                ack: 525,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.finish()
    }

    #[test]
    fn midstream_capture_starting_at_the_client_request_orients_by_port() {
        // The request sender must not be mistaken for the server.
        let r = reassemble(&midstream_capture()).unwrap();
        let f = &r.flows[0];
        assert_eq!(f.server, SERVER, "port 80 side is the server");
        assert_eq!(f.client, CLIENT);
        assert_eq!(
            f.bursts,
            vec![burst(1.0, 0..100)],
            "only the server's bytes count as data"
        );
        assert_eq!(build(&midstream_capture()).events(), 1);
        assert_eq!(f.max_payload, 100);
    }

    #[test]
    fn pure_ack_prefix_then_client_request_still_orients_by_port() {
        // Capture opens at the client's third handshake ACK, then the
        // client's HTTP request, then server data: the request sender
        // must not be mistaken for the server.
        let mut b = Builder::new();
        b.frame(
            0.0,
            FrameSpec {
                seq: 500,
                ack: 9000,
                ..seg(CLIENT, SERVER)
            },
        );
        b.frame(
            0.1,
            FrameSpec {
                seq: 500,
                ack: 9000,
                payload: b"GET / HTTP/1.1\r\n\r\n",
                ..seg(CLIENT, SERVER)
            },
        );
        let payload = [6u8; 100];
        b.frame(
            1.0,
            FrameSpec {
                seq: 9000,
                ack: 518,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        let r = reassemble(&b.finish()).unwrap();
        let f = &r.flows[0];
        assert_eq!(f.server, SERVER, "port 80 side stays the server");
        assert_eq!(
            f.bursts,
            vec![burst(1.0, 0..100)],
            "only server bytes are data"
        );
    }

    /// A server data segment, then its FIN carrying the last 80 bytes.
    fn fin_with_data_capture() -> Vec<u8> {
        let mut b = Builder::new();
        let payload = [3u8; 80];
        b.frame(
            0.0,
            FrameSpec {
                seq: 1,
                ack: 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            0.0,
            FrameSpec {
                seq: 81,
                ack: 1,
                flags: flags::FIN | flags::ACK,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.finish()
    }

    #[test]
    fn fin_with_piggybacked_data_counts_the_payload() {
        let r = reassemble(&fin_with_data_capture()).unwrap();
        let f = &r.flows[0];
        assert_eq!(f.closed_by, Some(Endpoint::Server));
        assert_eq!(
            f.bursts,
            vec![burst(0.0, 0..160)],
            "the FIN segment's payload must count"
        );
    }

    #[test]
    fn headers_alone_rebuild_the_same_flow() {
        // What streaming ingestion does: decode where the bytes are, keep
        // only the header, feed that. The fixtures above exercise every
        // read of the payload length (FIN with data, orientation by first
        // payload, retransmission high-water mark).
        for capture in [
            fin_with_data_capture(),
            midstream_capture(),
            retransmission_capture(),
            tiny_capture(),
        ] {
            let rebuilt = build(&capture).into_flow();
            assert_eq!(vec![rebuilt], reassemble(&capture).unwrap().flows);
        }
    }

    /// `n` distinct keys that all map to one front slot of a `FlowIndex`.
    fn keys_in_one_slot(n: usize) -> Vec<FlowKey> {
        let key = |port: u16| FlowKey {
            a: ([10, 0, 0, 1], port),
            b: ([10, 0, 0, 2], 80),
        };
        let slot = FlowIndex::front_slot(&key(1024));
        (1024..=u16::MAX)
            .map(key)
            .filter(|k| FlowIndex::front_slot(k) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn flow_index_agrees_with_a_hashmap_oracle() {
        use rand::Rng;
        let crowded = keys_in_one_slot(24);
        assert_eq!(crowded.len(), 24, "too few keys share a slot");
        let spread = (0..40u16).map(|i| FlowKey {
            a: ([192, 0, 2, (i % 7) as u8], 40_000 + i),
            b: SERVER,
        });
        let keys: Vec<FlowKey> = crowded.into_iter().chain(spread).collect();
        let mut rng = caai_netem::rng::seeded(31);
        let mut index = FlowIndex::new();
        let mut oracle: HashMap<FlowKey, usize> = HashMap::new();
        let mut next = 0usize;
        for _ in 0..50_000 {
            let key = keys[rng.random_range(0..keys.len())];
            match rng.random_range(0..10u32) {
                0..=4 => {}
                5..=6 => {
                    next += 1;
                    assert_eq!(index.insert(key, next), oracle.insert(key, next));
                }
                7 => assert_eq!(index.remove(&key), oracle.remove(&key)),
                _ => {
                    // The flow ends and its 4-tuple comes back under a new
                    // index: the pipeline reusing a slab slot.
                    assert_eq!(index.remove(&key), oracle.remove(&key));
                    next += 1;
                    assert_eq!(index.insert(key, next), oracle.insert(key, next));
                }
            }
            assert_eq!(index.get(&key), oracle.get(&key).copied());
            let other = keys[rng.random_range(0..keys.len())];
            assert_eq!(index.get(&other), oracle.get(&other).copied());
        }
        for key in &keys {
            assert_eq!(index.get(key), oracle.get(key).copied());
        }
    }

    #[test]
    fn two_interleaved_flows_separate() {
        let other_client = ([192, 0, 2, 1], 40001);
        let mut b = Builder::new();
        let payload = [9u8; 10];
        b.frame(
            0.0,
            FrameSpec {
                seq: 1,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        b.frame(
            0.1,
            FrameSpec {
                seq: 1,
                payload: &payload,
                ..seg(SERVER, other_client)
            },
        );
        b.frame(
            0.2,
            FrameSpec {
                seq: 11,
                payload: &payload,
                ..seg(SERVER, CLIENT)
            },
        );
        let r = reassemble(&b.finish()).unwrap();
        assert_eq!(r.flows.len(), 2);
        assert_eq!(r.flows[0].bursts, vec![burst(0.0, 0..20)]);
        assert_eq!(r.flows[1].bursts, vec![burst(0.1, 0..10)]);
    }

    /// A server data segment or a prober ACK, recorded per packet the way
    /// reassembly did before it folded them into bursts.
    #[derive(Debug, Clone, Copy)]
    enum Recorded {
        Data {
            t: f64,
            seq: u64,
            len: u32,
            retransmit: bool,
        },
        Ack {
            t: f64,
        },
    }

    /// The per-packet record of a flow whose first packet is the prober's
    /// SYN or the server's data, written out apart from `FlowBuilder`.
    fn record_per_packet(packets: &[(f64, SegmentHeader)]) -> Vec<Recorded> {
        let mut out = Vec::new();
        let mut isn: Option<u32> = None;
        let mut high = 0u64;
        for &(t, seg) in packets {
            let from_server = (seg.src_ip, seg.src_port) == SERVER;
            if seg.has(flags::SYN) {
                if from_server {
                    isn = Some(seg.seq);
                }
                continue;
            }
            let closes = seg.flags & (flags::FIN | flags::RST) != 0;
            if from_server && seg.payload_len > 0 {
                let anchor = *isn.get_or_insert(seg.seq.wrapping_sub(1));
                let d = seg.seq.wrapping_sub(anchor.wrapping_add(1));
                if d < 0x8000_0000 {
                    let seq = u64::from(d);
                    out.push(Recorded::Data {
                        t,
                        seq,
                        len: seg.payload_len,
                        retransmit: seq < high,
                    });
                    high = high.max(seq + u64::from(seg.payload_len));
                }
            } else if !from_server && !closes && seg.has(flags::ACK) {
                if let Some(anchor) = isn {
                    let d = seg.ack.wrapping_sub(anchor.wrapping_add(1));
                    let data_seen = out.iter().any(|r| matches!(r, Recorded::Data { .. }));
                    if d < 0x8000_0000 && (d > 0 || data_seen) {
                        out.push(Recorded::Ack { t });
                    }
                }
            }
            if closes {
                break;
            }
        }
        out
    }

    /// A burst in packets of `mss` bytes: `(t0, smallest packet, one past
    /// the largest, head retransmit, acked before, first ACK after)`.
    type PacketBurst = (f64, u64, u64, bool, bool, Option<f64>);

    /// Per-packet records grouped into bursts by the rule reassembly
    /// folds them with, applied after the fact in packet units.
    fn group_per_packet(records: &[Recorded], mss: u64) -> Vec<PacketBurst> {
        let mut bursts: Vec<PacketBurst> = Vec::new();
        let mut acks_since_last_data = 0usize;
        let mut last_data_t = f64::NEG_INFINITY;
        for record in records {
            match *record {
                Recorded::Data {
                    t,
                    seq,
                    len,
                    retransmit,
                } => {
                    let pkt = seq / mss;
                    let end = (seq + u64::from(len)).div_ceil(mss);
                    let new_burst = match bursts.last() {
                        None => true,
                        Some(_) => acks_since_last_data > 0 || t - last_data_t > BURST_GAP,
                    };
                    if new_burst {
                        let acked_before = acks_since_last_data > 0 || bursts.is_empty();
                        bursts.push((t, pkt, end, retransmit, acked_before, None));
                    } else {
                        let b = bursts.last_mut().expect("burst exists");
                        b.1 = b.1.min(pkt);
                        b.2 = b.2.max(end);
                    }
                    acks_since_last_data = 0;
                    last_data_t = t;
                }
                Recorded::Ack { t } => {
                    acks_since_last_data += 1;
                    if let Some(b) = bursts.last_mut() {
                        b.5.get_or_insert(t);
                    }
                }
            }
        }
        bursts
    }

    /// A random flow from `seed`: an optional handshake, then server data
    /// (fresh, past a hole, retransmitted, or from before the ISN) and
    /// prober ACKs (advancing, duplicate, stale, or on a request carrying
    /// payload) at gaps on both sides of `BURST_GAP`, often a close (a FIN
    /// carrying payload among them), then chatter after it.
    fn random_flow(seed: u64) -> Vec<(f64, SegmentHeader)> {
        use rand::Rng;
        let mut rng = caai_netem::rng::seeded(seed);
        let isn: u32 = rng.random();
        let size: u32 = rng.random_range(1..1461);
        let seg = |from_server: bool, seq: u32, ack: u32, flags: u8, payload_len: u32| {
            let (src, dst) = if from_server {
                (SERVER, CLIENT)
            } else {
                (CLIENT, SERVER)
            };
            SegmentHeader {
                src_ip: src.0,
                dst_ip: dst.0,
                src_port: src.1,
                dst_port: dst.1,
                seq,
                ack,
                flags,
                mss_option: None,
                payload_len,
            }
        };
        let at = |rel: u64| isn.wrapping_add(1).wrapping_add(rel as u32);
        let mut t = 0.0;
        let mut out = Vec::new();
        if rng.random_bool(0.5) {
            out.push((t, seg(false, 99, 0, flags::SYN, 0)));
            out.push((t, seg(true, isn, 100, flags::SYN | flags::ACK, 0)));
            out.push((t, seg(false, 100, at(0), flags::ACK, 0)));
        }
        let (mut high, mut acked) = (0u64, 0u64);
        let steps = rng.random_range(1..80);
        for step in 0..steps {
            const GAPS: [f64; 9] = [0.0, 0.001, 0.1, 0.25, 0.2501, 0.3, 0.8, 1.0, 3.0];
            t += GAPS[rng.random_range(0..GAPS.len())];
            let len = if rng.random_bool(0.7) {
                size
            } else {
                rng.random_range(1..=size)
            };
            let kind = if out.is_empty() {
                0
            } else {
                rng.random_range(0..11)
            };
            let (from_server, rel, ack, payload) = match kind {
                0..=3 => (true, high, 0, len),
                4 => (
                    true,
                    high + u64::from(size) * rng.random_range(1..4u64),
                    0,
                    len,
                ),
                5 => (true, rng.random_range(0..=high), 0, len),
                6 => {
                    acked = rng.random_range(acked..=high);
                    (false, 0, acked, 0)
                }
                7 => (false, 0, acked, 0),
                8 => (false, 0, rng.random_range(0..=acked), 0),
                9 => (false, 0, acked, 20),
                _ => {
                    // Data from before the server's ISN, or its pure ACK.
                    let payload = if step % 2 == 0 { len } else { 0 };
                    out.push((
                        t,
                        seg(true, at(0).wrapping_sub(500), 0, flags::ACK, payload),
                    ));
                    continue;
                }
            };
            if from_server {
                high = high.max(rel + u64::from(payload));
                out.push((t, seg(true, at(rel), 0, flags::ACK, payload)));
            } else {
                out.push((t, seg(false, 100, at(ack), flags::ACK, payload)));
            }
        }
        t += 0.5;
        match rng.random_range(0..5) {
            0 => out.push((t, seg(true, at(high), 0, flags::FIN | flags::ACK, size))),
            1 => out.push((t, seg(true, at(high), 0, flags::FIN | flags::ACK, 0))),
            2 => out.push((t, seg(false, 100, at(acked), flags::FIN | flags::ACK, 0))),
            3 => out.push((t, seg(false, 100, 0, flags::RST, 0))),
            _ => {}
        }
        out.push((t + 1.0, seg(true, at(high + 1), 0, flags::ACK, size)));
        out.push((t + 2.0, seg(false, 100, at(high), flags::ACK, 0)));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn folded_bursts_equal_per_packet_events_grouped_afterwards(seed in 0u64..u64::MAX) {
            let packets = random_flow(seed);
            let (t0, first) = packets[0];
            let mut builder = FlowBuilder::new(&first, t0);
            for (t, header) in &packets {
                builder.feed(*t, header);
            }
            let records = record_per_packet(&packets);
            proptest::prop_assert!(
                builder.events() == records.len(),
                "{} events folded, {} recorded",
                builder.events(),
                records.len()
            );
            let flow = builder.into_flow();
            // A flow without data has no bursts, whatever the unit.
            let mss = flow.effective_mss().map_or(1, |m| u64::from(m.max(1)));
            let folded: Vec<PacketBurst> = flow
                .bursts
                .iter()
                .map(|b| {
                    let (start, end) = (b.start / mss, b.end.div_ceil(mss));
                    (b.t0, start, end, b.head_retransmit, b.acked_before, b.first_ack_after)
                })
                .collect();
            let grouped = group_per_packet(&records, mss);
            proptest::prop_assert!(folded == grouped, "folded {folded:?}\ngrouped {grouped:?}");
        }
    }
}
