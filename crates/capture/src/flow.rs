//! TCP flow reassembly.
//!
//! Groups a capture's packets into connections keyed on the 4-tuple,
//! determines which endpoint is the prober (client) and which the web
//! server, extracts the negotiated MSS from the handshake, rebases raw
//! sequence numbers onto the server's ISN, and reduces each connection to
//! the event stream window reconstruction needs: server data arrivals and
//! prober ACK departures, in capture order, plus who closed. Packets that
//! fail to decode are skipped and reported, never fatal — the capture-
//! level mirror of `read_jsonl_tagged`'s torn-line policy.
//!
//! A packet finds its flow through a [`FlowIndex`]: a 256-slot
//! direct-mapped front cache in front of a std `HashMap` with its
//! randomly keyed SipHash. The one per-frame loop,
//! [`crate::source::drain_segments`], feeds two tables that use it:
//! [`reassemble_source`] here (whole captures of any container) and the
//! streaming pipeline's flow table, which also
//! [`remove`](FlowIndex::remove)s a flow when it is evicted, before its
//! slab slot is reused. Session grouping ([`crate::reconstruct::sessions`])
//! runs once per flow, not per packet, and uses a plain `HashMap`.

use crate::packet::{flags, TcpSegmentView};
use crate::pcap::PcapReader;
use crate::source::{drain_segments, skip, CaptureError, CaptureSource};
use caai_obs::{Event, EvictionCause, FlowEvicted, FlowOpened, NullSubscriber, Subscriber};
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

/// One wire event relevant to window reconstruction, in capture order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEvent {
    /// A server data segment arrived at the prober.
    Data {
        /// Capture timestamp, seconds.
        t: f64,
        /// Payload start, bytes relative to the server's first data byte.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// True when bytes at or past this offset were seen before.
        retransmit: bool,
    },
    /// The prober sent a (pure) ACK.
    Ack {
        /// Capture timestamp, seconds.
        t: f64,
        /// Acknowledged bytes relative to the server's first data byte.
        ack: u64,
        /// True when the ACK did not advance the cumulative point.
        duplicate: bool,
    },
}

impl FlowEvent {
    /// The event's capture timestamp.
    pub fn t(&self) -> f64 {
        match self {
            FlowEvent::Data { t, .. } | FlowEvent::Ack { t, .. } => *t,
        }
    }
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
    /// Data/ACK events in capture order, ending at the first FIN/RST.
    pub events: Vec<FlowEvent>,
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
/// The incremental core of [`reassemble`], public so streaming ingestion
/// (`caai-stream`) can feed one packet at a time and evict idle flows
/// without buffering a whole capture: construct with [`FlowBuilder::new`]
/// on a flow's first segment, [`feed`](FlowBuilder::feed) every segment
/// (including the first), and [`into_flow`](FlowBuilder::into_flow) when
/// the flow closes or is evicted.
#[derive(Debug)]
pub struct FlowBuilder {
    flow: Flow,
    /// Set once the initiator is known (SYN seen or data observed).
    oriented: bool,
    /// ISN of the server (sequence of its SYN/ACK), once seen.
    server_isn: Option<u32>,
    /// Relative byte just past the highest data seen so far.
    high_water: u64,
    /// Highest cumulative ACK (relative bytes) sent by the client.
    last_ack: Option<u64>,
    /// True once any data was seen (gates handshake-ACK suppression).
    data_seen: bool,
    /// Largest timestamp fed so far.
    last_seen: f64,
}

/// Everything reassembled from one capture.
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

/// Reassembles a raw classic capture buffer into flows.
///
/// Per-packet problems (non-IP ethertypes, corrupt headers, mid-stream
/// garbage) are skipped and reported in [`Reassembly::skipped`]; only a
/// broken pcap *framing* stops early, recorded in
/// [`Reassembly::truncated`]. The function never panics on any input.
pub fn reassemble(buf: &[u8]) -> Result<Reassembly, CaptureError> {
    reassemble_obs(buf, &NullSubscriber)
}

/// [`reassemble`] with a structured-event subscriber; see
/// [`reassemble_source`] for what it hears.
pub fn reassemble_obs<S: Subscriber>(buf: &[u8], obs: &S) -> Result<Reassembly, CaptureError> {
    reassemble_source(&mut PcapReader::new(buf)?, obs)
}

/// Drains any capture source and reassembles every flow, in order of
/// each flow's first packet. Fails only when the container header is
/// unreadable (or not Ethernet); damage after it is
/// [`Reassembly::truncated`].
///
/// `obs` hears the drain's events ([`crate::source::drain_segments`]), a
/// [`FlowOpened`] per new 4-tuple, and a [`FlowEvicted`] (cause
/// [`EvictionCause::Drain`]) per flow when the end of the capture closes
/// the table. The returned [`Reassembly`] is identical whatever the
/// subscriber.
pub fn reassemble_source<C, S>(source: &mut C, obs: &S) -> Result<Reassembly, CaptureError>
where
    C: CaptureSource + ?Sized,
    S: Subscriber,
{
    let mut index = FlowIndex::new();
    let mut order: Vec<FlowBuilder> = Vec::new();
    let drained = drain_segments(source, obs, |at, ts, seg, skipped| {
        let key = FlowKey::of(seg);
        let idx = index.get(&key).unwrap_or_else(|| {
            obs.on_event(&Event::FlowOpened(FlowOpened {}));
            order.push(FlowBuilder::new(seg, ts));
            index.insert(key, order.len() - 1);
            order.len() - 1
        });
        if let Some(reason) = order[idx].feed(ts, seg) {
            skip(obs, skipped, at, reason);
        }
    })?;
    let flows: Vec<Flow> = order
        .into_iter()
        .map(|b| {
            obs.on_event(&Event::FlowEvicted(FlowEvicted {
                cause: EvictionCause::Drain,
                events: b.events() as u64,
            }));
            b.into_flow()
        })
        .collect();
    Ok(Reassembly {
        flows,
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
                events: Vec::new(),
                closed_by: None,
                closed_at: None,
            },
            oriented,
            server_isn: None,
            high_water: 0,
            last_ack: None,
            data_seen: false,
            last_seen: ts,
        }
    }

    /// Records one server data segment as a [`FlowEvent::Data`]. Returns a
    /// skip reason when the segment could not be placed.
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
        self.data_seen = true;
        self.flow.events.push(FlowEvent::Data {
            t: ts,
            seq: rel,
            len,
            retransmit,
        });
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
            if rel == 0 && !self.data_seen {
                return None; // the handshake's third ACK, not a round boundary
            }
            let duplicate = self.last_ack.is_some_and(|last| rel <= last);
            if !duplicate {
                self.last_ack = Some(rel);
            }
            self.flow.events.push(FlowEvent::Ack {
                t: ts,
                ack: rel,
                duplicate,
            });
            None
        }
    }

    /// The largest capture timestamp fed so far (the flow's idle clock).
    pub fn last_seen(&self) -> f64 {
        self.last_seen
    }

    /// Number of events recorded so far (Data + Ack).
    pub fn events(&self) -> usize {
        self.flow.events.len()
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
        let kinds: Vec<(bool, u64)> = f
            .events
            .iter()
            .map(|e| match *e {
                FlowEvent::Data { seq, .. } => (true, seq),
                FlowEvent::Ack { ack, .. } => (false, ack),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![(true, 0), (true, 100), (false, 100), (false, 200)]
        );
    }

    #[test]
    fn handshake_ack_is_not_an_event() {
        let r = reassemble(&tiny_capture()).unwrap();
        let acks = r.flows[0]
            .events
            .iter()
            .filter(|e| matches!(e, FlowEvent::Ack { .. }))
            .count();
        assert_eq!(acks, 2, "the third handshake packet is suppressed");
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
        match f.events.as_slice() {
            [FlowEvent::Data {
                retransmit: false, ..
            }, FlowEvent::Data {
                retransmit: true,
                seq: 0,
                ..
            }] => {}
            other => panic!("unexpected events {other:?}"),
        }
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
        let data_events = f
            .events
            .iter()
            .filter(|e| matches!(e, FlowEvent::Data { .. }))
            .count();
        assert_eq!(data_events, 1, "only the server's bytes count as data");
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
        let data_lens: Vec<u32> = f
            .events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::Data { len, .. } => Some(*len),
                FlowEvent::Ack { .. } => None,
            })
            .collect();
        assert_eq!(data_lens, vec![100], "only server bytes are data");
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
        let data_bytes: u64 = f
            .events
            .iter()
            .map(|e| match e {
                FlowEvent::Data { len, .. } => u64::from(*len),
                FlowEvent::Ack { .. } => 0,
            })
            .sum();
        assert_eq!(data_bytes, 160, "the FIN segment's payload must count");
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
            let mut reader = PcapReader::new(&capture).unwrap();
            let mut builder: Option<FlowBuilder> = None;
            while let Some(Ok(record)) = reader.next() {
                let view = crate::packet::decode(record.data).unwrap();
                let header = SegmentHeader::from(&view);
                assert_eq!(header.payload_len as usize, view.payload.len());
                let b = builder.get_or_insert_with(|| FlowBuilder::new(&header, record.ts));
                assert_eq!(b.feed(record.ts, &header), None);
            }
            let rebuilt = builder.expect("fixtures are not empty").into_flow();
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
        assert_eq!(r.flows[0].events.len(), 2);
        assert_eq!(r.flows[1].events.len(), 1);
    }
}
