//! Rendering simulated probe sessions into byte-valid captures.
//!
//! [`CaptureRenderer`] drives `Prober::gather_observed` and converts the
//! tap's event stream — data arrivals at the prober, ACK departures,
//! connection open/close — into Ethernet/IPv4/TCP frames with proper
//! handshakes, byte-granular sequence numbers (packets × MSS), checksums,
//! and FIN direction encoding who closed. The result round-trips: feeding
//! the rendered capture to [`crate::reconstruct`] reproduces the exact
//! [`GatherOutcome`] the simulation measured, which is the subsystem's
//! end-to-end correctness oracle (and a handy fixture generator — the CI
//! smoke job and the README walkthrough both build captures this way).

use crate::packet::{encode, flags, FrameSpec};
use crate::pcap::PcapWriter;
use caai_core::prober::{CloseInitiator, GatherOutcome, ProbeTap, Prober};
use caai_core::server_under_test::ServerUnderTest;
use caai_netem::{EnvironmentId, PathConfig};
use caai_obs::NullSubscriber;
use rand::Rng;
use std::io::{self, Write};

/// Base wall-clock epoch of rendered captures (March 2011, the paper's
/// measurement period). Reconstruction uses only relative times.
pub const CAPTURE_EPOCH: f64 = 1_300_000_000.0;

/// Idle gap inserted between rendered sessions, seconds.
const SESSION_GAP: f64 = 600.0;

/// Renders one or more probe sessions into a single capture.
///
/// Frames stream straight through the underlying [`PcapWriter`] as the
/// simulation emits them (they are produced in chronological order), so
/// rendering is O(connection state) in memory however many sessions the
/// capture holds — pass a file writer via
/// [`with_writer`](CaptureRenderer::with_writer) to render arbitrarily
/// large captures without buffering them.
#[derive(Debug)]
pub struct CaptureRenderer<W: Write = Vec<u8>> {
    writer: PcapWriter<W>,
    frames: usize,
    connections: u32,
    next_session_start: f64,
}

impl CaptureRenderer<Vec<u8>> {
    /// An in-memory capture.
    pub fn new() -> Self {
        CaptureRenderer::with_writer(Vec::new()).expect("Vec writes are infallible")
    }

    /// Finishes the capture and returns its bytes.
    pub fn to_bytes(self) -> Vec<u8> {
        self.finish().expect("Vec writes are infallible")
    }
}

impl Default for CaptureRenderer<Vec<u8>> {
    fn default() -> Self {
        CaptureRenderer::new()
    }
}

impl<W: Write> CaptureRenderer<W> {
    /// Starts a capture on an arbitrary writer (the pcap global header is
    /// written immediately).
    pub fn with_writer(w: W) -> io::Result<Self> {
        Ok(CaptureRenderer {
            writer: PcapWriter::new(w)?,
            frames: 0,
            connections: 0,
            next_session_start: 0.0,
        })
    }

    /// Runs the full CAAI protocol against `server` while rendering every
    /// wire event between `client_ip` and `server_ip` into the capture.
    /// Returns the simulated [`GatherOutcome`] (the round-trip oracle);
    /// an `Err` is the underlying writer failing.
    ///
    /// Sessions are laid out sequentially in capture time, separated by
    /// an idle gap, the way a real prober walks a target list.
    pub fn render_session(
        &mut self,
        client_ip: [u8; 4],
        server_ip: [u8; 4],
        server: &ServerUnderTest,
        prober: &Prober,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> io::Result<GatherOutcome> {
        let mut tap = RenderTap {
            writer: &mut self.writer,
            frames: &mut self.frames,
            connections: &mut self.connections,
            offset: self.next_session_start,
            client_ip,
            server_ip,
            conn: None,
            end: 0.0,
            error: None,
        };
        let outcome = prober.gather_observed(server, path, rng, &mut tap, &NullSubscriber);
        let (end, error) = (tap.end, tap.error.take());
        self.next_session_start += end + SESSION_GAP;
        match error {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Number of frames rendered so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(self) -> io::Result<W> {
        self.writer.finish()
    }
}

/// Per-connection wire state.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    client_port: u16,
    client_isn: u32,
    server_isn: u32,
    mss: u32,
    /// One past the highest data packet rendered (for the server's FIN).
    high_end: u64,
    /// Highest cumulative ACK rendered (for FIN acknowledgment numbers).
    last_ack: u64,
}

struct RenderTap<'a, W: Write> {
    writer: &'a mut PcapWriter<W>,
    frames: &'a mut usize,
    connections: &'a mut u32,
    offset: f64,
    client_ip: [u8; 4],
    server_ip: [u8; 4],
    conn: Option<ConnState>,
    end: f64,
    /// First writer failure; once set, further frames are dropped and
    /// the error surfaces from `render_session` ([`ProbeTap`] callbacks
    /// cannot themselves fail).
    error: Option<io::Error>,
}

impl<W: Write> RenderTap<'_, W> {
    fn ts(&mut self, now: f64) -> f64 {
        self.end = self.end.max(now);
        CAPTURE_EPOCH + self.offset + now
    }

    fn push(&mut self, ts: f64, spec: FrameSpec<'_>) {
        if self.error.is_some() {
            return;
        }
        match self.writer.write_frame(ts, &encode(&spec)) {
            Ok(()) => *self.frames += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn client_spec<'p>(&self, c: &ConnState, payload: &'p [u8]) -> FrameSpec<'p> {
        FrameSpec {
            src_ip: self.client_ip,
            dst_ip: self.server_ip,
            src_port: c.client_port,
            dst_port: 80,
            seq: c.client_isn.wrapping_add(1),
            ack: 0,
            flags: flags::ACK,
            window: 65535,
            mss_option: None,
            payload,
        }
    }

    fn server_spec<'p>(&self, c: &ConnState, payload: &'p [u8]) -> FrameSpec<'p> {
        FrameSpec {
            src_ip: self.server_ip,
            dst_ip: self.client_ip,
            src_port: 80,
            dst_port: c.client_port,
            seq: c.server_isn.wrapping_add(1),
            ack: c.client_isn.wrapping_add(1),
            flags: flags::ACK,
            window: 65535,
            mss_option: None,
            payload,
        }
    }

    /// Byte sequence of packet-unit offset `pkts` in the server's stream.
    fn data_seq(c: &ConnState, pkts: u64) -> u32 {
        c.server_isn
            .wrapping_add(1)
            .wrapping_add((pkts.wrapping_mul(u64::from(c.mss))) as u32)
    }
}

/// Deterministic payload for one data packet.
fn payload_bytes(seq: u64, mss: u32) -> Vec<u8> {
    (0..mss as usize)
        .map(|i| {
            ((seq as usize)
                .wrapping_mul(131)
                .wrapping_add(i.wrapping_mul(7))
                & 0xFF) as u8
        })
        .collect()
}

impl<W: Write> ProbeTap for RenderTap<'_, W> {
    fn connection_opened(
        &mut self,
        now: f64,
        _env: EnvironmentId,
        _wmax: u32,
        proposed_mss: u32,
        granted_mss: u32,
    ) {
        let index = *self.connections;
        *self.connections += 1;
        let conn = ConnState {
            client_port: 40000u16.wrapping_add((index % 20000) as u16),
            client_isn: 0x1357_9BDFu32.wrapping_mul(index.wrapping_add(1)),
            server_isn: 0x2468_ACE0u32.wrapping_mul(index.wrapping_add(3)),
            mss: granted_mss.max(1),
            high_end: 0,
            last_ack: 0,
        };
        let ts = self.ts(now);
        // SYN with the prober's proposed MSS, SYN/ACK granting the MSS
        // the server will actually segment at, final ACK.
        self.push(
            ts,
            FrameSpec {
                seq: conn.client_isn,
                flags: flags::SYN,
                mss_option: Some(proposed_mss.min(u32::from(u16::MAX)) as u16),
                ack: 0,
                ..self.client_spec(&conn, b"")
            },
        );
        self.push(
            ts,
            FrameSpec {
                seq: conn.server_isn,
                ack: conn.client_isn.wrapping_add(1),
                flags: flags::SYN | flags::ACK,
                mss_option: Some(granted_mss.min(u32::from(u16::MAX)) as u16),
                ..self.server_spec(&conn, b"")
            },
        );
        self.push(
            ts,
            FrameSpec {
                ack: conn.server_isn.wrapping_add(1),
                ..self.client_spec(&conn, b"")
            },
        );
        self.conn = Some(conn);
    }

    fn data_received(&mut self, now: f64, seq: u64, _duplicate: bool) {
        let Some(mut conn) = self.conn else { return };
        let ts = self.ts(now);
        let payload = payload_bytes(seq, conn.mss);
        self.push(
            ts,
            FrameSpec {
                seq: Self::data_seq(&conn, seq),
                flags: flags::ACK | flags::PSH,
                ..self.server_spec(&conn, &payload)
            },
        );
        conn.high_end = conn.high_end.max(seq + 1);
        self.conn = Some(conn);
    }

    fn ack_sent(&mut self, now: f64, cum_ack: u64, _duplicate: bool) {
        let Some(mut conn) = self.conn else { return };
        let ts = self.ts(now);
        self.push(
            ts,
            FrameSpec {
                ack: Self::data_seq(&conn, cum_ack),
                ..self.client_spec(&conn, b"")
            },
        );
        conn.last_ack = conn.last_ack.max(cum_ack);
        self.conn = Some(conn);
    }

    fn connection_closed(&mut self, now: f64, initiator: CloseInitiator) {
        let Some(conn) = self.conn.take() else { return };
        let ts = self.ts(now);
        let client_fin = FrameSpec {
            ack: Self::data_seq(&conn, conn.last_ack),
            flags: flags::FIN | flags::ACK,
            ..self.client_spec(&conn, b"")
        };
        let server_fin = FrameSpec {
            seq: Self::data_seq(&conn, conn.high_end),
            flags: flags::FIN | flags::ACK,
            ..self.server_spec(&conn, b"")
        };
        match initiator {
            CloseInitiator::Prober => {
                self.push(ts, client_fin);
                self.push(ts, server_fin);
                self.push(
                    ts,
                    FrameSpec {
                        ack: Self::data_seq(&conn, conn.high_end).wrapping_add(1),
                        ..self.client_spec(&conn, b"")
                    },
                );
            }
            CloseInitiator::Server => {
                self.push(ts, server_fin);
                self.push(ts, client_fin);
                self.push(
                    ts,
                    FrameSpec {
                        seq: Self::data_seq(&conn, conn.high_end).wrapping_add(1),
                        ..self.server_spec(&conn, b"")
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{reassemble, Endpoint};
    use crate::packet::verify_checksums;
    use caai_congestion::AlgorithmId;
    use caai_core::prober::ProberConfig;
    use caai_netem::rng::seeded;

    fn render_one(algo: AlgorithmId) -> (Vec<u8>, GatherOutcome) {
        let mut renderer = CaptureRenderer::new();
        let server = ServerUnderTest::ideal(algo);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(5);
        let outcome = renderer
            .render_session(
                [192, 0, 2, 1],
                [198, 51, 100, 1],
                &server,
                &prober,
                &PathConfig::clean(),
                &mut rng,
            )
            .expect("in-memory render cannot fail");
        (renderer.to_bytes(), outcome)
    }

    #[test]
    fn rendered_capture_is_byte_valid() {
        let (bytes, outcome) = render_one(AlgorithmId::Reno);
        assert!(outcome.pair.is_some());
        let mut reader = crate::pcap::PcapReader::new(&bytes).unwrap();
        let mut n = 0;
        while let Some(rec) = reader.next() {
            let rec = rec.expect("clean framing");
            verify_checksums(rec.data).expect("valid checksums");
            n += 1;
        }
        assert!(n > 100, "a full probe session renders many frames: {n}");
    }

    #[test]
    fn rendered_capture_reassembles_into_prober_flows() {
        let (bytes, _) = render_one(AlgorithmId::CubicV2);
        let r = reassemble(&bytes).unwrap();
        assert!(r.truncated.is_none());
        assert!(r.skipped.is_empty(), "{:?}", r.skipped);
        assert_eq!(r.flows.len(), 2, "environment A and B connections");
        for f in &r.flows {
            assert_eq!(f.client.0, [192, 0, 2, 1]);
            assert_eq!(f.server.0, [198, 51, 100, 1]);
            assert_eq!(f.effective_mss(), Some(100));
            assert_eq!(f.closed_by, Some(Endpoint::Client));
        }
    }

    #[test]
    fn sessions_are_time_separated() {
        let mut renderer = CaptureRenderer::new();
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(9);
        for (i, algo) in [AlgorithmId::Reno, AlgorithmId::Bic].iter().enumerate() {
            let server = ServerUnderTest::ideal(*algo);
            renderer
                .render_session(
                    [192, 0, 2, 1],
                    [198, 51, 100, 1 + i as u8],
                    &server,
                    &prober,
                    &PathConfig::clean(),
                    &mut rng,
                )
                .expect("in-memory render cannot fail");
        }
        let bytes = renderer.to_bytes();
        let mut reader = crate::pcap::PcapReader::new(&bytes).unwrap();
        let mut last = f64::NEG_INFINITY;
        while let Some(rec) = reader.next() {
            let ts = rec.unwrap().ts;
            assert!(ts > last, "chronological capture");
            last = ts;
        }
    }
}
