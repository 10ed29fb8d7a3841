//! The probe wire protocol's codec: `caai_core`'s frames over TCP.
//!
//! CAAI's ladder is defined over *emulated* time — the prober schedules
//! ACKs so the server experiences the RTT the environment prescribes.
//! The loopback transport keeps that property by carrying the virtual
//! clock on the wire: every client frame states `now`, the server's TCP
//! simulation advances to exactly that instant, and the exchange is the
//! one a simulated gather passes between the same two cores in memory,
//! whatever the real-socket pacing. That is what makes live-socket
//! verdicts agree with the simulator's by construction, and what keeps a
//! loopback census deterministic.
//!
//! Framing: a `u32` little-endian payload length, then the payload —
//! one tag byte and fixed little-endian fields (`f64` via its bit
//! pattern). The unit of the wire is a round, not a packet: a round's
//! ACK trains are one [`Acks`](ClientFrame::Acks) and a round's data is
//! one [`Burst`](ServerFrame::Burst). Both carry a `u32` count of
//! `(first: u64, len: u32)` runs of consecutive numbers (the ACK-range
//! idea of QUIC's ACK frame, RFC 9000 §19.3), written and read by one
//! pair of functions. On a clean wire each is one run, so a round trip
//! is ~80 bytes whatever the window. Decoded, the runs are the ladder's
//! own [`Run`]s, which the cores hand over as they are: no round is ever
//! expanded into its packets. Hostile bytes are the normal case for a
//! parser that listens on a socket, so decoding is strict
//! (length-capped, run-capped, finite-float-checked, no trailing bytes)
//! and every rejection names what was wrong, in the skip-and-report
//! diagnostic style of the pcap readers.

use caai_core::frame::{run_range, ProtocolError, MAX_BURST_SEQS};
use caai_core::ladder::Run;
use std::fmt;

// The frames live in `caai_core::frame`; they are named here only
// because `benchmark/` imports them from this module, and item 18 of
// ROADMAP.md removes them with the rest of its import list.
pub use caai_core::frame::{ClientFrame, ServerFrame};

/// Hard cap on one frame's payload, bytes. The largest legitimate frame
/// is a `Burst` or `Acks` of `MAX_BURST_SEQS` one-value runs (~768 KiB).
pub const MAX_FRAME_LEN: usize = 1 << 20;

const TAG_HELLO: u8 = 0x01;
const TAG_XMIT: u8 = 0x02;
const TAG_ACK: u8 = 0x03;
const TAG_RTO_WAIT: u8 = 0x04;
const TAG_ACKS: u8 = 0x06;
const TAG_WELCOME: u8 = 0x81;
const TAG_BURST: u8 = 0x82;
const TAG_RTO_RESULT: u8 = 0x83;

/// Anything that can be framed onto the probe wire.
pub trait Wire: Sized {
    /// Appends the frame's *payload* (tag + fields) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes one payload (as cut out by the length prefix).
    fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError>;

    /// Appends the length-prefixed frame to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.encode_payload(out);
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// `what` is only formatted on the error path, so a caller may pass
    /// `format_args!` for an indexed field at no cost.
    fn take(&mut self, n: usize, what: impl fmt::Display) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!(
                "truncated payload: {what} needs {n} bytes, {} left",
                self.bytes.len() - self.at
            )
            .into());
        };
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: impl fmt::Display) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: impl fmt::Display) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: impl fmt::Display) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Virtual-time and RTT fields must be finite: a NaN/∞ clock from a
    /// hostile peer would poison every downstream comparison.
    fn f64(&mut self, what: &str) -> Result<f64, ProtocolError> {
        let v = f64::from_bits(self.u64(what)?);
        if !v.is_finite() {
            return Err(format!("non-finite {what}: {v}").into());
        }
        Ok(v)
    }

    fn bool(&mut self, what: &str) -> Result<bool, ProtocolError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid {what} flag byte 0x{b:02x}").into()),
        }
    }

    /// A `u32` count of `(first, len)` runs, the frame's `what`: each held
    /// to [`run_range`], all together to [`MAX_BURST_SEQS`] values, and a
    /// run that continues the one before it merged into it, so the runs
    /// in memory are maximal. Only a frame that `may_be_empty` (a `Burst`:
    /// nothing to send, or a round the path lost whole) may name no value,
    /// by no runs or by one empty run.
    fn runs(&mut self, what: &str, may_be_empty: bool) -> Result<Vec<Run>, ProtocolError> {
        let runs = self.u32(format_args!("{what} run count"))? as usize;
        // Every run holds a value, so the cap on values caps the runs too.
        if runs > MAX_BURST_SEQS {
            return Err(
                format!("{what} run count {runs} exceeds the cap of {MAX_BURST_SEQS}").into(),
            );
        }
        if runs == 0 && !may_be_empty {
            return Err(format!("{what} without runs").into());
        }
        let mut merged = Vec::new();
        let mut total = 0u64;
        for i in 0..runs {
            let first = self.u64(format_args!("{what} run {i} first"))?;
            let len = u64::from(self.u32(format_args!("{what} run {i} len"))?);
            if may_be_empty && runs == 1 && len == 0 {
                merged.push(Run {
                    first,
                    len,
                    duplicate: false,
                });
                break;
            }
            run_range(format_args!("{what} run {i}"), first, len)?;
            total += len;
            if total > MAX_BURST_SEQS as u64 {
                return Err(format!(
                    "{what} of {total} sequences at run {i} exceeds the cap of {MAX_BURST_SEQS}"
                )
                .into());
            }
            Run::push(&mut merged, first, len, false);
        }
        Ok(merged)
    }

    fn finish(self, tag: &str) -> Result<(), ProtocolError> {
        if self.at != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after {tag} frame",
                self.bytes.len() - self.at
            )
            .into());
        }
        Ok(())
    }
}

/// Writes `runs` as [`Reader::runs`] reads them.
fn put_runs(out: &mut Vec<u8>, runs: &[Run]) {
    let count = u32::try_from(runs.len()).expect("more runs than a u32 counts");
    out.extend_from_slice(&count.to_le_bytes());
    for run in runs {
        let len = u32::try_from(run.len).expect("a run longer than a u32 counts");
        out.extend_from_slice(&run.first.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
}

impl Wire for ClientFrame {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match *self {
            ClientFrame::Hello { proposed_mss, now } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&proposed_mss.to_le_bytes());
                out.extend_from_slice(&now.to_bits().to_le_bytes());
            }
            ClientFrame::Xmit { now, horizon } => {
                out.push(TAG_XMIT);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&horizon.to_bits().to_le_bytes());
            }
            ClientFrame::Ack { now, cum_ack, rtt } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&cum_ack.to_le_bytes());
                out.extend_from_slice(&rtt.to_bits().to_le_bytes());
            }
            ClientFrame::Acks { now, rtt, ref runs } => {
                out.push(TAG_ACKS);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&rtt.to_bits().to_le_bytes());
                put_runs(out, runs);
            }
            ClientFrame::RtoWait { now, max_waits } => {
                out.push(TAG_RTO_WAIT);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&max_waits.to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("frame tag")?;
        let frame = match tag {
            TAG_HELLO => ClientFrame::Hello {
                proposed_mss: r.u32("proposed_mss")?,
                now: r.f64("hello clock")?,
            },
            TAG_XMIT => ClientFrame::Xmit {
                now: r.f64("xmit clock")?,
                horizon: r.f64("xmit horizon")?,
            },
            TAG_ACK => ClientFrame::Ack {
                now: r.f64("ack clock")?,
                cum_ack: r.u64("cum_ack")?,
                // rtt 0.0 is the duplicate marker, so it is exempt from
                // the finite check only in being legal, not in being
                // non-finite.
                rtt: r.f64("ack rtt")?,
            },
            TAG_ACKS => ClientFrame::Acks {
                now: r.f64("acks clock")?,
                rtt: r.f64("acks rtt")?,
                runs: r.runs("acks", false)?,
            },
            TAG_RTO_WAIT => ClientFrame::RtoWait {
                now: r.f64("rto-wait clock")?,
                max_waits: r.u32("max_waits")?,
            },
            t => return Err(format!("unknown client frame tag 0x{t:02x}").into()),
        };
        r.finish(match frame {
            ClientFrame::Hello { .. } => "Hello",
            ClientFrame::Xmit { .. } => "Xmit",
            ClientFrame::Ack { .. } => "Ack",
            ClientFrame::Acks { .. } => "Acks",
            ClientFrame::RtoWait { .. } => "RtoWait",
        })?;
        Ok(frame)
    }
}

impl Wire for ServerFrame {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            ServerFrame::Welcome { granted_mss } => {
                out.push(TAG_WELCOME);
                out.extend_from_slice(&granted_mss.to_le_bytes());
            }
            ServerFrame::Burst { done, runs } => {
                out.push(TAG_BURST);
                out.push(u8::from(*done));
                put_runs(out, runs);
            }
            ServerFrame::RtoResult { responded, now } => {
                out.push(TAG_RTO_RESULT);
                out.push(u8::from(*responded));
                out.extend_from_slice(&now.to_bits().to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("frame tag")?;
        let frame = match tag {
            TAG_WELCOME => ServerFrame::Welcome {
                granted_mss: r.u32("granted_mss")?,
            },
            TAG_BURST => ServerFrame::Burst {
                done: r.bool("burst done")?,
                runs: r.runs("burst", true)?,
            },
            TAG_RTO_RESULT => ServerFrame::RtoResult {
                responded: r.bool("rto responded")?,
                now: r.f64("rto clock")?,
            },
            t => return Err(format!("unknown server frame tag 0x{t:02x}").into()),
        };
        r.finish(match frame {
            ServerFrame::Welcome { .. } => "Welcome",
            ServerFrame::Burst { .. } => "Burst",
            ServerFrame::RtoResult { .. } => "RtoResult",
        })?;
        Ok(frame)
    }
}

/// Incremental frame decoder over a byte stream: push arbitrary chunks
/// in, pull whole frames out. One instance per direction per connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted lazily.
    read: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so the buffer stays bounded by the
        // largest in-flight frame, not the whole connection history.
        if self.read > 0 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pulls the next whole frame, `Ok(None)` when more bytes are
    /// needed. After an `Err` the stream is unrecoverable.
    ///
    /// Not an `Iterator`: the item type is chosen per call (`ClientFrame`
    /// on the server side, `ServerFrame` on the client side).
    #[allow(clippy::should_implement_trait)]
    pub fn next<F: Wire>(&mut self) -> Result<Option<F>, ProtocolError> {
        let avail = &self.buf[self.read..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 {
            return Err("zero-length frame".to_owned().into());
        }
        if len > MAX_FRAME_LEN {
            return Err(format!("frame length {len} exceeds the cap of {MAX_FRAME_LEN}").into());
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = &avail[4..4 + len];
        let frame = F::decode_payload(payload)?;
        self.read += 4 + len;
        Ok(Some(frame))
    }
}

/// Encodes one frame to a fresh byte vector.
pub fn encode<F: Wire>(frame: &F) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    frame.encode_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run(first: u64, len: u64) -> Run {
        Run {
            first,
            len,
            duplicate: false,
        }
    }

    fn roundtrip_client(frame: ClientFrame) {
        let bytes = encode(&frame);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next::<ClientFrame>().unwrap(), Some(frame));
        assert_eq!(dec.next::<ClientFrame>().unwrap(), None);
    }

    #[test]
    fn client_frames_roundtrip() {
        roundtrip_client(ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        });
        roundtrip_client(ClientFrame::Xmit {
            now: 1.5,
            horizon: 2.5,
        });
        roundtrip_client(ClientFrame::Ack {
            now: 3.0,
            cum_ack: 517,
            rtt: 1.0,
        });
        roundtrip_client(ClientFrame::Acks {
            now: 3.0,
            rtt: 1.0,
            runs: vec![run(518, 512), run(1100, 3)],
        });
        roundtrip_client(ClientFrame::RtoWait {
            now: 9.75,
            max_waits: 2,
        });
    }

    #[test]
    fn server_frames_roundtrip() {
        let frames = [
            ServerFrame::Welcome { granted_mss: 536 },
            ServerFrame::Burst {
                done: false,
                runs: vec![run(0, 4), run(9, 2)],
            },
            ServerFrame::Burst {
                done: true,
                runs: vec![],
            },
            // A round the path lost whole.
            ServerFrame::Burst {
                done: false,
                runs: vec![run(7, 0)],
            },
            ServerFrame::RtoResult {
                responded: true,
                now: 33.5,
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        // Fed byte by byte: the decoder must reassemble across splits.
        let got = decode_bytewise::<ServerFrame>(&bytes).unwrap();
        assert_eq!(got, frames);
    }

    #[test]
    fn oversized_length_is_rejected_with_the_cap_named() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = dec.next::<ServerFrame>().unwrap_err();
        assert!(err.reason.contains("exceeds the cap"), "{err}");
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(dec.next::<ServerFrame>().is_err());
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_named() {
        let err = ServerFrame::decode_payload(&[0x7f]).unwrap_err();
        assert!(
            err.reason.contains("unknown server frame tag 0x7f"),
            "{err}"
        );

        let mut payload = Vec::new();
        ServerFrame::Welcome { granted_mss: 1 }.encode_payload(&mut payload);
        payload.push(0xaa);
        let err = ServerFrame::decode_payload(&payload).unwrap_err();
        assert!(err.reason.contains("trailing bytes"), "{err}");
    }

    #[test]
    fn burst_count_must_match_payload() {
        let mut payload = vec![TAG_BURST, 0];
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes()); // only one seq
        let err = ServerFrame::decode_payload(&payload).unwrap_err();
        assert!(err.reason.contains("truncated payload"), "{err}");
    }

    /// Every whole frame in `bytes`, fed to the decoder one byte at a
    /// time.
    fn decode_bytewise<F: Wire>(bytes: &[u8]) -> Result<Vec<F>, ProtocolError> {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in bytes {
            dec.push(&[*b]);
            while let Some(f) = dec.next::<F>()? {
                got.push(f);
            }
        }
        assert_eq!(dec.pending(), 0, "bytes left over");
        Ok(got)
    }

    /// `len` sequence numbers drawn from `seed` (SplitMix64): strictly
    /// increasing with holes (`shape` 0), or arbitrary — repeats, steps
    /// back, values at `u64::MAX` — with consecutive stretches mixed in.
    fn drawn_seqs(mut seed: u64, len: usize, shape: u8) -> Vec<u64> {
        let mut draw = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut seq = draw() % 1000;
        (0..len)
            .map(|_| {
                let d = draw();
                seq = match (shape, d % 8) {
                    (0, 0) => seq + 2 + (d >> 8) % 5,
                    (0, _) => seq + 1,
                    (_, 0) => d,
                    (_, 1) => u64::MAX - (d >> 8) % 3,
                    (_, 2) => seq,
                    (_, 3) => seq.saturating_sub((d >> 8) % 4),
                    _ => seq.saturating_add(1),
                };
                seq
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn any_burst_roundtrips_through_its_runs(
            seed in 0u64..u64::MAX,
            len in 0usize..700,
            shape in 0u8..2,
            done in 0u8..2,
        ) {
            // The drawn numbers as runs cut before every multiple of 3, so
            // some run continues the one before it; decoded, the runs are
            // the maximal ones of the same numbers.
            let seqs = drawn_seqs(seed, len, shape);
            let mut cut: Vec<Run> = Vec::new();
            for &seq in &seqs {
                let continues = |last: &Run| last.first.checked_add(last.len) == Some(seq);
                match cut.last_mut() {
                    Some(last) if seq % 3 != 0 && continues(last) => last.len += 1,
                    _ => cut.push(run(seq, 1)),
                }
            }
            let maximal: Vec<Run> = seqs
                .chunk_by(|a, b| a.checked_add(1) == Some(*b))
                .map(|r| run(r[0], r.len() as u64))
                .collect();
            let sent = ServerFrame::Burst { done: done == 1, runs: cut.clone() };
            let got = decode_bytewise::<ServerFrame>(&encode(&sent));
            let want = ServerFrame::Burst { done: done == 1, runs: maximal.clone() };
            prop_assert!(got == Ok(vec![want.clone()]), "{got:?}");
            // Maximal runs encode and decode unchanged.
            let again = decode_bytewise::<ServerFrame>(&encode(&want));
            prop_assert!(again == Ok(vec![want]), "{again:?}");
            // A round's ACKs are the same runs behind a clock and an RTT
            // (and name at least one ACK).
            let acks = |runs| ClientFrame::Acks { now: seed as f64, rtt: 0.5, runs };
            if !cut.is_empty() {
                let got = decode_bytewise::<ClientFrame>(&encode(&acks(cut)));
                prop_assert!(got == Ok(vec![acks(maximal)]), "{got:?}");
            }
        }

        #[test]
        fn any_ack_run_roundtrips(
            first in 0u64..u64::MAX,
            count in 1u64..(MAX_BURST_SEQS as u64 / 2 + 1),
            hole in 1u64..1000,
            now in 0.0f64..1e6,
            rtt in 0.0f64..10.0,
        ) {
            // Two trains `hole` values apart, the second ending at
            // `u64::MAX` at the latest.
            let first = first.min(u64::MAX - (2 * count + hole - 1));
            let second = first + count + hole;
            let runs = vec![run(first, count), run(second, count)];
            let frame = ClientFrame::Acks { now, rtt, runs };
            let got = decode_bytewise::<ClientFrame>(&encode(&frame));
            prop_assert!(got == Ok(vec![frame]), "{got:?}");
        }
    }

    #[test]
    fn a_clean_window_is_one_run_and_a_full_burst_fits_the_frame_cap() {
        let window = ServerFrame::Burst {
            done: false,
            runs: vec![run(1000, 512)],
        };
        // length, tag, done, run count, one (first, len).
        assert_eq!(encode(&window).len(), 4 + 1 + 1 + 4 + 12);

        // The worst legitimate burst: the cap's worth of one-sequence runs.
        let sparse = ServerFrame::Burst {
            done: false,
            runs: (0..MAX_BURST_SEQS as u64).map(|i| run(2 * i, 1)).collect(),
        };
        let bytes = encode(&sparse);
        assert!(bytes.len() - 4 <= MAX_FRAME_LEN);
        assert_eq!(decode_bytewise::<ServerFrame>(&bytes[..]), Ok(vec![sparse]));

        // A clean round's ACKs: length, tag, clock, RTT, run count, one
        // (first, len).
        let acks = ClientFrame::Acks {
            now: 2.0,
            rtt: 1.0,
            runs: vec![run(1001, 512)],
        };
        assert_eq!(encode(&acks).len(), 4 + 1 + 8 + 8 + 4 + 12);
    }

    /// A payload of `head` (the tag and fixed fields), then `runs`.
    fn runs_payload(head: &[u8], runs: &[(u64, u32)]) -> Vec<u8> {
        let mut payload = head.to_vec();
        payload.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (first, len) in runs {
            payload.extend_from_slice(&first.to_le_bytes());
            payload.extend_from_slice(&len.to_le_bytes());
        }
        payload
    }

    /// The refusals one runs reader makes for both frames, the frame
    /// `name`d in each reason: `refused` decodes runs behind its header.
    fn hostile_runs_are_refused(name: &str, refused: impl Fn(&[(u64, u32)]) -> String) {
        assert_eq!(refused(&[(0, 4), (9, 0)]), format!("empty {name} run 1"));
        assert_eq!(refused(&[(9, 0), (12, 1)]), format!("empty {name} run 0"));
        // Two runs, each under the cap, together past it: refused at the
        // second run's header, at the payload's end.
        let half = MAX_BURST_SEQS as u32 / 2;
        assert_eq!(
            refused(&[(0, half), (1 << 40, half + 1)]),
            format!("{name} of 65537 sequences at run 1 exceeds the cap of 65536")
        );
        assert_eq!(
            refused(&[(0, u32::MAX)]),
            format!("{name} run 0 count 4294967295 exceeds the cap of 65536")
        );
        assert_eq!(
            refused(&[(u64::MAX, 2)]),
            format!("{name} run 0 first 18446744073709551615 + count 2 overflows u64")
        );
    }

    fn acks_payload(runs: &[(u64, u32)]) -> Vec<u8> {
        let mut head = vec![TAG_ACKS];
        head.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        head.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        runs_payload(&head, runs)
    }

    #[test]
    fn hostile_ack_runs_are_refused_by_name() {
        let acks = |runs: &[_]| ClientFrame::decode_payload(&acks_payload(runs));
        hostile_runs_are_refused("acks", |runs| acks(runs).unwrap_err().reason);
        // A round's ACKs name at least one: no lone empty run, as a burst
        // the path lost whole has, and no runs at all.
        assert_eq!(acks(&[(9, 0)]).unwrap_err().reason, "empty acks run 0");
        assert_eq!(acks(&[]).unwrap_err().reason, "acks without runs");
        assert!(acks(&[(7, MAX_BURST_SEQS as u32)]).is_ok());
        assert!(acks(&[(u64::MAX - 1, 2)]).is_ok());
    }

    #[test]
    fn hostile_burst_runs_are_refused_by_name() {
        let refused = |payload: &[u8]| ServerFrame::decode_payload(payload).unwrap_err().reason;
        let burst = |runs: &[_]| runs_payload(&[TAG_BURST, 0], runs);
        hostile_runs_are_refused("burst", |runs| refused(&burst(runs)));
        // Cut inside the second run's `len`.
        let mut cut = burst(&[(0, 4), (9, 2)]);
        cut.truncate(cut.len() - 2);
        assert_eq!(
            refused(&cut),
            "truncated payload: burst run 1 len needs 4 bytes, 2 left"
        );
        // Cut inside its `first`.
        cut.truncate(cut.len() - 5);
        assert_eq!(
            refused(&cut),
            "truncated payload: burst run 1 first needs 8 bytes, 5 left"
        );
    }

    #[test]
    fn hostile_burst_count_cannot_balloon_allocation() {
        let mut payload = vec![TAG_BURST, 0];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = ServerFrame::decode_payload(&payload).unwrap_err();
        assert!(err.reason.contains("cap"), "{err}");
    }

    #[test]
    fn non_finite_clock_is_rejected() {
        let mut payload = vec![TAG_XMIT];
        payload.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        let err = ClientFrame::decode_payload(&payload).unwrap_err();
        assert!(err.reason.contains("non-finite"), "{err}");
    }

    #[test]
    fn decoder_compacts_its_buffer() {
        let mut dec = FrameDecoder::new();
        for _ in 0..1000 {
            dec.push(&encode(&ServerFrame::Welcome { granted_mss: 9 }));
            assert!(dec.next::<ServerFrame>().unwrap().is_some());
        }
        assert!(
            dec.buf.len() < 64,
            "buffer must not grow: {}",
            dec.buf.len()
        );
    }

    #[test]
    fn a_burst_of_adjacent_runs_drives_the_ladder_as_their_union_does() {
        use caai_core::prober::ProberConfig;
        use caai_core::sansio::{LadderCore, Step};
        let burst = |runs: &[(u64, u64)]| ServerFrame::Burst {
            done: false,
            runs: runs
                .iter()
                .map(|&(first, len)| Run {
                    first,
                    len,
                    duplicate: false,
                })
                .collect(),
        };
        // The ladder's answer to the burst, and to the round after it.
        let walk = |first_round: &ServerFrame| {
            let mut core = LadderCore::new(ProberConfig::default());
            assert_eq!(core.start(), Step::Connect);
            core.on_connected();
            core.on_frame(&ServerFrame::Welcome { granted_mss: 100 })
                .unwrap();
            let answer = core.on_frame(first_round).unwrap();
            (answer, core.on_frame(&burst(&[(10, 10)])).unwrap())
        };
        let mut decoder = FrameDecoder::new();
        decoder.push(&encode(&burst(&[(5, 2), (7, 3)])));
        let decoded: ServerFrame = decoder.next().unwrap().expect("one whole frame");
        assert_eq!(decoded, burst(&[(5, 5)]), "adjacent runs decode merged");
        assert_eq!(walk(&decoded), walk(&burst(&[(5, 5)])));
        // A hole between the runs is a different round.
        assert_ne!(walk(&burst(&[(5, 2), (8, 3)])), walk(&burst(&[(5, 5)])));
    }
}
