//! The probe wire protocol: virtual-time frames over TCP.
//!
//! CAAI's ladder is defined over *emulated* time — the prober schedules
//! ACKs so the server experiences the RTT the environment prescribes.
//! The loopback transport keeps that property by carrying the virtual
//! clock on the wire: every client frame states `now`, the server's TCP
//! simulation advances to exactly that instant, and the exchange is a
//! lockstep replay of `Prober::gather` regardless of real-socket pacing.
//! That is what makes live-socket verdicts agree with the simulator's
//! by construction, and what keeps a loopback census deterministic.
//!
//! Framing: a `u32` little-endian payload length, then the payload —
//! one tag byte and fixed little-endian fields (`f64` via its bit
//! pattern). The unit of the wire is a round, not a packet: a round's
//! ACK train is one [`AckRun`](ClientFrame::AckRun) and a round's data
//! is one [`Burst`](ServerFrame::Burst), which carries a `u32` count of
//! `(first: u64, len: u32)` runs of consecutive sequence numbers (the
//! ACK-range idea of QUIC's ACK frame, RFC 9000 §19.3). On a clean
//! wire both are one run, so a round trip is ~70 bytes whatever the
//! window. In memory a `Burst` keeps those runs as the ladder's own
//! [`Run`]s, which [`LadderCore`](crate::LadderCore) hands over as they
//! are: no round is ever expanded into its packets. Hostile bytes are
//! the normal case for a parser that listens on a socket, so decoding
//! is strict (length-capped, run-capped, finite-float-checked, no
//! trailing bytes) and every rejection names what was wrong, in the
//! skip-and-report diagnostic style of the pcap readers.

use caai_core::ladder::Run;
use std::fmt;
use std::ops::RangeInclusive;

/// Hard cap on one frame's payload, bytes. The largest legitimate frame
/// is a `Burst` of [`MAX_BURST_SEQS`] one-sequence runs (~768 KiB).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Hard cap on sequences in one `Burst` and on ACKs in one `AckRun` —
/// far above any real window (the ladder tops out at `w_max` 512),
/// small enough that a hostile length can never balloon an allocation
/// or spin a loop.
pub const MAX_BURST_SEQS: usize = 1 << 16;

/// A frame the prober (client) sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientFrame {
    /// Open the probe: propose an MSS, state the virtual clock.
    Hello {
        /// MSS proposed in the (emulated) SYN.
        proposed_mss: u32,
        /// Virtual time of connection establishment.
        now: f64,
    },
    /// Ask for one round's transmission burst.
    Xmit {
        /// Virtual time of the request.
        now: f64,
        /// End of the round (`now + rtt`): the server fires its own RTO
        /// first when the deadline falls inside the round and it has
        /// nothing to send (all ACKs of the previous round were lost).
        horizon: f64,
    },
    /// Deliver one cumulative ACK. `rtt == 0.0` marks the F-RTO
    /// counter-measure duplicate, exactly as in the simulator — the one
    /// ACK the ladder sends outside a run.
    Ack {
        /// Virtual time of delivery.
        now: f64,
        /// Cumulative acknowledgement, packets.
        cum_ack: u64,
        /// RTT sample carried by the ACK (`0.0` = duplicate).
        rtt: f64,
    },
    /// Deliver a round's ACK train: the cumulative ACKs `first`,
    /// `first + 1`, …, `first + count - 1`, in that order, each at `now`
    /// and each carrying `rtt` — to the server exactly `count` single
    /// [`Ack`](ClientFrame::Ack)s.
    AckRun {
        /// Virtual time of delivery, shared by the whole train.
        now: f64,
        /// The train's first cumulative acknowledgement, packets.
        first: u64,
        /// ACKs in the train: `1..=MAX_BURST_SEQS`.
        count: u32,
        /// RTT sample every ACK of the train carries.
        rtt: f64,
    },
    /// Withhold ACKs and wait out the server's retransmission timeout
    /// (§IV phase 2).
    RtoWait {
        /// Virtual time the wait starts.
        now: f64,
        /// Re-armed RTOs to wait out before giving up.
        max_waits: u32,
    },
}

/// A frame the emulated server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake reply: the granted MSS.
    Welcome {
        /// MSS the server granted (proposal rounded up to its minimum).
        granted_mss: u32,
    },
    /// One round's burst of data packets, as the runs of consecutive
    /// sequence numbers the wire carries.
    Burst {
        /// The server finished its data and is closing (the wire form
        /// of a server-initiated FIN).
        done: bool,
        /// Packet-unit sequence numbers transmitted this round, as
        /// `(first, len)` runs in the order sent. A decoded burst's runs
        /// are maximal: a run that continues the one before it is merged
        /// into it. `duplicate` is not on the wire and decodes `false`.
        runs: Vec<Run>,
    },
    /// Outcome of an `RtoWait`: did the server's stack respond to the
    /// timeout, and at what virtual time.
    RtoResult {
        /// Whether a retransmission fired.
        responded: bool,
        /// Virtual time after the wait.
        now: f64,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_XMIT: u8 = 0x02;
const TAG_ACK: u8 = 0x03;
const TAG_RTO_WAIT: u8 = 0x04;
const TAG_ACK_RUN: u8 = 0x05;
const TAG_WELCOME: u8 = 0x81;
const TAG_BURST: u8 = 0x82;
const TAG_RTO_RESULT: u8 = 0x83;

/// Why a frame could not be decoded. The connection is dead after one of
/// these — framing offers no resynchronization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong, named precisely.
    pub reason: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

fn bad(reason: impl Into<String>) -> DecodeError {
    DecodeError {
        reason: reason.into(),
    }
}

/// The values a run names, `first ..= first + count - 1`. Refused
/// while it is still two integers — before anyone loops over it or
/// allocates for it — when it is empty, longer than [`MAX_BURST_SEQS`],
/// or runs past `u64::MAX`. `what` names the run in the error.
pub fn run_range(
    what: impl fmt::Display,
    first: u64,
    count: u32,
) -> Result<RangeInclusive<u64>, DecodeError> {
    if count == 0 {
        return Err(bad(format!("empty {what}")));
    }
    if count as usize > MAX_BURST_SEQS {
        return Err(bad(format!(
            "{what} count {count} exceeds the cap of {MAX_BURST_SEQS}"
        )));
    }
    match first.checked_add(u64::from(count - 1)) {
        Some(last) => Ok(first..=last),
        None => Err(bad(format!(
            "{what} first {first} + count {count} overflows u64"
        ))),
    }
}

/// Anything that can be framed onto the probe wire.
pub trait Wire: Sized {
    /// Appends the frame's *payload* (tag + fields) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes one payload (as cut out by the length prefix).
    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError>;

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
    fn take(&mut self, n: usize, what: impl fmt::Display) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(bad(format!(
                "truncated payload: {what} needs {n} bytes, {} left",
                self.bytes.len() - self.at
            )));
        };
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: impl fmt::Display) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: impl fmt::Display) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: impl fmt::Display) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Virtual-time and RTT fields must be finite: a NaN/∞ clock from a
    /// hostile peer would poison every downstream comparison.
    fn f64(&mut self, what: &str) -> Result<f64, DecodeError> {
        let v = f64::from_bits(self.u64(what)?);
        if !v.is_finite() {
            return Err(bad(format!("non-finite {what}: {v}")));
        }
        Ok(v)
    }

    fn bool(&mut self, what: &str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("invalid {what} flag byte 0x{b:02x}"))),
        }
    }

    fn finish(self, tag: &str) -> Result<(), DecodeError> {
        if self.at != self.bytes.len() {
            return Err(bad(format!(
                "{} trailing bytes after {tag} frame",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
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
            ClientFrame::AckRun {
                now,
                first,
                count,
                rtt,
            } => {
                out.push(TAG_ACK_RUN);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&first.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&rtt.to_bits().to_le_bytes());
            }
            ClientFrame::RtoWait { now, max_waits } => {
                out.push(TAG_RTO_WAIT);
                out.extend_from_slice(&now.to_bits().to_le_bytes());
                out.extend_from_slice(&max_waits.to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
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
                rtt: {
                    // rtt 0.0 is the duplicate marker, so it is exempt
                    // from the finite check only in being legal, not in
                    // being non-finite.
                    r.f64("ack rtt")?
                },
            },
            TAG_ACK_RUN => {
                let now = r.f64("ack-run clock")?;
                let first = r.u64("ack-run first")?;
                let count = r.u32("ack-run count")?;
                run_range("AckRun", first, count)?;
                ClientFrame::AckRun {
                    now,
                    first,
                    count,
                    rtt: r.f64("ack-run rtt")?,
                }
            }
            TAG_RTO_WAIT => ClientFrame::RtoWait {
                now: r.f64("rto-wait clock")?,
                max_waits: r.u32("max_waits")?,
            },
            t => return Err(bad(format!("unknown client frame tag 0x{t:02x}"))),
        };
        r.finish(match frame {
            ClientFrame::Hello { .. } => "Hello",
            ClientFrame::Xmit { .. } => "Xmit",
            ClientFrame::Ack { .. } => "Ack",
            ClientFrame::AckRun { .. } => "AckRun",
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
                let count = u32::try_from(runs.len()).expect("more runs than a u32 counts");
                out.extend_from_slice(&count.to_le_bytes());
                for run in runs {
                    let len = u32::try_from(run.len).expect("a run longer than a u32 counts");
                    out.extend_from_slice(&run.first.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
            }
            ServerFrame::RtoResult { responded, now } => {
                out.push(TAG_RTO_RESULT);
                out.push(u8::from(*responded));
                out.extend_from_slice(&now.to_bits().to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("frame tag")?;
        let frame = match tag {
            TAG_WELCOME => ServerFrame::Welcome {
                granted_mss: r.u32("granted_mss")?,
            },
            TAG_BURST => {
                let done = r.bool("burst done")?;
                let runs = r.u32("burst run count")? as usize;
                // Every run holds a sequence, so the cap on sequences
                // caps the runs too.
                if runs > MAX_BURST_SEQS {
                    return Err(bad(format!(
                        "burst run count {runs} exceeds the cap of {MAX_BURST_SEQS}"
                    )));
                }
                let mut merged: Vec<Run> = Vec::new();
                let mut total = 0usize;
                for i in 0..runs {
                    let first = r.u64(format_args!("burst run {i} first"))?;
                    let len = r.u32(format_args!("burst run {i} len"))?;
                    run_range(format_args!("burst run {i}"), first, len)?;
                    total += len as usize;
                    if total > MAX_BURST_SEQS {
                        return Err(bad(format!(
                            "burst of {total} sequences at run {i} exceeds the cap of {MAX_BURST_SEQS}"
                        )));
                    }
                    // A run that continues the one before it joins it, so
                    // the runs in memory are maximal.
                    match merged.last_mut() {
                        Some(last) if last.first.checked_add(last.len) == Some(first) => {
                            last.len += u64::from(len);
                        }
                        _ => merged.push(Run {
                            first,
                            len: u64::from(len),
                            duplicate: false,
                        }),
                    }
                }
                ServerFrame::Burst { done, runs: merged }
            }
            TAG_RTO_RESULT => ServerFrame::RtoResult {
                responded: r.bool("rto responded")?,
                now: r.f64("rto clock")?,
            },
            t => return Err(bad(format!("unknown server frame tag 0x{t:02x}"))),
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
    pub fn next<F: Wire>(&mut self) -> Result<Option<F>, DecodeError> {
        let avail = &self.buf[self.read..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 {
            return Err(bad("zero-length frame"));
        }
        if len > MAX_FRAME_LEN {
            return Err(bad(format!(
                "frame length {len} exceeds the cap of {MAX_FRAME_LEN}"
            )));
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
        roundtrip_client(ClientFrame::AckRun {
            now: 3.0,
            first: 518,
            count: 512,
            rtt: 1.0,
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
    fn decode_bytewise<F: Wire>(bytes: &[u8]) -> Result<Vec<F>, DecodeError> {
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
            let sent = ServerFrame::Burst { done: done == 1, runs: cut };
            let got = decode_bytewise::<ServerFrame>(&encode(&sent));
            let want = ServerFrame::Burst { done: done == 1, runs: maximal };
            prop_assert!(got == Ok(vec![want.clone()]), "{got:?}");
            // Maximal runs encode and decode unchanged.
            let again = decode_bytewise::<ServerFrame>(&encode(&want));
            prop_assert!(again == Ok(vec![want]), "{again:?}");
        }

        #[test]
        fn any_ack_run_roundtrips(
            first in 0u64..u64::MAX,
            count in 1u32..(MAX_BURST_SEQS as u32 + 1),
            now in 0.0f64..1e6,
            rtt in 0.0f64..10.0,
        ) {
            let first = first.min(u64::MAX - u64::from(count - 1));
            let frame = ClientFrame::AckRun { now, first, count, rtt };
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
    }

    fn ack_run_payload(first: u64, count: u32) -> Vec<u8> {
        let mut payload = vec![TAG_ACK_RUN];
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&first.to_le_bytes());
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        payload
    }

    fn burst_payload(runs: &[(u64, u32)]) -> Vec<u8> {
        let mut payload = vec![TAG_BURST, 0];
        payload.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (first, len) in runs {
            payload.extend_from_slice(&first.to_le_bytes());
            payload.extend_from_slice(&len.to_le_bytes());
        }
        payload
    }

    #[test]
    fn hostile_ack_runs_are_refused_by_name() {
        let refused = |first, count| {
            ClientFrame::decode_payload(&ack_run_payload(first, count))
                .unwrap_err()
                .reason
        };
        assert!(ClientFrame::decode_payload(&ack_run_payload(7, MAX_BURST_SEQS as u32)).is_ok());
        assert_eq!(
            refused(7, MAX_BURST_SEQS as u32 + 1),
            "AckRun count 65537 exceeds the cap of 65536"
        );
        assert_eq!(
            refused(0, u32::MAX),
            "AckRun count 4294967295 exceeds the cap of 65536"
        );
        assert_eq!(
            refused(u64::MAX - 1, 3),
            "AckRun first 18446744073709551614 + count 3 overflows u64"
        );
        assert!(ClientFrame::decode_payload(&ack_run_payload(u64::MAX - 1, 2)).is_ok());
        assert_eq!(refused(7, 0), "empty AckRun");
    }

    #[test]
    fn hostile_burst_runs_are_refused_by_name() {
        let refused = |payload: &[u8]| ServerFrame::decode_payload(payload).unwrap_err().reason;
        assert_eq!(
            refused(&burst_payload(&[(0, 4), (9, 0)])),
            "empty burst run 1"
        );
        // Two runs, each under the cap, together past it: refused at
        // the second run's header, 30 bytes into a 30-byte payload.
        let half = MAX_BURST_SEQS as u32 / 2;
        assert_eq!(
            refused(&burst_payload(&[(0, half), (1 << 40, half + 1)])),
            "burst of 65537 sequences at run 1 exceeds the cap of 65536"
        );
        assert_eq!(
            refused(&burst_payload(&[(0, u32::MAX)])),
            "burst run 0 count 4294967295 exceeds the cap of 65536"
        );
        assert_eq!(
            refused(&burst_payload(&[(u64::MAX, 2)])),
            "burst run 0 first 18446744073709551615 + count 2 overflows u64"
        );
        // Cut inside the second run's `len`.
        let mut cut = burst_payload(&[(0, 4), (9, 2)]);
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
}
