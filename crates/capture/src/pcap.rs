//! The classic libpcap capture container.
//!
//! Supports the classic (pre-pcapng) file format in all four framings
//! found in the wild: microsecond and nanosecond timestamp magic, each in
//! either byte order (a capture written on a big-endian machine keeps its
//! native order; readers must byte-swap). Writing always produces the
//! canonical little-endian microsecond framing.
//!
//! ```text
//! global header (24 bytes)
//!   magic     u32   0xA1B2C3D4 (µs) / 0xA1B23C4D (ns), either endianness
//!   version   u16.u16   2.4
//!   thiszone  i32   0
//!   sigfigs   u32   0
//!   snaplen   u32   max captured length
//!   network   u32   link type (1 = Ethernet)
//! per-packet record header (16 bytes)
//!   ts_sec    u32   seconds
//!   ts_frac   u32   microseconds (or nanoseconds under the ns magic)
//!   incl_len  u32   bytes captured and stored in the file
//!   orig_len  u32   bytes on the wire
//! ```
//!
//! Both classic readers — the zero-copy [`PcapReader`] over a whole
//! buffer here and `caai_stream`'s incremental `PcapStream` — parse the
//! framing with the same two helpers: [`ClassicHeader::parse`] for the
//! global header and [`ClassicHeader::record`] (with
//! [`RecordHeader::frame`]) for each record, so they agree on every
//! frame, every error and every offset.
//!
//! The reader is **zero-copy** — [`PcapRecord::data`] borrows straight
//! from the input buffer — and **tolerant**: a framing error (truncated
//! record header, an `incl_len` that runs past the file or past any sane
//! snap length) ends iteration with a [`CaptureError`] instead of
//! panicking, because a corrupt length field destroys the framing of
//! everything after it. Per-packet *content* corruption is the next
//! layer's problem (see [`crate::packet`]), where single packets can be
//! skipped.

use crate::source::CaptureError;
use std::io::{self, Write};

/// Classic pcap magic, microsecond timestamps.
pub const MAGIC_MICROS: u32 = 0xA1B2_C3D4;
/// Classic pcap magic, nanosecond timestamps.
pub const MAGIC_NANOS: u32 = 0xA1B2_3C4D;
/// Link type written (and required) by this crate: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Ceiling on `incl_len` accepted by the reader. Anything larger is a
/// corrupt length field, not a packet (standard snap lengths top out at
/// 256 KiB for jumbo captures).
pub const MAX_INCL_LEN: u32 = 256 * 1024;
/// Bytes in the global header.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Bytes in a record header.
pub const RECORD_HEADER_LEN: usize = 16;

/// Byte order of a capture's integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Endianness {
    /// Integers are little-endian (the common case).
    #[default]
    Little,
    /// Integers are big-endian (capture written on a BE machine).
    Big,
}

impl Endianness {
    /// The `u32` at `bytes[at..at + 4]` in this byte order.
    #[inline]
    pub fn u32_at(self, bytes: &[u8], at: usize) -> u32 {
        let bytes: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
        match self {
            Endianness::Little => u32::from_le_bytes(bytes),
            Endianness::Big => u32::from_be_bytes(bytes),
        }
    }

    /// The `u16` at `bytes[at..at + 2]` in this byte order.
    #[inline]
    pub fn u16_at(self, bytes: &[u8], at: usize) -> u16 {
        let bytes: [u8; 2] = bytes[at..at + 2].try_into().expect("2 bytes");
        match self {
            Endianness::Little => u16::from_le_bytes(bytes),
            Endianness::Big => u16::from_be_bytes(bytes),
        }
    }
}

/// What a classic capture's global header says about every record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassicHeader {
    /// The byte order of every integer in the capture.
    pub endianness: Endianness,
    /// Whether timestamps count nanoseconds (else microseconds).
    pub nanos: bool,
    /// The link type of every record.
    pub linktype: u32,
}

/// One record header, read and checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordHeader {
    /// Timestamp in seconds (fractional part from the µs/ns field).
    pub ts: f64,
    /// Bytes of frame stored after the header (at most [`MAX_INCL_LEN`]).
    pub incl_len: u32,
    /// Original on-the-wire length.
    pub orig_len: u32,
}

impl ClassicHeader {
    /// Reads the global header at the front of `buf`: magic, byte order,
    /// timestamp resolution and link type. Fails when `buf` is shorter
    /// than a header or carries an unknown magic.
    pub fn parse(buf: &[u8]) -> Result<ClassicHeader, CaptureError> {
        if buf.len() < GLOBAL_HEADER_LEN {
            return Err(CaptureError::new(
                0,
                format!("file too short for a pcap header ({} bytes)", buf.len()),
            ));
        }
        let magic = |order: Endianness| order.u32_at(buf, 0);
        let (endianness, nanos) = match (magic(Endianness::Little), magic(Endianness::Big)) {
            (MAGIC_MICROS, _) => (Endianness::Little, false),
            (MAGIC_NANOS, _) => (Endianness::Little, true),
            (_, MAGIC_MICROS) => (Endianness::Big, false),
            (_, MAGIC_NANOS) => (Endianness::Big, true),
            (other, _) => {
                return Err(CaptureError::new(
                    0,
                    format!("unknown pcap magic {other:#010X}"),
                ))
            }
        };
        Ok(ClassicHeader {
            endianness,
            nanos,
            linktype: endianness.u32_at(buf, 20),
        })
    }

    /// Fails unless the records are Ethernet frames, the one link type
    /// [`crate::packet::decode`] reads: decoding e.g. Linux SLL (113) or
    /// raw IP (101) as Ethernet would mis-frame every packet.
    #[inline]
    pub fn require_ethernet(&self) -> Result<(), CaptureError> {
        if self.linktype == LINKTYPE_ETHERNET {
            return Ok(());
        }
        Err(CaptureError::new(
            20,
            format!(
                "unsupported link type {} (only Ethernet, 1, is supported)",
                self.linktype
            ),
        ))
    }

    /// Reads the record header at the front of `rest`, the non-empty
    /// remainder of the capture from its byte `at` on.
    #[inline]
    pub fn record(&self, rest: &[u8], at: u64) -> Result<RecordHeader, CaptureError> {
        if rest.len() < RECORD_HEADER_LEN {
            return Err(CaptureError::new(
                at,
                format!("truncated record header ({} trailing bytes)", rest.len()),
            ));
        }
        let order = self.endianness;
        let incl_len = order.u32_at(rest, 8);
        if incl_len > MAX_INCL_LEN {
            return Err(CaptureError::new(
                at + 8,
                format!("corrupt incl_len {incl_len} (max {MAX_INCL_LEN})"),
            ));
        }
        let divisor = if self.nanos { 1e9 } else { 1e6 };
        Ok(RecordHeader {
            ts: f64::from(order.u32_at(rest, 0)) + f64::from(order.u32_at(rest, 4)) / divisor,
            incl_len,
            orig_len: order.u32_at(rest, 12),
        })
    }
}

impl RecordHeader {
    /// Bytes of the whole record, header included.
    pub fn record_len(&self) -> usize {
        RECORD_HEADER_LEN + self.incl_len as usize
    }

    /// The frame of this record, given `rest` as in
    /// [`ClassicHeader::record`]; fails when the capture ends first.
    #[inline]
    pub fn frame<'a>(&self, rest: &'a [u8], at: u64) -> Result<&'a [u8], CaptureError> {
        rest.get(RECORD_HEADER_LEN..self.record_len())
            .ok_or_else(|| {
                CaptureError::new(
                    at + 8,
                    format!(
                        "record of {} bytes runs past the end of the file ({} bytes remain)",
                        self.incl_len,
                        rest.len() - RECORD_HEADER_LEN
                    ),
                )
            })
    }
}

/// One captured packet, borrowing its bytes from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcapRecord<'a> {
    /// 0-based index of the record within the capture.
    pub index: usize,
    /// Timestamp in seconds (fractional part from the µs/ns field).
    pub ts: f64,
    /// The captured link-layer frame.
    pub data: &'a [u8],
    /// Original on-the-wire length (≥ `data.len()` when truncated by the
    /// capturing snap length).
    pub orig_len: u32,
}

/// Zero-copy reader over a classic pcap buffer.
#[derive(Debug, Clone)]
pub struct PcapReader<'a> {
    buf: &'a [u8],
    offset: usize,
    header: ClassicHeader,
    index: usize,
    fatal: bool,
}

impl<'a> PcapReader<'a> {
    /// Parses the global header. Fails when the buffer is shorter than a
    /// header or carries an unknown magic.
    pub fn new(buf: &'a [u8]) -> Result<Self, CaptureError> {
        Ok(PcapReader {
            buf,
            offset: GLOBAL_HEADER_LEN,
            header: ClassicHeader::parse(buf)?,
            index: 0,
            fatal: false,
        })
    }

    /// What the global header says: byte order, timestamp resolution
    /// and link type.
    pub fn header(&self) -> ClassicHeader {
        self.header
    }

    /// Reads the next record. `None` at a clean end of file; a framing
    /// error is returned once and ends iteration.
    #[allow(clippy::should_implement_trait)] // iterator-style, but fallible
    #[inline]
    pub fn next(&mut self) -> Option<Result<PcapRecord<'a>, CaptureError>> {
        if self.fatal || self.offset >= self.buf.len() {
            return None;
        }
        let record = self.read_record();
        self.fatal = record.is_err();
        Some(record)
    }

    fn read_record(&mut self) -> Result<PcapRecord<'a>, CaptureError> {
        let (rest, at) = (&self.buf[self.offset..], self.offset as u64);
        let header = self.header.record(rest, at)?;
        let record = PcapRecord {
            index: self.index,
            ts: header.ts,
            data: header.frame(rest, at)?,
            orig_len: header.orig_len,
        };
        self.offset += header.record_len();
        self.index += 1;
        Ok(record)
    }
}

/// Writes the canonical little-endian microsecond framing.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    w: W,
    /// `(sec, µs)` of the last record, for monotonicity enforcement.
    last: Option<(u64, u32)>,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header (Ethernet link type) and returns the
    /// writer.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(&MAGIC_MICROS.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // version major
        w.write_all(&4u16.to_le_bytes())?; // version minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&MAX_INCL_LEN.to_le_bytes())?; // snaplen
        w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { w, last: None })
    }

    /// Appends one frame at timestamp `ts` (seconds). Timestamps are
    /// nudged forward by one microsecond when needed so the file stays
    /// strictly chronological — simulation events routinely share an
    /// instant, and downstream round grouping relies on file order
    /// agreeing with time order. The nudge operates on the quantized
    /// `(sec, µs)` pair, not the float, so it survives rounding.
    pub fn write_frame(&mut self, ts: f64, frame: &[u8]) -> io::Result<()> {
        let whole = ts.floor();
        let mut sec = whole.max(0.0) as u64;
        let mut micros = ((ts - whole) * 1e6).round() as u32;
        // 1e6 µs would denormalize the record; carry into the seconds.
        if micros >= 1_000_000 {
            sec += 1;
            micros = 0;
        }
        if let Some(last) = self.last {
            if (sec, micros) <= last {
                (sec, micros) = last;
                micros += 1;
                if micros >= 1_000_000 {
                    sec += 1;
                    micros = 0;
                }
            }
        }
        self.last = Some((sec, micros));
        self.w.write_all(&(sec as u32).to_le_bytes())?;
        self.w.write_all(&micros.to_le_bytes())?;
        let len = u32::try_from(frame.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too long"))?;
        self.w.write_all(&len.to_le_bytes())?; // incl_len
        self.w.write_all(&len.to_le_bytes())?; // orig_len
        self.w.write_all(frame)
    }

    /// Flushes and returns the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Byte-swaps a little-endian capture into its big-endian twin (and vice
/// versa), record by record, stopping at the first ill-framed record.
///
/// Real big-endian captures come from BE capture hosts; this synthesizes
/// one from the canonical LE output so endianness handling can be tested
/// (and exotic captures reproduced) without such a machine.
pub fn byteswap_capture(src: &[u8]) -> Vec<u8> {
    let Ok(header) = ClassicHeader::parse(src) else {
        return src.to_vec();
    };
    let mut out = Vec::with_capacity(src.len());
    let swap = |out: &mut Vec<u8>, bytes: &[u8]| out.extend(bytes.iter().rev());
    // Magic, version major and minor, then four 32-bit words.
    let mut at = 0;
    for width in [4, 2, 2, 4, 4, 4, 4] {
        swap(&mut out, &src[at..at + width]);
        at += width;
    }
    while let Ok(frame) = header
        .record(&src[at..], at as u64)
        .and_then(|record| record.frame(&src[at..], at as u64))
    {
        for word in 0..4 {
            swap(&mut out, &src[at + word * 4..at + word * 4 + 4]);
        }
        out.extend_from_slice(frame);
        at += RECORD_HEADER_LEN + frame.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one(ts: f64, payload: &[u8]) -> (f64, Vec<u8>) {
        let mut out = Vec::new();
        {
            let mut w = PcapWriter::new(&mut out).unwrap();
            w.write_frame(ts, payload).unwrap();
            w.finish().unwrap();
        }
        let mut r = PcapReader::new(&out).unwrap();
        let rec = r.next().unwrap().unwrap();
        assert!(r.next().is_none());
        (rec.ts, rec.data.to_vec())
    }

    #[test]
    fn write_read_roundtrip() {
        let (ts, data) = roundtrip_one(1_300_000_000.25, b"hello frame");
        assert!((ts - 1_300_000_000.25).abs() < 2e-6, "ts {ts}");
        assert_eq!(data, b"hello frame");
    }

    #[test]
    fn timestamps_are_forced_strictly_monotonic() {
        let mut out = Vec::new();
        let mut w = PcapWriter::new(&mut out).unwrap();
        w.write_frame(10.0, b"a").unwrap();
        w.write_frame(10.0, b"b").unwrap();
        w.write_frame(9.0, b"c").unwrap();
        w.finish().unwrap();
        let mut r = PcapReader::new(&out).unwrap();
        let mut last = f64::NEG_INFINITY;
        while let Some(rec) = r.next() {
            let rec = rec.unwrap();
            assert!(rec.ts > last, "monotonic: {} after {last}", rec.ts);
            last = rec.ts;
        }
    }

    #[test]
    fn big_endian_captures_parse_identically() {
        let mut le = Vec::new();
        let mut w = PcapWriter::new(&mut le).unwrap();
        w.write_frame(123.000004, b"payload one").unwrap();
        w.write_frame(124.5, b"two").unwrap();
        w.finish().unwrap();
        let be = byteswap_capture(&le);
        assert_eq!(byteswap_capture(&be), le, "byteswap is an involution");
        let mut rl = PcapReader::new(&le).unwrap();
        let mut rb = PcapReader::new(&be).unwrap();
        assert_eq!(rb.header().endianness, Endianness::Big);
        assert_eq!(rb.header().linktype, LINKTYPE_ETHERNET);
        loop {
            match (rl.next(), rb.next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    let (a, b) = (a.unwrap(), b.unwrap());
                    assert_eq!(a.ts, b.ts);
                    assert_eq!(a.data, b.data);
                }
                other => panic!("reader divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_header_is_an_error_not_a_panic() {
        assert!(PcapReader::new(&[0xD4, 0xC3]).is_err());
        let e = PcapReader::new(&[0u8; 24]).unwrap_err();
        assert!(e.reason.contains("magic"), "{e}");
    }

    #[test]
    fn corrupt_incl_len_stops_with_a_diagnostic() {
        let mut out = Vec::new();
        let mut w = PcapWriter::new(&mut out).unwrap();
        w.write_frame(1.0, b"ok").unwrap();
        w.finish().unwrap();
        // Smash the record length to an absurd value.
        let at = 24 + 8;
        out[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = PcapReader::new(&out).unwrap();
        let e = r.next().unwrap().unwrap_err();
        assert!(e.reason.contains("incl_len"), "{e}");
        assert!(r.next().is_none(), "iteration ends after a framing error");
    }

    #[test]
    fn record_running_past_eof_is_reported() {
        let mut out = Vec::new();
        let mut w = PcapWriter::new(&mut out).unwrap();
        w.write_frame(1.0, &[7u8; 64]).unwrap();
        w.finish().unwrap();
        out.truncate(out.len() - 10);
        let mut r = PcapReader::new(&out).unwrap();
        let e = r.next().unwrap().unwrap_err();
        assert!(e.reason.contains("runs past"), "{e}");
    }
}
