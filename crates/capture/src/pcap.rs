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
//! The reader is **zero-copy** — [`PcapRecord::data`] borrows straight
//! from the input buffer — and **tolerant**: a framing error (truncated
//! record header, an `incl_len` that runs past the file or past any sane
//! snap length) ends iteration with a diagnostic instead of panicking,
//! because a corrupt length field destroys the framing of everything
//! after it. Per-packet *content* corruption is the next layer's problem
//! (see [`crate::packet`]), where single packets can be skipped.

use std::fmt;
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

/// Byte order of a capture's integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endianness {
    /// Integers are little-endian (the common case).
    Little,
    /// Integers are big-endian (capture written on a BE machine).
    Big,
}

/// A fatal framing problem: nothing after the reported offset can be
/// trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapError {
    /// Byte offset into the capture where framing broke.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pcap framing error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for PcapError {}

fn err(offset: usize, reason: impl Into<String>) -> PcapError {
    PcapError {
        offset,
        reason: reason.into(),
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
    endianness: Endianness,
    nanos: bool,
    linktype: u32,
    index: usize,
    fatal: bool,
}

impl<'a> PcapReader<'a> {
    /// Parses the global header. Fails when the buffer is shorter than a
    /// header or carries an unknown magic.
    pub fn new(buf: &'a [u8]) -> Result<Self, PcapError> {
        if buf.len() < 24 {
            return Err(err(
                0,
                format!("file too short for a pcap header ({} bytes)", buf.len()),
            ));
        }
        let magic_le = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        let magic_be = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes"));
        let (endianness, nanos) = match (magic_le, magic_be) {
            (MAGIC_MICROS, _) => (Endianness::Little, false),
            (MAGIC_NANOS, _) => (Endianness::Little, true),
            (_, MAGIC_MICROS) => (Endianness::Big, false),
            (_, MAGIC_NANOS) => (Endianness::Big, true),
            _ => return Err(err(0, format!("unknown pcap magic {magic_le:#010X}"))),
        };
        let rd = |range: std::ops::Range<usize>| -> u32 {
            let bytes: [u8; 4] = buf[range].try_into().expect("4 bytes");
            match endianness {
                Endianness::Little => u32::from_le_bytes(bytes),
                Endianness::Big => u32::from_be_bytes(bytes),
            }
        };
        let linktype = rd(20..24);
        Ok(PcapReader {
            buf,
            offset: 24,
            endianness,
            nanos,
            linktype,
            index: 0,
            fatal: false,
        })
    }

    /// The capture's byte order.
    pub fn endianness(&self) -> Endianness {
        self.endianness
    }

    /// The link type declared in the global header.
    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    fn read_u32(&self, at: usize) -> u32 {
        let bytes: [u8; 4] = self.buf[at..at + 4].try_into().expect("4 bytes");
        match self.endianness {
            Endianness::Little => u32::from_le_bytes(bytes),
            Endianness::Big => u32::from_be_bytes(bytes),
        }
    }

    /// Reads the next record. `None` at a clean end of file; a framing
    /// error is returned once and ends iteration.
    #[allow(clippy::should_implement_trait)] // iterator-style, but fallible
    pub fn next(&mut self) -> Option<Result<PcapRecord<'a>, PcapError>> {
        if self.fatal || self.offset >= self.buf.len() {
            return None;
        }
        let at = self.offset;
        if self.buf.len() - at < 16 {
            self.fatal = true;
            return Some(Err(err(
                at,
                format!(
                    "truncated record header ({} trailing bytes)",
                    self.buf.len() - at
                ),
            )));
        }
        let ts_sec = self.read_u32(at);
        let ts_frac = self.read_u32(at + 4);
        let incl_len = self.read_u32(at + 8);
        if incl_len > MAX_INCL_LEN {
            self.fatal = true;
            return Some(Err(err(
                at + 8,
                format!("corrupt incl_len {incl_len} (max {MAX_INCL_LEN})"),
            )));
        }
        let orig_len = self.read_u32(at + 12);
        let data_start = at + 16;
        let data_end = data_start + incl_len as usize;
        if data_end > self.buf.len() {
            self.fatal = true;
            return Some(Err(err(
                at + 8,
                format!(
                    "record of {incl_len} bytes runs past the end of the file \
                     ({} bytes remain)",
                    self.buf.len() - data_start
                ),
            )));
        }
        let divisor = if self.nanos { 1e9 } else { 1e6 };
        let ts = f64::from(ts_sec) + f64::from(ts_frac) / divisor;
        let record = PcapRecord {
            index: self.index,
            ts,
            data: &self.buf[data_start..data_end],
            orig_len,
        };
        self.offset = data_end;
        self.index += 1;
        Some(Ok(record))
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
    let mut out = Vec::with_capacity(src.len());
    if src.len() < 24 {
        out.extend_from_slice(src);
        return out;
    }
    let swap = |out: &mut Vec<u8>, bytes: &[u8]| out.extend(bytes.iter().rev());
    swap(&mut out, &src[0..4]); // magic
    swap(&mut out, &src[4..6]); // version major
    swap(&mut out, &src[6..8]); // version minor
    for word in 2..6 {
        swap(&mut out, &src[word * 4..word * 4 + 4]);
    }
    // incl_len must be read in the capture's own byte order.
    let native_le = u32::from_le_bytes(src[0..4].try_into().expect("4 bytes")) == MAGIC_MICROS
        || u32::from_le_bytes(src[0..4].try_into().expect("4 bytes")) == MAGIC_NANOS;
    let mut at = 24;
    while at + 16 <= src.len() {
        let len_bytes: [u8; 4] = src[at + 8..at + 12].try_into().expect("4 bytes");
        let incl = if native_le {
            u32::from_le_bytes(len_bytes)
        } else {
            u32::from_be_bytes(len_bytes)
        } as usize;
        if at + 16 + incl > src.len() {
            break;
        }
        for word in 0..4 {
            swap(&mut out, &src[at + word * 4..at + word * 4 + 4]);
        }
        out.extend_from_slice(&src[at + 16..at + 16 + incl]);
        at += 16 + incl;
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
        assert_eq!(rb.endianness(), Endianness::Big);
        assert_eq!(rb.linktype(), LINKTYPE_ETHERNET);
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
