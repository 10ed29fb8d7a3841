//! Capture sources: incremental framing over anything that reads bytes.
//!
//! The offline reader ([`caai_capture::pcap`]) wants the whole capture in
//! one buffer; a live tap never finishes. This module reads *incrementally*
//! from any [`Read`] — a finished file, a file another process is still
//! appending to, a FIFO, or stdin — and yields one frame at a time behind
//! the [`CaptureSource`] trait. Two container formats are auto-detected
//! from the first bytes:
//!
//! * **classic pcap** — the same four framings the offline reader accepts
//!   (µs/ns magic, either byte order);
//! * **pcapng** — SHB/IDB/EPB block streams, both byte orders, with
//!   per-interface timestamp resolution (see [`crate::pcapng`]).
//!
//! The error model mirrors the offline layer: per-packet problems are
//! *skipped and reported* ([`SourceItem::Skipped`]); broken container
//! framing is fatal ([`SourceError`]) because nothing after it can be
//! trusted.
//!
//! Follow semantics live in [`StallPolicy`]: on a pipe, FIFO or stdin a
//! zero-byte read means the writer closed (definitive end of capture); on
//! a regular file being `--follow`ed it means "no new data yet", so the
//! feed polls until new bytes appear or an idle timeout expires.

use caai_capture::pcap::{LINKTYPE_ETHERNET, MAGIC_MICROS, MAGIC_NANOS, MAX_INCL_LEN};
use std::fmt;
use std::io::Read;
use std::time::{Duration, Instant};

use crate::pcapng;

/// One captured frame. `D` is how the frame's bytes are held: owned
/// (`Box<[u8]>`, the default) or lent from the source's buffer (`&[u8]`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFrame<D = Box<[u8]>> {
    /// 0-based packet index within the capture (counts packet records of
    /// every format, including ones later skipped at decode).
    pub index: u64,
    /// Capture timestamp, seconds.
    pub ts: f64,
    /// The link-layer frame bytes.
    pub data: D,
}

/// One item produced by a [`CaptureSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceItem<D = Box<[u8]>> {
    /// A captured frame.
    Frame(StreamFrame<D>),
    /// A record the source consumed but could not turn into a frame
    /// (unknown pcapng block, packet on a non-Ethernet interface, ...).
    Skipped {
        /// Packet index the skip is attributed to.
        index: u64,
        /// Why it was skipped.
        reason: String,
    },
}

impl<D> SourceItem<D> {
    /// The same item with its frame bytes held another way.
    pub fn map_data<E>(self, f: impl FnOnce(D) -> E) -> SourceItem<E> {
        match self {
            SourceItem::Frame(StreamFrame { index, ts, data }) => SourceItem::Frame(StreamFrame {
                index,
                ts,
                data: f(data),
            }),
            SourceItem::Skipped { index, reason } => SourceItem::Skipped { index, reason },
        }
    }
}

/// A fatal source problem: container framing (or the underlying I/O)
/// broke, and nothing after `offset` can be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// Byte offset into the capture stream where framing broke.
    pub offset: u64,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capture stream error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for SourceError {}

/// An incremental reader over one capture stream.
///
/// Both methods return `Ok(None)` at a clean end of capture; an `Err` is
/// terminal (framing is broken from there on). Sources block while more
/// bytes may still arrive, according to their [`StallPolicy`].
pub trait CaptureSource {
    /// The next frame or skip report, the frame's bytes lent from the
    /// source's own buffer — valid until the next call, never copied.
    fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, SourceError>;

    /// The next frame or skip report, owning its bytes.
    fn next(&mut self) -> Result<Option<SourceItem>, SourceError> {
        Ok(self.next_lent()?.map(|item| item.map_data(Box::from)))
    }
}

/// What a zero-byte read from the underlying stream means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// The stream is over (regular file read to its end, pipe whose
    /// writer closed, stdin at EOF).
    Eof,
    /// The file may still grow: sleep `poll` and retry, giving up after
    /// `idle` without a single new byte (`None` = wait forever).
    Follow {
        /// Sleep between polls of a quiet file.
        poll: Duration,
        /// Give up after this long without new bytes.
        idle: Option<Duration>,
    },
}

/// How [`open_path`] should treat a regular file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowConfig {
    /// Keep reading as the file grows instead of stopping at its current
    /// end. Pipes, FIFOs and stdin always stream until the writer closes,
    /// with or without this.
    pub follow: bool,
    /// Sleep between polls of a quiet followed file.
    pub poll_interval: Duration,
    /// Stop following after this long without new bytes (`None` = wait
    /// forever).
    pub idle_timeout: Option<Duration>,
}

impl Default for FollowConfig {
    fn default() -> Self {
        FollowConfig {
            follow: false,
            poll_interval: Duration::from_millis(50),
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Buffered byte feed over a [`Read`] with stall handling.
///
/// Framers ask for `want(n)` bytes before parsing; the feed refills from
/// the reader (possibly blocking or polling, per the [`StallPolicy`])
/// until it has them or the stream ends.
///
/// One buffer, initialised once: `buf[start..end]` is the unconsumed
/// data, the reader fills `buf[end..]` in place, and a refill first moves
/// the unconsumed bytes to the front. It grows only for a record longer
/// than itself, to that record plus [`READ_CHUNK`] — so memory is bounded
/// by the largest record the framers accept, however long the capture.
pub(crate) struct ByteFeed<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Global stream offset of `buf[start]`.
    consumed: u64,
    stall: StallPolicy,
    ended: bool,
}

/// Read space the feed keeps beyond an oversized record.
const READ_CHUNK: usize = 64 * 1024;

/// The feed's size until a longer record arrives.
const INITIAL_BUF: usize = 2 * READ_CHUNK;

impl<R: Read> ByteFeed<R> {
    fn new(inner: R, stall: StallPolicy) -> Self {
        ByteFeed {
            inner,
            buf: vec![0; INITIAL_BUF],
            start: 0,
            end: 0,
            consumed: 0,
            stall,
            ended: false,
        }
    }

    pub(crate) fn available(&self) -> usize {
        self.end - self.start
    }

    /// The unconsumed bytes buffered so far.
    pub(crate) fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Global stream offset of the next unconsumed byte.
    pub(crate) fn offset(&self) -> u64 {
        self.consumed
    }

    /// Consumes the next `n` buffered bytes and lends them: they stay in
    /// place until the next [`want`](ByteFeed::want) refills.
    pub(crate) fn consume(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.available(), "consume past the buffered bytes");
        let taken = &self.buf[self.start..self.start + n];
        self.start += n;
        self.consumed += n as u64;
        taken
    }

    /// Blocks (or polls) until at least `n` bytes are buffered. `Ok(false)`
    /// means the stream ended first; whatever arrived stays buffered.
    #[inline]
    pub(crate) fn want(&mut self, n: usize) -> Result<bool, SourceError> {
        if self.available() >= n {
            return Ok(true);
        }
        self.refill(n)
    }

    fn refill(&mut self, n: usize) -> Result<bool, SourceError> {
        if self.ended {
            return Ok(false);
        }
        if n > self.buf.len() {
            // `vec!` allocates exactly; `resize` would round up to double.
            let mut grown = vec![0; n + READ_CHUNK];
            grown[..self.available()].copy_from_slice(self.data());
            self.buf = grown;
        } else {
            self.buf.copy_within(self.start..self.end, 0);
        }
        self.end -= self.start;
        self.start = 0;
        let mut idle_since: Option<Instant> = None;
        while self.end < n {
            let got = self
                .inner
                .read(&mut self.buf[self.end..])
                .map_err(|e| SourceError {
                    offset: self.consumed + self.end as u64,
                    reason: format!("read failed: {e}"),
                })?;
            if got > 0 {
                self.end += got;
                idle_since = None;
                continue;
            }
            match self.stall {
                StallPolicy::Eof => {
                    self.ended = true;
                    return Ok(false);
                }
                StallPolicy::Follow { poll, idle } => {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if idle.is_some_and(|limit| since.elapsed() >= limit) {
                        self.ended = true;
                        return Ok(false);
                    }
                    std::thread::sleep(poll);
                }
            }
        }
        Ok(true)
    }
}

/// Classic-pcap per-stream state once the global header parsed.
#[derive(Debug, Clone, Copy)]
struct ClassicState {
    big: bool,
    nanos: bool,
}

enum Mode {
    /// Nothing read yet; the container format is still unknown.
    Detect,
    Classic(ClassicState),
    Pcapng(pcapng::Section),
    /// Terminal (after a fatal error).
    Done,
}

/// Auto-detecting incremental reader: classic pcap or pcapng over any
/// [`Read`], per the module's follow semantics.
pub struct PcapStream<R> {
    feed: ByteFeed<R>,
    mode: Mode,
    index: u64,
}

fn rd_u32(bytes: &[u8], at: usize, big: bool) -> u32 {
    let b: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
    if big {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

impl<R: Read> PcapStream<R> {
    /// Wraps a reader. Format detection happens on the first
    /// [`next`](CaptureSource::next) or
    /// [`next_lent`](CaptureSource::next_lent) call.
    pub fn new(inner: R, stall: StallPolicy) -> Self {
        PcapStream {
            feed: ByteFeed::new(inner, stall),
            mode: Mode::Detect,
            index: 0,
        }
    }

    fn fail(&mut self, offset: u64, reason: impl Into<String>) -> SourceError {
        self.mode = Mode::Done;
        SourceError {
            offset,
            reason: reason.into(),
        }
    }

    fn detect(&mut self) -> Result<(), SourceError> {
        if !self.feed.want(4)? {
            let n = self.feed.available();
            return Err(self.fail(0, format!("capture too short for any header ({n} bytes)")));
        }
        if self.feed.data()[..4] == pcapng::SHB_MAGIC {
            self.mode = Mode::Pcapng(pcapng::Section::new());
            return Ok(());
        }
        if !self.feed.want(24)? {
            let n = self.feed.available();
            return Err(self.fail(0, format!("file too short for a pcap header ({n} bytes)")));
        }
        let head = self.feed.data();
        let magic_le = rd_u32(head, 0, false);
        let magic_be = rd_u32(head, 0, true);
        let (big, nanos) = match (magic_le, magic_be) {
            (MAGIC_MICROS, _) => (false, false),
            (MAGIC_NANOS, _) => (false, true),
            (_, MAGIC_MICROS) => (true, false),
            (_, MAGIC_NANOS) => (true, true),
            _ => return Err(self.fail(0, format!("unknown capture magic {magic_le:#010X}"))),
        };
        let linktype = rd_u32(head, 20, big);
        if linktype != LINKTYPE_ETHERNET {
            return Err(self.fail(
                20,
                format!("unsupported link type {linktype} (only Ethernet, 1, is supported)"),
            ));
        }
        self.feed.consume(24);
        self.mode = Mode::Classic(ClassicState { big, nanos });
        Ok(())
    }

    fn next_classic(&mut self, st: ClassicState) -> Result<Option<SourceItem<&[u8]>>, SourceError> {
        if !self.feed.want(16)? {
            let n = self.feed.available();
            if n == 0 {
                return Ok(None);
            }
            let at = self.feed.offset();
            return Err(self.fail(at, format!("truncated record header ({n} trailing bytes)")));
        }
        let at = self.feed.offset();
        let head = self.feed.data();
        let ts_sec = rd_u32(head, 0, st.big);
        let ts_frac = rd_u32(head, 4, st.big);
        let incl_len = rd_u32(head, 8, st.big);
        if incl_len > MAX_INCL_LEN {
            return Err(self.fail(
                at + 8,
                format!("corrupt incl_len {incl_len} (max {MAX_INCL_LEN})"),
            ));
        }
        let need = 16 + incl_len as usize;
        if !self.feed.want(need)? {
            let n = self.feed.available().saturating_sub(16);
            return Err(self.fail(
                at + 8,
                format!("record of {incl_len} bytes runs past the end of the capture ({n} bytes arrived)"),
            ));
        }
        let divisor = if st.nanos { 1e9 } else { 1e6 };
        let ts = f64::from(ts_sec) + f64::from(ts_frac) / divisor;
        let index = self.index;
        self.index += 1;
        let data = &self.feed.consume(need)[16..];
        Ok(Some(SourceItem::Frame(StreamFrame { index, ts, data })))
    }
}

impl<R: Read> CaptureSource for PcapStream<R> {
    fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, SourceError> {
        if let Mode::Detect = self.mode {
            self.detect()?;
        }
        match self.mode {
            Mode::Detect => unreachable!("detect() sets a mode or fails"),
            Mode::Done => Ok(None),
            Mode::Classic(st) => self.next_classic(st),
            Mode::Pcapng(ref mut sec) => {
                let out = pcapng::next_item(&mut self.feed, sec, &mut self.index);
                if out.is_err() {
                    self.mode = Mode::Done;
                }
                out
            }
        }
    }
}

/// A capture stream opened from a CLI path argument.
pub type OpenedSource = PcapStream<Box<dyn Read + Send>>;

/// Opens `path` as a capture source. `-` reads stdin. FIFOs and pipes
/// stream until their writer closes; a regular file stops at its current
/// end unless `follow.follow` is set, in which case it polls for growth
/// until `follow.idle_timeout` passes without new bytes.
pub fn open_path(path: &str, follow: &FollowConfig) -> std::io::Result<OpenedSource> {
    if path == "-" {
        let reader: Box<dyn Read + Send> = Box::new(std::io::stdin());
        return Ok(PcapStream::new(reader, StallPolicy::Eof));
    }
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    let is_pipe = {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileTypeExt;
            meta.file_type().is_fifo()
        }
        #[cfg(not(unix))]
        {
            false
        }
    };
    let stall = if is_pipe || !follow.follow {
        // A FIFO's reads block in the kernel until data arrives and
        // return 0 only once every writer closed — exactly Eof semantics.
        StallPolicy::Eof
    } else {
        StallPolicy::Follow {
            poll: follow.poll_interval,
            idle: follow.idle_timeout,
        }
    };
    let reader: Box<dyn Read + Send> = Box::new(file);
    Ok(PcapStream::new(reader, stall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_capture::pcap::{byteswap_capture, PcapWriter};
    use std::io::Cursor;

    fn classic(frames: &[(f64, &[u8])]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (ts, data) in frames {
            w.write_frame(*ts, data).unwrap();
        }
        w.finish().unwrap()
    }

    fn drain(
        mut src: impl CaptureSource,
    ) -> (Vec<StreamFrame>, Vec<(u64, String)>, Option<SourceError>) {
        let mut frames = Vec::new();
        let mut skips = Vec::new();
        loop {
            match src.next() {
                Ok(Some(SourceItem::Frame(f))) => frames.push(f),
                Ok(Some(SourceItem::Skipped { index, reason })) => skips.push((index, reason)),
                Ok(None) => return (frames, skips, None),
                Err(e) => return (frames, skips, Some(e)),
            }
        }
    }

    #[test]
    fn classic_stream_matches_offline_reader() {
        let buf = classic(&[(1.5, b"hello"), (2.25, &[7u8; 99])]);
        let (frames, skips, err) = drain(PcapStream::new(Cursor::new(&buf), StallPolicy::Eof));
        assert!(err.is_none());
        assert!(skips.is_empty());
        assert_eq!(frames.len(), 2);
        assert_eq!(&*frames[0].data, b"hello" as &[u8]);
        assert!((frames[0].ts - 1.5).abs() < 2e-6);
        assert_eq!(frames[1].index, 1);
        assert_eq!(frames[1].data.len(), 99);
    }

    #[test]
    fn big_endian_classic_parses_identically() {
        let le = classic(&[(3.125, b"abcdef")]);
        let be = byteswap_capture(&le);
        let (fl, _, _) = drain(PcapStream::new(Cursor::new(&le), StallPolicy::Eof));
        let (fb, _, _) = drain(PcapStream::new(Cursor::new(&be), StallPolicy::Eof));
        assert_eq!(fl, fb);
    }

    #[test]
    fn truncated_tail_is_a_fatal_error_after_the_good_prefix() {
        let mut buf = classic(&[(1.0, b"first"), (2.0, b"second")]);
        buf.truncate(buf.len() - 3);
        let (frames, _, err) = drain(PcapStream::new(Cursor::new(&buf), StallPolicy::Eof));
        assert_eq!(frames.len(), 1);
        let err = err.expect("truncation is fatal");
        assert!(err.reason.contains("runs past"), "{err}");
    }

    #[test]
    fn non_ethernet_link_type_fails_at_the_header() {
        let mut buf = classic(&[(0.0, b"x")]);
        buf[20..24].copy_from_slice(&113u32.to_le_bytes());
        let (frames, _, err) = drain(PcapStream::new(Cursor::new(&buf), StallPolicy::Eof));
        assert!(frames.is_empty());
        assert!(err.unwrap().reason.contains("link type 113"));
    }

    #[test]
    fn empty_stream_is_a_clear_error() {
        let (_, _, err) = drain(PcapStream::new(Cursor::new(&[][..]), StallPolicy::Eof));
        assert!(err.unwrap().reason.contains("too short"));
    }

    #[test]
    fn feed_stays_bounded_however_long_the_capture() {
        // ~6 MB of ordinary frames around one frame longer than READ_CHUNK
        // and one of the largest size the classic framer accepts.
        let sizes: Vec<usize> = (0..4000)
            .map(|i| match i {
                1000 => READ_CHUNK + 1,
                3000 => MAX_INCL_LEN as usize,
                _ => 1400,
            })
            .collect();
        let bodies: Vec<Vec<u8>> = (0..sizes.len()).map(|i| vec![i as u8; sizes[i]]).collect();
        let frames: Vec<(f64, &[u8])> = bodies.iter().map(|b| (1.0, &b[..])).collect();
        let classic = classic(&frames);
        assert!(classic.len() > 5_000_000);
        let pcapng = crate::pcapng::classic_to_pcapng(&classic, false, 6);
        // Largest record of each framing: 16-byte record header, or the
        // 32 bytes an enhanced packet block wraps around its frame.
        for (capture, largest) in [(classic, sizes[3000] + 16), (pcapng, sizes[3000] + 32)] {
            let mut src = PcapStream::new(Cursor::new(&capture), StallPolicy::Eof);
            let mut seen = 0;
            while let Some(item) = src.next_lent().unwrap() {
                let SourceItem::Frame(f) = item else {
                    panic!("unexpected skip {item:?}");
                };
                assert_eq!(f.data.len(), sizes[seen], "frame {seen}");
                assert!(f.data.iter().all(|&b| b == seen as u8), "frame {seen}");
                seen += 1;
                let cap = src.feed.buf.capacity();
                if seen <= 1000 {
                    assert_eq!(cap, INITIAL_BUF, "no growth before a long record");
                }
                assert!(cap <= largest + READ_CHUNK, "{cap} after frame {seen}");
            }
            assert_eq!(seen, sizes.len());
        }
    }

    #[test]
    fn follow_policy_gives_up_after_the_idle_timeout() {
        // A reader that yields the capture then stalls forever (returns
        // 0 bytes): with a tiny idle timeout the stream must end cleanly.
        let buf = classic(&[(1.0, b"only")]);
        let stall = StallPolicy::Follow {
            poll: Duration::from_millis(1),
            idle: Some(Duration::from_millis(10)),
        };
        let (frames, _, err) = drain(PcapStream::new(Cursor::new(&buf), stall));
        assert!(err.is_none(), "{err:?}");
        assert_eq!(frames.len(), 1);
    }
}
