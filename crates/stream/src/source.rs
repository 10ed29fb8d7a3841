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
//!   (µs/ns magic, either byte order), parsed by the same helpers
//!   ([`ClassicHeader`]), so both readers agree frame for frame and error
//!   for error;
//! * **pcapng** — SHB/IDB/EPB block streams, both byte orders, with
//!   per-interface timestamp resolution (see [`crate::pcapng`]).
//!
//! The error model is the offline layer's ([`caai_capture::source`]):
//! per-packet problems are *skipped and reported*
//! ([`SourceItem::Skipped`]); broken container framing is a
//! [`CaptureError`] — the run's error while the container header (the
//! classic global header, or pcapng's first section header) is unread,
//! truncation after it.
//!
//! Follow semantics live in [`StallPolicy`]: on a pipe, FIFO or stdin a
//! zero-byte read means the writer closed (definitive end of capture); on
//! a regular file being `--follow`ed it means "no new data yet", so the
//! feed polls until new bytes appear or an idle timeout expires.

use caai_capture::pcap::{ClassicHeader, GLOBAL_HEADER_LEN, RECORD_HEADER_LEN};
use caai_capture::{CaptureError, CaptureSource, SourceItem, StreamFrame};
use std::io::Read;
use std::time::{Duration, Instant};

use crate::pcapng;

/// What a zero-byte read from the underlying stream means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// The stream is over (regular file read to its end, pipe whose
    /// writer closed, stdin at EOF).
    Eof,
    /// The file may still grow: sleep `poll` and retry, giving up after
    /// `idle` without a single new byte (`None` = wait forever), at the
    /// second empty read at the earliest.
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
    pub(crate) fn want(&mut self, n: usize) -> Result<bool, CaptureError> {
        if self.available() >= n {
            return Ok(true);
        }
        self.refill(n)
    }

    fn refill(&mut self, n: usize) -> Result<bool, CaptureError> {
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
            let got = self.inner.read(&mut self.buf[self.end..]).map_err(|e| {
                CaptureError::new(self.consumed + self.end as u64, format!("read failed: {e}"))
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
                    // The idle clock starts at the first empty read and is
                    // looked at from the second on: one empty read between
                    // two full ones never ends the stream, however long
                    // the thread waited to run.
                    match idle_since {
                        None => idle_since = Some(Instant::now()),
                        Some(since) if idle.is_some_and(|limit| since.elapsed() >= limit) => {
                            self.ended = true;
                            return Ok(false);
                        }
                        Some(_) => {}
                    }
                    std::thread::sleep(poll);
                }
            }
        }
        Ok(true)
    }
}

enum Mode {
    /// Nothing read yet; the container format is still unknown.
    Detect,
    Classic(ClassicHeader),
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

impl<R: Read> PcapStream<R> {
    /// Wraps a reader. Format detection happens on the first
    /// [`read_header`](CaptureSource::read_header),
    /// [`next`](CaptureSource::next) or
    /// [`next_lent`](CaptureSource::next_lent) call.
    pub fn new(inner: R, stall: StallPolicy) -> Self {
        PcapStream {
            feed: ByteFeed::new(inner, stall),
            mode: Mode::Detect,
            index: 0,
        }
    }

    /// Reads the container header: pcapng's first section header block,
    /// or the classic global header (whose link type must be Ethernet).
    fn detect(&mut self) -> Result<Mode, CaptureError> {
        if self.feed.want(4)? && self.feed.data()[..4] == pcapng::SHB_MAGIC {
            let mut section = pcapng::Section::default();
            pcapng::read_section_header(&mut self.feed, &mut section)?;
            return Ok(Mode::Pcapng(section));
        }
        // Too few bytes is `parse`'s error to report, as offline.
        self.feed.want(GLOBAL_HEADER_LEN)?;
        let header = ClassicHeader::parse(self.feed.data())?;
        header.require_ethernet()?;
        self.feed.consume(GLOBAL_HEADER_LEN);
        Ok(Mode::Classic(header))
    }
}

/// Reads one classic record from the feed, lending its frame.
fn next_classic<'a, R: Read>(
    feed: &'a mut ByteFeed<R>,
    header: &ClassicHeader,
    index: &mut u64,
) -> Result<Option<SourceItem<&'a [u8]>>, CaptureError> {
    if !feed.want(RECORD_HEADER_LEN)? && feed.available() == 0 {
        return Ok(None);
    }
    let at = feed.offset();
    let record = header.record(feed.data(), at)?;
    feed.want(record.record_len())?;
    let taken = record.record_len().min(feed.available());
    let data = record.frame(feed.consume(taken), at)?;
    *index += 1;
    Ok(Some(SourceItem::Frame(StreamFrame {
        index: *index - 1,
        ts: record.ts,
        data,
    })))
}

impl<R: Read> CaptureSource for PcapStream<R> {
    fn read_header(&mut self) -> Result<(), CaptureError> {
        if let Mode::Detect = self.mode {
            self.mode = Mode::Done; // unless detection succeeds
            self.mode = self.detect()?;
        }
        Ok(())
    }

    fn next_lent(&mut self) -> Result<Option<SourceItem<&[u8]>>, CaptureError> {
        self.read_header()?;
        let out = match self.mode {
            Mode::Detect => unreachable!("read_header() sets a mode"),
            Mode::Done => return Ok(None),
            Mode::Classic(header) => next_classic(&mut self.feed, &header, &mut self.index),
            Mode::Pcapng(ref mut sec) => pcapng::next_item(&mut self.feed, sec, &mut self.index),
        };
        if out.is_err() {
            self.mode = Mode::Done;
        }
        out
    }
}

/// A capture stream opened from a CLI path argument.
pub type OpenedSource = PcapStream<Box<dyn Read + Send>>;

/// Opens `path` as a capture source. `-` reads stdin. FIFOs and pipes
/// stream until their writer closes; a regular file stops at its current
/// end unless `follow.follow` is set, in which case it polls for growth
/// until `follow.idle_timeout` passes without new bytes. A directory is
/// refused here, as a path that names no capture, rather than failing
/// its first read as capture damage.
pub fn open_path(path: &str, follow: &FollowConfig) -> std::io::Result<OpenedSource> {
    if path == "-" {
        let reader: Box<dyn Read + Send> = Box::new(std::io::stdin());
        return Ok(PcapStream::new(reader, StallPolicy::Eof));
    }
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    if meta.is_dir() {
        let kind = std::io::ErrorKind::IsADirectory;
        return Err(std::io::Error::new(kind, "Is a directory"));
    }
    #[cfg(unix)]
    let is_pipe = std::os::unix::fs::FileTypeExt::is_fifo(&meta.file_type());
    #[cfg(not(unix))]
    let is_pipe = false;
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
    use caai_capture::pcap::{byteswap_capture, PcapWriter, MAX_INCL_LEN};
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
    ) -> (Vec<StreamFrame>, Vec<(u64, String)>, Option<CaptureError>) {
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
    fn one_empty_read_never_ends_a_followed_stream() {
        // Every other read is empty, and the idle limit is zero: only a
        // second empty read in a row may end the stream, so both frames
        // arrive whenever the clock is read.
        struct Halting<'a>(&'a [u8], bool);
        impl Read for Halting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Ok(0);
                }
                let n = buf.len().min(self.0.len()).min(7);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let buf = classic(&[(1.0, b"first"), (2.0, b"second")]);
        let stall = StallPolicy::Follow {
            poll: Duration::ZERO,
            idle: Some(Duration::ZERO),
        };
        let (frames, skips, err) = drain(PcapStream::new(Halting(&buf, false), stall));
        assert_eq!((frames.len(), skips.len(), err), (2, 0, None));
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
