//! Differential properties of the capture source over read boundaries.
//!
//! A live tap hands the source bytes in pieces of any size, a followed
//! file hands it nothing at all now and then. Neither may show: however
//! the bytes arrive, the source must yield the frames, skips, terminal
//! error and offsets of one whole-buffer read — and a frame lent from the
//! source's buffer must hold the bytes an owned one would, across every
//! refill, compaction and growth of that buffer.

use caai_capture::pcap::{byteswap_capture, PcapWriter, MAGIC_MICROS, MAGIC_NANOS};
use caai_stream::pcapng::BT_SPB;
use caai_stream::{
    classic_to_pcapng, CaptureError, CaptureSource, PcapStream, SourceItem, StallPolicy,
};
use proptest::prelude::*;
use std::io::{Cursor, Read};
use std::sync::OnceLock;
use std::time::Duration;

/// ~700 KiB of frames whose every byte depends on the frame and the
/// position in it (so stale or shifted bytes cannot pass for the right
/// ones), sized from a bare ACK to past the feed's initial 128 KiB.
fn classic_fixture() -> &'static [u8] {
    static CAPTURE: OnceLock<Vec<u8>> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let sizes = [60, 1514, 9000, 40_000, 70_000, 200_000, 0, 1];
        for i in 0..24usize {
            let frame: Vec<u8> = (0..sizes[i % sizes.len()])
                .map(|at| (at * 31 + i * 7) as u8)
                .collect();
            w.write_frame(i as f64 * 0.25, &frame).unwrap();
        }
        w.finish().unwrap()
    })
}

/// A well-framed block the reader must skip and report, and one (a simple
/// packet block) it must count as a packet and skip.
fn alien_blocks() -> Vec<u8> {
    let mut out = Vec::new();
    for block_type in [0x0BAD, BT_SPB] {
        out.extend_from_slice(&u32::to_le_bytes(block_type));
        out.extend_from_slice(&16u32.to_le_bytes());
        out.extend_from_slice(&[0xEE; 4]);
        out.extend_from_slice(&16u32.to_le_bytes());
    }
    out
}

/// The fixture in every framing the source accepts.
fn variant(which: usize) -> Vec<u8> {
    let classic = classic_fixture();
    let nanos = || {
        let mut ns = classic.to_vec();
        assert_eq!(ns[..4], MAGIC_MICROS.to_le_bytes());
        ns[..4].copy_from_slice(&MAGIC_NANOS.to_le_bytes());
        ns
    };
    match which {
        0 => classic.to_vec(),
        1 => byteswap_capture(classic),
        2 => nanos(),
        3 => byteswap_capture(&nanos()),
        4 => classic_to_pcapng(classic, false, 6),
        5 => classic_to_pcapng(classic, true, 9),
        _ => {
            // Skips mid-stream: after the section and interface blocks
            // (28 + 32 bytes) and after everything else.
            let mut ng = classic_to_pcapng(classic, false, 6);
            ng.splice(60..60, alien_blocks());
            ng.extend(alien_blocks());
            ng
        }
    }
}
const VARIANTS: usize = 7;

/// Hands out 1..=`max` bytes per call, and — when `stalls` — a zero-byte
/// read now and then (never two in a row before the end, so an idle
/// timeout cannot pass mid-stream).
struct Drip<'a> {
    bytes: &'a [u8],
    max: usize,
    state: u64,
    stalls: bool,
    stalled: bool,
}

impl Read for Drip<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = (self.state >> 33) as usize;
        if self.stalls && !self.stalled && draw.is_multiple_of(3) {
            self.stalled = true;
            return Ok(0);
        }
        self.stalled = false;
        let n = (1 + draw % self.max).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

type Drained = (Vec<SourceItem>, Option<CaptureError>);

/// Drains a source by its owned or its lending method. A lent frame is
/// copied out while it is lent, so what it showed then is what is kept.
fn drain(mut source: impl CaptureSource, lend: bool) -> Drained {
    let mut items = Vec::new();
    loop {
        let next = if lend {
            source
                .next_lent()
                .map(|item| item.map(|item| item.map_data(Box::from)))
        } else {
            source.next()
        };
        match next {
            Ok(Some(item)) => items.push(item),
            Ok(None) => return (items, None),
            Err(e) => return (items, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn read_boundaries_never_show(
        which in 0usize..VARIANTS,
        max_log in 0u32..19,
        cut in 0usize..1300,
        seed in 0u64..u64::MAX,
        follow in 0u8..2,
    ) {
        let mut bytes = variant(which);
        if cut < 1000 {
            // Torn captures too: the terminal error and its offset must
            // not depend on where reads happened to end.
            bytes.truncate(bytes.len() * cut / 1000);
        }
        let whole = drain(PcapStream::new(Cursor::new(&bytes), StallPolicy::Eof), false);
        if cut >= 1000 {
            prop_assert!(whole.1.is_none(), "{:?}", whole.1);
            prop_assert!(whole.0.len() >= 24);
        }

        let stall = if follow == 1 {
            StallPolicy::Follow { poll: Duration::ZERO, idle: Some(Duration::from_millis(5)) }
        } else {
            StallPolicy::Eof
        };
        for lend in [false, true] {
            let drip = Drip {
                bytes: &bytes,
                max: 1 << max_log,
                state: seed,
                stalls: follow == 1,
                stalled: false,
            };
            let dripped = drain(PcapStream::new(drip, stall), lend);
            prop_assert!(dripped.1 == whole.1, "lend {lend}: {:?} vs {:?}", dripped.1, whole.1);
            prop_assert!(dripped.0.len() == whole.0.len());
            for (i, (got, want)) in dripped.0.iter().zip(&whole.0).enumerate() {
                prop_assert!(got == want, "lend {lend}: item {i} differs");
            }
        }
    }
}
