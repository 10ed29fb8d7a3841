//! The mutation engine: generic byte-level havoc plus structure-aware
//! transforms for the two capture containers.
//!
//! Generic mutations (bit flips, interesting integers, chunk surgery)
//! find framing bugs; structure-aware mutations get *past* the framing to
//! the per-record logic, by walking the container the way the parser does
//! and corrupting exactly the fields the parser trusts: classic-pcap
//! record lengths and timestamps, pcapng block lengths, block types,
//! `if_tsresol`, EPB `cap_len`/interface ids, and whole-record reorders.
//!
//! Every walker in this module is defensive: it re-derives the framing
//! from the (possibly already corrupted) buffer with checked arithmetic
//! and bails out to a generic mutation when the structure is gone. A
//! panic in the mutation engine would be a harness bug, not a finding.

use crate::rng::SplitMix64;

/// Integer values that exercise boundary paths in length-checked parsers.
pub const INTERESTING_U32: [u32; 14] = [
    0,
    1,
    2,
    3,
    4,
    15,
    16,
    24,
    0x7FFF_FFFF,
    0x8000_0000,
    0xFFFF_FFFF,
    caai_capture::pcap::MAX_INCL_LEN,
    caai_capture::pcap::MAX_INCL_LEN + 1,
    16 * 1024 * 1024, // pcapng MAX_BLOCK_LEN
];

/// Applies 1–4 mutations to `buf`, drawing splice material from `other`.
pub fn mutate(buf: &mut Vec<u8>, other: &[u8], rng: &mut SplitMix64) {
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        mutate_once(buf, other, rng);
    }
}

fn mutate_once(buf: &mut Vec<u8>, other: &[u8], rng: &mut SplitMix64) {
    match rng.below(12) {
        0 => bit_flip(buf, rng),
        1 => byte_set(buf, rng),
        2 => write_interesting_u32(buf, rng),
        3 => chunk_delete(buf, rng),
        4 => chunk_duplicate(buf, rng),
        5 => chunk_swap(buf, rng),
        6 => truncate(buf, rng),
        7 => cross_splice(buf, other, rng),
        8..=9 => {
            // Structure-aware: pick the walker matching the container;
            // fall back to havoc when neither recognizes the bytes.
            if !mutate_pcap(buf, rng) && !mutate_pcapng(buf, rng) {
                bit_flip(buf, rng);
            }
        }
        10 => {
            if !mutate_pcapng(buf, rng) && !mutate_pcap(buf, rng) {
                byte_set(buf, rng);
            }
        }
        _ => extend_with_garbage(buf, rng),
    }
}

// ---------------------------------------------------------------------------
// Generic havoc.
// ---------------------------------------------------------------------------

fn bit_flip(buf: &mut [u8], rng: &mut SplitMix64) {
    if buf.is_empty() {
        return;
    }
    let at = rng.below(buf.len());
    buf[at] ^= 1 << rng.below(8);
}

fn byte_set(buf: &mut [u8], rng: &mut SplitMix64) {
    if buf.is_empty() {
        return;
    }
    let at = rng.below(buf.len());
    buf[at] = rng.byte();
}

fn write_interesting_u32(buf: &mut [u8], rng: &mut SplitMix64) {
    if buf.len() < 4 {
        return;
    }
    let at = rng.below(buf.len() - 3);
    let v = *rng.pick(&INTERESTING_U32);
    let bytes = if rng.chance(1, 2) {
        v.to_le_bytes()
    } else {
        v.to_be_bytes()
    };
    buf[at..at + 4].copy_from_slice(&bytes);
}

/// A random chunk span of up to 1/4 of the buffer (at least 1 byte).
fn chunk(len: usize, rng: &mut SplitMix64) -> (usize, usize) {
    let max = (len / 4).max(1);
    let size = 1 + rng.below(max);
    let at = rng.below(len.saturating_sub(size).max(1));
    (at, (at + size).min(len))
}

fn chunk_delete(buf: &mut Vec<u8>, rng: &mut SplitMix64) {
    if buf.len() < 2 {
        return;
    }
    let (a, b) = chunk(buf.len(), rng);
    buf.drain(a..b);
}

fn chunk_duplicate(buf: &mut Vec<u8>, rng: &mut SplitMix64) {
    if buf.is_empty() || buf.len() > 1 << 20 {
        return; // bound growth: mutated inputs must stay small
    }
    let (a, b) = chunk(buf.len(), rng);
    let piece: Vec<u8> = buf[a..b].to_vec();
    let at = rng.below(buf.len() + 1);
    buf.splice(at..at, piece);
}

fn chunk_swap(buf: &mut [u8], rng: &mut SplitMix64) {
    if buf.len() < 4 {
        return;
    }
    let half = buf.len() / 2;
    let size = 1 + rng.below((half / 2).max(1));
    let a = rng.below(half - size.min(half) + 1);
    let b = half + rng.below(half - size.min(half) + 1);
    for i in 0..size {
        if b + i < buf.len() {
            buf.swap(a + i, b + i);
        }
    }
}

fn truncate(buf: &mut Vec<u8>, rng: &mut SplitMix64) {
    if buf.len() < 2 {
        return;
    }
    let keep = rng.below(buf.len());
    buf.truncate(keep.max(1));
}

fn cross_splice(buf: &mut Vec<u8>, other: &[u8], rng: &mut SplitMix64) {
    if other.is_empty() || buf.len() > 1 << 20 {
        return;
    }
    let (oa, ob) = chunk(other.len(), rng);
    let at = rng.below(buf.len() + 1);
    if rng.chance(1, 2) {
        // Overwrite in place.
        let end = (at + (ob - oa)).min(buf.len());
        buf[at..end].copy_from_slice(&other[oa..oa + (end - at)]);
    } else {
        buf.splice(at..at, other[oa..ob].iter().copied());
    }
}

fn extend_with_garbage(buf: &mut Vec<u8>, rng: &mut SplitMix64) {
    if buf.len() > 1 << 20 {
        return;
    }
    let n = 1 + rng.below(64);
    for _ in 0..n {
        buf.push(rng.byte());
    }
}

// ---------------------------------------------------------------------------
// Structure-aware: classic pcap.
// ---------------------------------------------------------------------------

/// The record table of a classic capture: `(header_offset, record_size)`
/// per record, plus whether integers are little-endian. `None` when the
/// buffer is not (or no longer) a walkable classic capture.
fn pcap_records(buf: &[u8]) -> Option<(bool, Vec<(usize, usize)>)> {
    use caai_capture::pcap::{ClassicHeader, Endianness, GLOBAL_HEADER_LEN, RECORD_HEADER_LEN};
    let header = ClassicHeader::parse(buf).ok()?;
    let mut records = Vec::new();
    let mut at = GLOBAL_HEADER_LEN;
    while let Ok(frame) = header
        .record(&buf[at..], at as u64)
        .and_then(|record| record.frame(&buf[at..], at as u64))
    {
        records.push((at, RECORD_HEADER_LEN + frame.len()));
        at += RECORD_HEADER_LEN + frame.len();
        if records.len() > 1 << 16 {
            break;
        }
    }
    let little = header.endianness == Endianness::Little;
    (!records.is_empty()).then_some((little, records))
}

/// Corrupts the classic container along its own seams. Returns false when
/// the buffer is not walkable as classic pcap.
fn mutate_pcap(buf: &mut Vec<u8>, rng: &mut SplitMix64) -> bool {
    let Some((little, records)) = pcap_records(buf) else {
        return false;
    };
    let w32 = |buf: &mut [u8], at: usize, v: u32| {
        let bytes = if little {
            v.to_le_bytes()
        } else {
            v.to_be_bytes()
        };
        buf[at..at + 4].copy_from_slice(&bytes);
    };
    match rng.below(6) {
        0 => {
            // Corrupt one header field of one record: ts_sec, ts_frac,
            // incl_len, or orig_len.
            let &(at, _) = rng.pick(&records);
            let field = at + 4 * rng.below(4);
            let v = *rng.pick(&INTERESTING_U32);
            w32(buf, field, v);
        }
        1 => {
            // Reorder: swap two whole records.
            if records.len() >= 2 {
                let i = rng.below(records.len());
                let j = rng.below(records.len());
                let (ia, isz) = records[i.min(j)];
                let (ja, jsz) = records[i.max(j)];
                if ia != ja {
                    let first: Vec<u8> = buf[ia..ia + isz].to_vec();
                    let second: Vec<u8> = buf[ja..ja + jsz].to_vec();
                    let mut out = Vec::with_capacity(buf.len());
                    out.extend_from_slice(&buf[..ia]);
                    out.extend_from_slice(&second);
                    out.extend_from_slice(&buf[ia + isz..ja]);
                    out.extend_from_slice(&first);
                    out.extend_from_slice(&buf[ja + jsz..]);
                    *buf = out;
                }
            }
        }
        2 => {
            // Duplicate one record in place.
            if buf.len() < 1 << 20 {
                let &(at, size) = rng.pick(&records);
                let piece: Vec<u8> = buf[at..at + size].to_vec();
                buf.splice(at..at, piece);
            }
        }
        3 => {
            // Delete one record cleanly.
            let &(at, size) = rng.pick(&records);
            buf.drain(at..at + size);
        }
        4 => {
            // Global header: magic, linktype, or snaplen.
            match rng.below(3) {
                0 => {
                    let magics = [
                        caai_capture::pcap::MAGIC_MICROS,
                        caai_capture::pcap::MAGIC_NANOS,
                        0xDEAD_BEEF,
                    ];
                    w32(buf, 0, *rng.pick(&magics));
                }
                1 => {
                    let linktypes = [0u32, 1, 101, 113, 276, u32::MAX];
                    w32(buf, 20, *rng.pick(&linktypes));
                }
                _ => w32(buf, 16, *rng.pick(&INTERESTING_U32)),
            }
        }
        _ => {
            // Cut a record in half: classic truncation mid-payload.
            let &(at, size) = rng.pick(&records);
            buf.truncate(at + rng.below(size.max(1)));
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Structure-aware: pcapng.
// ---------------------------------------------------------------------------

/// Block table of a pcapng buffer: section endianness plus
/// `(offset, size, type)` per block.
type NgBlocks = (bool, Vec<(usize, usize, u32)>);

fn ng_blocks(buf: &[u8]) -> Option<NgBlocks> {
    if buf.len() < 12 || buf[..4] != caai_stream::pcapng::SHB_MAGIC {
        return None;
    }
    let big = match (
        u32::from_le_bytes(buf[8..12].try_into().ok()?),
        u32::from_be_bytes(buf[8..12].try_into().ok()?),
    ) {
        (caai_stream::pcapng::BYTE_ORDER_MAGIC, _) => false,
        (_, caai_stream::pcapng::BYTE_ORDER_MAGIC) => true,
        _ => return None,
    };
    let rd = |at: usize| -> Option<u32> {
        let b: [u8; 4] = buf.get(at..at + 4)?.try_into().ok()?;
        Some(if big {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        })
    };
    let mut blocks = Vec::new();
    let mut at = 0usize;
    while at.checked_add(8)? <= buf.len() {
        let btype = rd(at)?;
        let total = rd(at + 4)? as usize;
        if total < 12 || !total.is_multiple_of(4) || total > 16 * 1024 * 1024 {
            break;
        }
        if at.checked_add(total)? > buf.len() {
            break;
        }
        blocks.push((at, total, btype));
        at += total;
        if blocks.len() > 1 << 16 {
            break;
        }
    }
    if blocks.is_empty() {
        None
    } else {
        Some((big, blocks))
    }
}

/// Corrupts pcapng framing along its block seams. Returns false when the
/// buffer is not walkable as pcapng.
fn mutate_pcapng(buf: &mut Vec<u8>, rng: &mut SplitMix64) -> bool {
    let Some((big, blocks)) = ng_blocks(buf) else {
        return false;
    };
    let w32 = |buf: &mut [u8], at: usize, v: u32| {
        let bytes = if big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        buf[at..at + 4].copy_from_slice(&bytes);
    };
    match rng.below(8) {
        0 => {
            // Corrupt a block's total_len: off-by-small or interesting.
            let &(at, size, _) = rng.pick(&blocks);
            let v = if rng.chance(1, 2) {
                (size as u32)
                    .wrapping_add(rng.below(9) as u32)
                    .wrapping_sub(4)
            } else {
                *rng.pick(&INTERESTING_U32)
            };
            w32(buf, at + 4, v);
        }
        1 => {
            // Corrupt a block's type.
            let &(at, _, _) = rng.pick(&blocks);
            let types = [
                caai_stream::pcapng::BT_IDB,
                caai_stream::pcapng::BT_SPB,
                caai_stream::pcapng::BT_NRB,
                caai_stream::pcapng::BT_ISB,
                caai_stream::pcapng::BT_EPB,
                0x0BAD,
                0xFFFF_FFFF,
            ];
            w32(buf, at, *rng.pick(&types));
        }
        2 => {
            // Corrupt the section byte-order magic or an IDB's if_tsresol
            // byte (the timestamp-scale hazard).
            if rng.chance(1, 4) {
                if buf.len() >= 12 {
                    w32(buf, 8, rng.next_u64() as u32);
                }
            } else if let Some(&(at, size, _)) = blocks
                .iter()
                .find(|&&(_, _, t)| t == caai_stream::pcapng::BT_IDB)
            {
                // The canonical IDB layout puts the if_tsresol value at
                // block offset 20 (type 4, len 4, linktype 2, reserved 2,
                // snaplen 4, option header 4); on foreign layouts this
                // lands somewhere in the options, which is just as good.
                let resols = [0u8, 1, 6, 9, 127, 0x80, 0x80 | 20, 0x80 | 127, 0xFF];
                let off = at + 20.min(size.saturating_sub(5));
                if off < buf.len() {
                    buf[off] = *rng.pick(&resols);
                }
            }
        }
        3 => {
            // Corrupt an EPB's interface id, timestamp halves, or cap_len.
            let epbs: Vec<&(usize, usize, u32)> = blocks
                .iter()
                .filter(|&&(_, _, t)| t == caai_stream::pcapng::BT_EPB)
                .collect();
            if !epbs.is_empty() {
                let &&(at, size, _) = rng.pick(&epbs);
                // Body starts at +8: iface, ts_high, ts_low, cap_len, orig_len.
                let field = at + 8 + 4 * rng.below(5);
                if field + 4 <= at + size {
                    w32(buf, field, *rng.pick(&INTERESTING_U32));
                }
            }
        }
        4 => {
            // Reorder: move one block before another.
            if blocks.len() >= 2 {
                let i = rng.below(blocks.len());
                let (at, size, _) = blocks[i];
                let piece: Vec<u8> = buf[at..at + size].to_vec();
                buf.drain(at..at + size);
                let j = rng.below(blocks.len());
                let dest = blocks[j].0.min(buf.len());
                buf.splice(dest..dest, piece);
            }
        }
        5 => {
            // Duplicate one block.
            if buf.len() < 1 << 20 {
                let &(at, size, _) = rng.pick(&blocks);
                let piece: Vec<u8> = buf[at..at + size].to_vec();
                buf.splice(at..at, piece);
            }
        }
        6 => {
            // Insert a fresh well-framed block of arbitrary type.
            let &(at, size, _) = rng.pick(&blocks);
            let mut alien = Vec::new();
            let body = 4 * rng.below(5);
            let total = (12 + body) as u32;
            let w = |v: u32, out: &mut Vec<u8>| {
                out.extend_from_slice(&if big {
                    v.to_be_bytes()
                } else {
                    v.to_le_bytes()
                });
            };
            w(
                *rng.pick(&[0x0BADu32, caai_stream::pcapng::BT_SPB, 0x0A0D_0D0A]),
                &mut alien,
            );
            w(total, &mut alien);
            for _ in 0..body {
                alien.push(rng.byte());
            }
            w(total, &mut alien);
            buf.splice(at + size..at + size, alien);
        }
        _ => {
            // Truncate mid-block.
            let &(at, size, _) = rng.pick(&blocks);
            buf.truncate(at + rng.below(size.max(1)));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_capture::pcap::PcapWriter;

    fn classic() -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(1.0, b"frame one").unwrap();
        w.write_frame(2.0, &[7u8; 60]).unwrap();
        w.write_frame(3.0, b"third").unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn pcap_walker_frames_the_records() {
        let buf = classic();
        let (little, records) = pcap_records(&buf).expect("walkable");
        assert!(little);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].0, 24);
        assert_eq!(records[0].1, 16 + 9);
    }

    #[test]
    fn ng_walker_frames_the_blocks() {
        let ng = caai_stream::classic_to_pcapng(&classic(), false, 6);
        let (big, blocks) = ng_blocks(&ng).expect("walkable");
        assert!(!big);
        // SHB + IDB + 3 EPBs.
        assert_eq!(blocks.len(), 5);
        assert_eq!(blocks[0].2, u32::from_le_bytes(SHB_MAGIC_LOCAL));
        assert_eq!(blocks[1].2, caai_stream::pcapng::BT_IDB);
        assert_eq!(blocks[4].2, caai_stream::pcapng::BT_EPB);
    }

    const SHB_MAGIC_LOCAL: [u8; 4] = caai_stream::pcapng::SHB_MAGIC;

    #[test]
    fn walkers_reject_garbage() {
        assert!(pcap_records(b"not a capture at all").is_none());
        assert!(ng_blocks(b"not a capture at all").is_none());
        assert!(pcap_records(&[]).is_none());
        assert!(ng_blocks(&[]).is_none());
    }

    #[test]
    fn mutation_engine_never_panics_on_tiny_or_empty_buffers() {
        let mut rng = SplitMix64::new(99);
        for len in 0..32 {
            for round in 0..200 {
                let mut buf: Vec<u8> = (0..len).map(|i| (i + round) as u8).collect();
                mutate(&mut buf, b"other material", &mut rng);
            }
        }
    }

    #[test]
    fn structure_aware_mutations_keep_working_over_many_rounds() {
        let mut rng = SplitMix64::new(5);
        let classic = classic();
        let ng = caai_stream::classic_to_pcapng(&classic, true, 9);
        let mut a = classic.clone();
        let mut b = ng.clone();
        for _ in 0..2000 {
            mutate(&mut a, &ng, &mut rng);
            mutate(&mut b, &classic, &mut rng);
        }
        // The buffers must have actually churned.
        assert_ne!(a, classic);
        assert_ne!(b, ng);
    }
}
