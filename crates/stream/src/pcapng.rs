//! Incremental pcapng (pcap-next-generation) block framing.
//!
//! pcapng is a typed-block container, unlike classic pcap's flat record
//! stream:
//!
//! ```text
//! block               (everything padded to 32-bit boundaries)
//!   type        u32   block kind
//!   total_len   u32   whole block including both length fields, ≥ 12
//!   body        ...   total_len - 12 bytes
//!   total_len   u32   trailing copy (for backward scans; ignored here)
//!
//! SHB  0x0A0D0D0A  Section Header: byte-order magic 0x1A2B3C4D at body
//!                  offset 0 decides the endianness of everything until
//!                  the next SHB; resets the interface list
//! IDB  0x00000001  Interface Description: linktype u16, snaplen u32,
//!                  options — option 9 (if_tsresol) sets the timestamp
//!                  resolution: value v with MSB clear = 10^-v seconds
//!                  per tick, MSB set = 2^-(v&0x7F); default 10^-6
//! EPB  0x00000006  Enhanced Packet: interface u32, timestamp u64 as
//!                  high/low u32 halves in the interface's resolution,
//!                  cap_len u32, orig_len u32, frame bytes (padded)
//! SPB  0x00000003  Simple Packet: carries no timestamp, so it cannot
//!                  feed flow reconstruction — skipped and reported
//! ```
//!
//! Framing is lenient where the spec allows and strict where corruption
//! would poison everything downstream: unknown block types and metadata
//! blocks (name resolution, statistics) are skipped — `total_len` still
//! frames them — while an impossible `total_len` is fatal because the
//! stream can never re-synchronize. The trailing `total_len` copy is
//! deliberately not verified: real-world writers get it wrong, and the
//! leading copy alone determines the framing.

use crate::source::{ByteFeed, SourceError, SourceItem, StreamFrame};
use std::io::Read;
use std::ops::Range;

/// Section Header Block type — also the stream's magic number. The bytes
/// are a palindrome, so it reads the same in either endianness.
pub const SHB_MAGIC: [u8; 4] = [0x0A, 0x0D, 0x0D, 0x0A];

/// Byte-order magic inside the SHB body.
pub const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

/// Interface Description Block.
pub const BT_IDB: u32 = 0x0000_0001;
/// Simple Packet Block (no timestamp).
pub const BT_SPB: u32 = 0x0000_0003;
/// Name Resolution Block (metadata, silently ignored).
pub const BT_NRB: u32 = 0x0000_0004;
/// Interface Statistics Block (metadata, silently ignored).
pub const BT_ISB: u32 = 0x0000_0005;
/// Enhanced Packet Block.
pub const BT_EPB: u32 = 0x0000_0006;

/// Ceiling on a single block's `total_len`. Larger values are corrupt
/// length fields — even jumbo frames with maximal options stay far under
/// this — and bound the memory one block can pin.
pub const MAX_BLOCK_LEN: u32 = 16 * 1024 * 1024;

/// The pcapng `if_tsresol` option code.
const OPT_IF_TSRESOL: u16 = 9;

/// One declared capture interface.
#[derive(Debug, Clone, Copy)]
struct Iface {
    /// Whether frames on it are Ethernet (the only decodable link type).
    ethernet: bool,
    /// Link type as declared, for diagnostics.
    linktype: u16,
    /// Timestamp ticks per second.
    ticks_per_sec: f64,
}

/// Per-section parse state: endianness and the interface table, reset at
/// every Section Header Block.
#[derive(Debug, Clone)]
pub(crate) struct Section {
    big: bool,
    seen_shb: bool,
    interfaces: Vec<Iface>,
}

impl Section {
    pub(crate) fn new() -> Section {
        Section {
            big: false,
            seen_shb: false,
            interfaces: Vec::new(),
        }
    }
}

fn rd_u32(bytes: &[u8], at: usize, big: bool) -> u32 {
    let b: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
    if big {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

fn rd_u16(bytes: &[u8], at: usize, big: bool) -> u16 {
    let b: [u8; 2] = bytes[at..at + 2].try_into().expect("2 bytes");
    if big {
        u16::from_be_bytes(b)
    } else {
        u16::from_le_bytes(b)
    }
}

/// Ticks-per-second for an `if_tsresol` value byte.
fn tsresol_ticks(v: u8) -> f64 {
    if v & 0x80 != 0 {
        2f64.powi(i32::from(v & 0x7F))
    } else {
        10f64.powi(i32::from(v))
    }
}

/// Parses an IDB body into an interface entry. Malformed options stop
/// option parsing but keep the interface (with default resolution) — a
/// bad option must not discard the packets that reference the interface.
fn parse_idb(body: &[u8], big: bool) -> Iface {
    let mut ticks_per_sec = 1e6;
    let linktype = if body.len() >= 2 {
        rd_u16(body, 0, big)
    } else {
        u16::MAX
    };
    // linktype u16 + reserved u16 + snaplen u32, then options.
    let mut at = 8;
    while at + 4 <= body.len() {
        let code = rd_u16(body, at, big);
        let olen = rd_u16(body, at + 2, big) as usize;
        at += 4;
        if code == 0 {
            break;
        }
        if at + olen > body.len() {
            break;
        }
        if code == OPT_IF_TSRESOL && olen == 1 {
            ticks_per_sec = tsresol_ticks(body[at]);
        }
        at += (olen + 3) & !3;
    }
    Iface {
        ethernet: u32::from(linktype) == caai_capture::pcap::LINKTYPE_ETHERNET,
        linktype,
        ticks_per_sec,
    }
}

/// Reads blocks until a packet (frame or skip report) or the end of the
/// stream; a frame's bytes are lent from the feed. Metadata blocks are
/// consumed silently; framing damage is a fatal [`SourceError`].
pub(crate) fn next_item<'a, R: Read>(
    feed: &'a mut ByteFeed<R>,
    sec: &mut Section,
    index: &mut u64,
) -> Result<Option<SourceItem<&'a [u8]>>, SourceError> {
    loop {
        if !feed.want(8)? {
            let n = feed.available();
            if n == 0 {
                return Ok(None);
            }
            return Err(SourceError {
                offset: feed.offset(),
                reason: format!("truncated pcapng block header ({n} trailing bytes)"),
            });
        }
        let at = feed.offset();

        // --- Section Header: decides its own endianness. ----------------
        if feed.data()[..4] == SHB_MAGIC {
            if !feed.want(16)? {
                return Err(SourceError {
                    offset: at,
                    reason: "truncated section header block".to_owned(),
                });
            }
            let head = feed.data();
            let big = match (rd_u32(head, 8, false), rd_u32(head, 8, true)) {
                (BYTE_ORDER_MAGIC, _) => false,
                (_, BYTE_ORDER_MAGIC) => true,
                (other, _) => {
                    return Err(SourceError {
                        offset: at + 8,
                        reason: format!("bad pcapng byte-order magic {other:#010X}"),
                    })
                }
            };
            let total = rd_u32(feed.data(), 4, big);
            check_total_len(total, 28, at)?;
            if !feed.want(total as usize)? {
                return Err(truncated_block(feed, total, at));
            }
            feed.consume(total as usize);
            sec.big = big;
            sec.seen_shb = true;
            sec.interfaces.clear();
            continue;
        }

        if !sec.seen_shb {
            return Err(SourceError {
                offset: at,
                reason: "pcapng stream does not start with a section header".to_owned(),
            });
        }
        let big = sec.big;
        let btype = rd_u32(feed.data(), 0, big);
        let total = rd_u32(feed.data(), 4, big);
        check_total_len(total, 12, at)?;
        if !feed.want(total as usize)? {
            return Err(truncated_block(feed, total, at));
        }
        let body_end = total as usize - 4;
        let body = &feed.data()[8..body_end];

        let item = match btype {
            BT_IDB => {
                let iface = parse_idb(body, big);
                sec.interfaces.push(iface);
                None
            }
            BT_EPB => Some(parse_epb(body, big, &sec.interfaces, index)),
            BT_SPB => {
                let i = *index;
                *index += 1;
                Some(SourceItem::Skipped {
                    index: i,
                    reason: format!(
                        "simple packet block (type {BT_SPB:#010X}) carries no timestamp"
                    ),
                })
            }
            BT_NRB | BT_ISB => None, // routine metadata, nothing to report
            other => Some(SourceItem::Skipped {
                index: *index,
                reason: format!("unknown pcapng block type {other:#010X} skipped"),
            }),
        };
        // Packet items name their bytes by position until here, so the
        // feed is borrowed for the caller only on the path that returns.
        if let Some(item) = item {
            let block = feed.consume(total as usize);
            return Ok(Some(item.map_data(|at| &block[at])));
        }
        feed.consume(total as usize);
    }
}

fn check_total_len(total: u32, min: u32, at: u64) -> Result<(), SourceError> {
    if total < min || !total.is_multiple_of(4) || total > MAX_BLOCK_LEN {
        return Err(SourceError {
            offset: at + 4,
            reason: format!("corrupt pcapng block length {total}"),
        });
    }
    Ok(())
}

fn truncated_block<R: Read>(feed: &ByteFeed<R>, total: u32, at: u64) -> SourceError {
    SourceError {
        offset: at,
        reason: format!(
            "pcapng block of {total} bytes runs past the end of the capture \
             ({} bytes arrived)",
            feed.available()
        ),
    }
}

/// Parses an EPB body into a frame (or a skip report for packets this
/// pipeline cannot use), the frame's bytes given as their range within
/// the block. Never fatal: the block framed correctly, so the stream
/// stays synchronized whatever the body holds. Every skip reason names
/// the enclosing block type, so a diagnostic alone pins which block
/// walker produced it.
fn parse_epb(
    body: &[u8],
    big: bool,
    interfaces: &[Iface],
    index: &mut u64,
) -> SourceItem<Range<usize>> {
    let i = *index;
    *index += 1;
    let skip = |reason: String| SourceItem::Skipped {
        index: i,
        reason: format!("enhanced packet block (type {BT_EPB:#010X}): {reason}"),
    };
    if body.len() < 20 {
        return skip(format!("body too short ({} bytes)", body.len()));
    }
    let iface_id = rd_u32(body, 0, big) as usize;
    let ts_high = rd_u32(body, 4, big);
    let ts_low = rd_u32(body, 8, big);
    let cap_len = rd_u32(body, 12, big) as usize;
    if cap_len > body.len() - 20 {
        return skip(format!(
            "cap_len {cap_len} overruns its block ({} body bytes)",
            body.len()
        ));
    }
    let Some(iface) = interfaces.get(iface_id) else {
        return skip(format!("references undeclared interface {iface_id}"));
    };
    if !iface.ethernet {
        return skip(format!(
            "packet on non-Ethernet interface (link type {})",
            iface.linktype
        ));
    }
    let ticks = (u64::from(ts_high) << 32) | u64::from(ts_low);
    let ts = ticks as f64 / iface.ticks_per_sec;
    SourceItem::Frame(StreamFrame {
        index: i,
        ts,
        // The body starts 8 bytes into its block, the frame 20 into that.
        data: 28..28 + cap_len,
    })
}

// ---------------------------------------------------------------------------
// Synthesis: classic → pcapng, for fixtures and exotic-capture repros.
// ---------------------------------------------------------------------------

/// Rewrites a classic capture into pcapng framing (SHB, one Ethernet
/// IDB, and one EPB per record), in the chosen byte order and
/// `if_tsresol` resolution.
///
/// The pcapng twin of [`caai_capture::pcap::byteswap_capture`]: real
/// pcapng files come from other tools, and this synthesizes
/// endianness/resolution variants from the canonical renderer output so
/// the reader can be exercised without them. Stops at the first
/// ill-framed classic record.
pub fn classic_to_pcapng(src: &[u8], big_endian: bool, tsresol: u8) -> Vec<u8> {
    let w32 = |out: &mut Vec<u8>, v: u32| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        });
    };
    let w16 = |out: &mut Vec<u8>, v: u16| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        });
    };
    let mut out = Vec::with_capacity(src.len() + 128);

    // SHB: magic, length 28, byte-order magic, version 1.0, unspecified
    // section length.
    out.extend_from_slice(&SHB_MAGIC);
    w32(&mut out, 28);
    w32(&mut out, BYTE_ORDER_MAGIC);
    w16(&mut out, 1);
    w16(&mut out, 0);
    w32(&mut out, 0xFFFF_FFFF);
    w32(&mut out, 0xFFFF_FFFF);
    w32(&mut out, 28);

    // IDB: Ethernet, generous snaplen, if_tsresol option + opt_endofopt.
    w32(&mut out, BT_IDB);
    w32(&mut out, 32);
    w16(&mut out, 1); // LINKTYPE_ETHERNET
    w16(&mut out, 0); // reserved
    w32(&mut out, caai_capture::pcap::MAX_INCL_LEN);
    w16(&mut out, OPT_IF_TSRESOL);
    w16(&mut out, 1);
    out.extend_from_slice(&[tsresol, 0, 0, 0]); // value + padding
    w16(&mut out, 0); // opt_endofopt
    w16(&mut out, 0);
    w32(&mut out, 32);

    let Ok(mut reader) = caai_capture::pcap::PcapReader::new(src) else {
        return out;
    };
    let ticks_per_sec = tsresol_ticks(tsresol);
    while let Some(Ok(rec)) = reader.next() {
        let ticks = (rec.ts * ticks_per_sec).round() as u64;
        let padded = (rec.data.len() + 3) & !3;
        let total = (32 + padded) as u32;
        w32(&mut out, BT_EPB);
        w32(&mut out, total);
        w32(&mut out, 0); // interface 0
        w32(&mut out, (ticks >> 32) as u32);
        w32(&mut out, ticks as u32);
        w32(&mut out, rec.data.len() as u32);
        w32(&mut out, rec.orig_len);
        out.extend_from_slice(rec.data);
        out.extend(std::iter::repeat_n(0u8, padded - rec.data.len()));
        w32(&mut out, total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CaptureSource, PcapStream, StallPolicy};
    use caai_capture::pcap::PcapWriter;
    use std::io::Cursor;

    fn classic(frames: &[(f64, &[u8])]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (ts, data) in frames {
            w.write_frame(*ts, data).unwrap();
        }
        w.finish().unwrap()
    }

    fn drain(buf: &[u8]) -> (Vec<StreamFrame>, Vec<(u64, String)>, Option<SourceError>) {
        let mut src = PcapStream::new(Cursor::new(buf), StallPolicy::Eof);
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
    fn pcapng_roundtrips_the_classic_frames() {
        let le = classic(&[(1.25, b"alpha"), (2.5, &[9u8; 60])]);
        for big in [false, true] {
            let ng = classic_to_pcapng(&le, big, 6);
            let (frames, skips, err) = drain(&ng);
            assert!(err.is_none(), "{err:?}");
            assert!(skips.is_empty(), "{skips:?}");
            assert_eq!(frames.len(), 2);
            assert_eq!(&*frames[0].data, b"alpha" as &[u8]);
            assert!((frames[0].ts - 1.25).abs() < 2e-6, "{}", frames[0].ts);
            assert!((frames[1].ts - 2.5).abs() < 2e-6);
        }
    }

    #[test]
    fn interface_timestamp_resolution_is_honored() {
        let le = classic(&[(7.5, b"tick")]);
        // 10^-3 (milliseconds), 10^-9 (nanoseconds), 2^-20 (binary µs).
        for resol in [3u8, 9, 0x80 | 20] {
            let ng = classic_to_pcapng(&le, false, resol);
            let (frames, _, err) = drain(&ng);
            assert!(err.is_none(), "resol {resol}: {err:?}");
            let tick = 1.0 / tsresol_ticks(resol);
            assert!(
                (frames[0].ts - 7.5).abs() <= tick,
                "resol {resol}: ts {} off by more than one tick",
                frames[0].ts
            );
        }
    }

    #[test]
    fn unknown_blocks_are_skipped_and_reported() {
        let le = classic(&[(1.0, b"one"), (2.0, b"two")]);
        let mut ng = classic_to_pcapng(&le, false, 6);
        // Splice a well-framed block of unknown type 0x0BAD between the
        // two packet blocks (after SHB 28 + IDB 32 + first EPB).
        let first_epb_total = u32::from_le_bytes(ng[64..68].try_into().unwrap()) as usize;
        let at = 60 + first_epb_total;
        let mut alien = Vec::new();
        alien.extend_from_slice(&0x0BADu32.to_le_bytes());
        alien.extend_from_slice(&16u32.to_le_bytes());
        alien.extend_from_slice(&[0xEE; 4]);
        alien.extend_from_slice(&16u32.to_le_bytes());
        ng.splice(at..at, alien);
        let (frames, skips, err) = drain(&ng);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(frames.len(), 2, "both real packets survive");
        assert_eq!(skips.len(), 1);
        assert!(
            skips[0].1.contains("unknown pcapng block type"),
            "{skips:?}"
        );
    }

    #[test]
    fn simple_packet_blocks_are_reported_not_fatal() {
        let le = classic(&[(1.0, b"real")]);
        let mut ng = classic_to_pcapng(&le, false, 6);
        // SPB: type 3, total 16, orig_len 4 + no usable timestamp.
        ng.extend_from_slice(&BT_SPB.to_le_bytes());
        ng.extend_from_slice(&16u32.to_le_bytes());
        ng.extend_from_slice(&4u32.to_le_bytes());
        ng.extend_from_slice(&16u32.to_le_bytes());
        let (frames, skips, err) = drain(&ng);
        assert!(err.is_none());
        assert_eq!(frames.len(), 1);
        assert_eq!(skips.len(), 1);
        assert!(skips[0].1.contains("no timestamp"));
    }

    #[test]
    fn non_ethernet_interface_skips_its_packets_only() {
        let le = classic(&[(1.0, b"eth")]);
        let mut ng = classic_to_pcapng(&le, false, 6);
        // Append a second IDB with LINKTYPE_LINUX_SLL (113) and an EPB on
        // it; the Ethernet packet must still parse.
        let mut idb = Vec::new();
        idb.extend_from_slice(&BT_IDB.to_le_bytes());
        idb.extend_from_slice(&20u32.to_le_bytes());
        idb.extend_from_slice(&113u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&65535u32.to_le_bytes());
        idb.extend_from_slice(&20u32.to_le_bytes());
        ng.extend_from_slice(&idb);
        let mut epb = Vec::new();
        epb.extend_from_slice(&BT_EPB.to_le_bytes());
        epb.extend_from_slice(&36u32.to_le_bytes());
        epb.extend_from_slice(&1u32.to_le_bytes()); // the SLL interface
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&4u32.to_le_bytes());
        epb.extend_from_slice(&4u32.to_le_bytes());
        epb.extend_from_slice(&[1, 2, 3, 4]);
        epb.extend_from_slice(&36u32.to_le_bytes());
        ng.extend_from_slice(&epb);
        let (frames, skips, err) = drain(&ng);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(frames.len(), 1);
        assert_eq!(skips.len(), 1);
        assert!(skips[0].1.contains("non-Ethernet"), "{skips:?}");
    }

    #[test]
    fn corrupt_block_length_is_fatal() {
        let le = classic(&[(1.0, b"x")]);
        let mut ng = classic_to_pcapng(&le, false, 6);
        // Smash the EPB's total_len to something impossible.
        ng[64..68].copy_from_slice(&13u32.to_le_bytes()); // not a multiple of 4
        let (_, _, err) = drain(&ng);
        assert!(
            err.unwrap().reason.contains("block length"),
            "corrupt len must be fatal"
        );
    }

    #[test]
    fn missing_byte_order_magic_is_fatal() {
        let mut ng = Vec::new();
        ng.extend_from_slice(&SHB_MAGIC);
        ng.extend_from_slice(&28u32.to_le_bytes());
        ng.extend_from_slice(&[0u8; 20]);
        let (_, _, err) = drain(&ng);
        assert!(err.unwrap().reason.contains("byte-order magic"));
    }
}
