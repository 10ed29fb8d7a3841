//! Wire units exchanged between the simulated server and the CAAI prober.
//!
//! Sequence numbers are counted in **packets** (MSS units), the same unit
//! in which CAAI measures window sizes; `seq` is the 0-based index of the
//! packet within the byte stream divided by the MSS.

use serde::{Deserialize, Serialize};

/// One TCP data segment (one MSS worth of payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Packet-granularity sequence number (0-based).
    pub seq: u64,
    /// True when this segment is a retransmission.
    pub retransmit: bool,
}

/// One round's transmission as a run: the consecutive sequence numbers
/// `first .. end`, retransmissions below `fresh_from` and new data from
/// there. A sender's burst is always such a run, so nothing is ever
/// allocated for one; iterate `&burst` for the [`Segment`]s it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Burst {
    first: u64,
    fresh_from: u64,
    end: u64,
}

impl Burst {
    /// The burst `first .. first + len` whose leading `retransmits`
    /// segments are retransmissions.
    pub fn new(first: u64, len: u64, retransmits: u64) -> Self {
        Burst {
            first,
            fresh_from: first + retransmits.min(len),
            end: first + len,
        }
    }

    /// Segments in the burst.
    pub fn len(&self) -> usize {
        (self.end - self.first) as usize
    }

    /// True when nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.end == self.first
    }

    /// The sequence numbers sent, in order.
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.first..self.end
    }
}

impl IntoIterator for &Burst {
    type Item = Segment;
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::ops::Range<u64>, std::iter::Repeat<u64>>,
        fn((u64, u64)) -> Segment,
    >;

    fn into_iter(self) -> Self::IntoIter {
        let with_mark = self.seqs().zip(std::iter::repeat(self.fresh_from));
        with_mark.map(|(seq, fresh_from)| Segment {
            seq,
            retransmit: seq < fresh_from,
        })
    }
}

/// One cumulative acknowledgement from the prober.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AckPacket {
    /// Next expected packet: acknowledges every `seq < cum_ack`.
    pub cum_ack: u64,
    /// RTT the server will measure from this ACK, in seconds (the emulated
    /// round-trip: the prober controls it by deferring the ACK).
    pub rtt: f64,
}

impl AckPacket {
    /// A duplicate of a previous cumulative ACK (used by CAAI to defeat
    /// F-RTO, §IV-C). Duplicate ACKs carry no new RTT sample.
    pub fn duplicate(cum_ack: u64) -> Self {
        AckPacket { cum_ack, rtt: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_carries_no_rtt_sample() {
        let a = AckPacket::duplicate(42);
        assert_eq!(a.cum_ack, 42);
        assert_eq!(a.rtt, 0.0);
    }
}
