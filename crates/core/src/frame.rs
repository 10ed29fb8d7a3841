//! The probe protocol's frames, as values.
//!
//! The §IV walk is a lockstep exchange in virtual time: every client
//! frame states `now`, and the server's TCP simulation advances to
//! exactly that instant. The unit is a round, not a packet: a round's ACK
//! train is one [`AckRun`](ClientFrame::AckRun) and a round's data is one
//! [`Burst`](ServerFrame::Burst) of [`Run`]s. [`crate::sansio`]'s two
//! cores speak these; the simulator passes them from one core to the
//! other in memory, and `caai-net` frames them onto sockets (its codec
//! checks every field of a decoded frame against the same caps).

use crate::ladder::Run;
use std::fmt;
use std::ops::RangeInclusive;

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
    /// counter-measure duplicate — the one ACK the ladder sends outside
    /// a run.
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

/// A frame the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake reply: the granted MSS.
    Welcome {
        /// MSS the server granted (proposal rounded up to its minimum).
        granted_mss: u32,
    },
    /// One round's data as it reached the prober, as runs of consecutive
    /// sequence numbers.
    Burst {
        /// The server finished its data and is closing (the wire form
        /// of a server-initiated FIN).
        done: bool,
        /// Packet-unit sequence numbers that arrived this round, in
        /// sequence order; a clean round is the one run sent. No runs: the
        /// server had nothing to send and nothing was in flight. One empty
        /// run: the server sent, and the path lost every packet. A decoded
        /// burst's runs are maximal (a run that continues the one before
        /// it is merged into it), and `duplicate` is not on the wire: it
        /// decodes `false`.
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

/// A peer broke the probe protocol: bytes that do not decode to a frame
/// (truncated, capped, non-finite, trailing), or a frame out of state,
/// a clock moving backwards or an absurd field value. The connection is
/// unusable after one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What the peer did wrong, named precisely.
    pub reason: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ProtocolError {}

impl From<String> for ProtocolError {
    fn from(reason: String) -> Self {
        ProtocolError { reason }
    }
}

/// The values a run names, `first ..= first + count - 1`. Refused
/// while it is still two integers — before anyone loops over it or
/// allocates for it — when it is empty, longer than [`MAX_BURST_SEQS`],
/// or runs past `u64::MAX`. `what` names the run in the reason.
pub fn run_range(
    what: impl fmt::Display,
    first: u64,
    count: u32,
) -> Result<RangeInclusive<u64>, ProtocolError> {
    if count == 0 {
        return Err(format!("empty {what}").into());
    }
    if count as usize > MAX_BURST_SEQS {
        return Err(format!("{what} count {count} exceeds the cap of {MAX_BURST_SEQS}").into());
    }
    match first.checked_add(u64::from(count - 1)) {
        Some(last) => Ok(first..=last),
        None => Err(format!("{what} first {first} + count {count} overflows u64").into()),
    }
}
