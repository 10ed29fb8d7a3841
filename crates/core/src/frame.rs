//! The probe protocol's frames, as values.
//!
//! The §IV walk is a lockstep exchange in virtual time: every client
//! frame states `now`, and the server's TCP simulation advances to
//! exactly that instant. The unit is a round, not a packet, and both
//! directions carry a round as [`Run`]s: a round's data is one
//! [`Burst`](ServerFrame::Burst) and its ACK trains are one
//! [`Acks`](ClientFrame::Acks). [`crate::sansio`]'s two cores speak
//! these; the simulator passes them from one core to the other in
//! memory, and `caai-net` frames them onto sockets (its codec checks
//! every field of a decoded frame against the same caps).
//!
//! A round's ACKs travel in a frame of their own, not in the `Xmit` that
//! asks for the next round: a closing round has no `Xmit`, yet its ACKs
//! must still reach the server before [`ServerCore::close`] deposits the
//! connection's ssthresh in its cache, and must reach the prober's tap,
//! which records every ACK sent. There is no close frame to carry them,
//! so folding them into `Xmit` would leave two ways to send ACKs.
//!
//! [`ServerCore::close`]: crate::sansio::ServerCore::close

use crate::ladder::Run;
use std::fmt;
use std::ops::RangeInclusive;

/// Hard cap on the values of one run and of one decoded `Burst` or
/// `Acks` — far above any real window (the ladder tops out at `w_max` 512),
/// small enough that a hostile length can never balloon an allocation
/// or spin a loop.
pub const MAX_BURST_SEQS: usize = 1 << 16;

/// A frame the prober (client) sends.
#[derive(Debug, Clone, PartialEq)]
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
    /// Deliver one cumulative ACK: the F-RTO counter-measure duplicate
    /// (`rtt == 0.0`), the one ACK the ladder sends outside a round's
    /// [`Acks`](ClientFrame::Acks).
    Ack {
        /// Virtual time of delivery.
        now: f64,
        /// Cumulative acknowledgement, packets.
        cum_ack: u64,
        /// RTT sample carried by the ACK (`0.0` = duplicate).
        rtt: f64,
    },
    /// Deliver a round's ACK trains: for each run in order, the
    /// cumulative ACKs `first`, `first + 1`, …, `first + len - 1`, each
    /// at `now` and each carrying `rtt` — to the server exactly those
    /// single [`Ack`](ClientFrame::Ack)s.
    Acks {
        /// Virtual time of delivery, shared by the whole round.
        now: f64,
        /// RTT sample every ACK of the round carries.
        rtt: f64,
        /// The trains, each `1..=MAX_BURST_SEQS` ACKs long. A decoded
        /// frame has at least one run, its runs are maximal and they sum
        /// to at most `MAX_BURST_SEQS`; `duplicate` is not on the wire and
        /// is ignored.
        runs: Vec<Run>,
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
    count: u64,
) -> Result<RangeInclusive<u64>, ProtocolError> {
    if count == 0 {
        return Err(format!("empty {what}").into());
    }
    if count > MAX_BURST_SEQS as u64 {
        return Err(format!("{what} count {count} exceeds the cap of {MAX_BURST_SEQS}").into());
    }
    match first.checked_add(count - 1) {
        Some(last) => Ok(first..=last),
        None => Err(format!("{what} first {first} + count {count} overflows u64").into()),
    }
}
