//! # caai-capture — packet-capture ingestion for CAAI
//!
//! The simulated pipeline classifies servers it probes itself; this crate
//! closes the loop with the wire, in both directions:
//!
//! * **read**: the frame-source contract every capture reader implements
//!   and the one drain that feeds every flow table, with its one error
//!   type and its one header-versus-truncation rule ([`source`]); a
//!   zero-copy classic-pcap reader ([`pcap`]), Ethernet/IPv4/TCP decode
//!   ([`packet`]), TCP flow reassembly keyed on the 4-tuple ([`flow`]),
//!   and per-RTT window
//!   reconstruction ([`reconstruct`]) that turns a recorded prober↔server
//!   exchange back into the exact [`WindowTrace`]/[`TracePair`] the
//!   prober measured — pre/post-timeout split at the detected RTO,
//!   `w_max` rung pinned at the ACK-withholding point — feeding straight
//!   into feature extraction and the random forest ([`identify`]);
//! * **write**: a pcap renderer ([`render`]) that replays a simulated
//!   probe session into a byte-valid capture (handshakes, checksums, FIN
//!   semantics), which makes the whole subsystem verifiable offline:
//!   simulate → write → ingest must reproduce the identical trace and
//!   the identical identification.
//!
//! ```
//! use caai_capture::CaptureRenderer;
//! use caai_core::prober::{Prober, ProberConfig};
//! use caai_core::server_under_test::ServerUnderTest;
//! use caai_congestion::AlgorithmId;
//! use caai_netem::PathConfig;
//!
//! // Render a probe of a (simulated) RENO server into a capture...
//! let mut renderer = CaptureRenderer::new();
//! let prober = Prober::new(ProberConfig::default());
//! let mut rng = caai_netem::rng::seeded(7);
//! let direct = renderer.render_session(
//!     [192, 0, 2, 1],
//!     [198, 51, 100, 1],
//!     &ServerUnderTest::ideal(AlgorithmId::Reno),
//!     &prober,
//!     &PathConfig::clean(),
//!     &mut rng,
//! ).expect("in-memory render cannot fail");
//! let capture = renderer.to_bytes();
//!
//! // ...and reconstruct the identical trace pair from the bytes alone.
//! let reassembly = caai_capture::reassemble(&capture).unwrap();
//! let sessions = caai_capture::sessions(&reassembly, &[512, 256, 128, 64]);
//! let outcome = caai_capture::session_outcome(&sessions[0], &[512, 256, 128, 64]);
//! assert_eq!(outcome.pair, direct.pair);
//! ```
//!
//! To go from bytes of either container to verdicts in one call, use
//! `caai_stream::identify_bytes`: the streaming pipeline run to the end
//! of the capture, the one ingestion path of the product. The
//! whole-capture fold used above ([`reassemble`], [`reassemble_source`],
//! [`identify_reassembly`]) is kept as the reference that path is
//! checked against.
//!
//! [`WindowTrace`]: caai_core::trace::WindowTrace
//! [`TracePair`]: caai_core::trace::TracePair

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod identify;
pub mod packet;
pub mod pcap;
pub mod reconstruct;
pub mod render;
pub mod source;

pub use flow::{reassemble, reassemble_source, Flow, FlowBuilder, FlowKey, Reassembly};
pub use identify::{identify_reassembly, session_report, SessionReport};
pub use packet::{decode, encode, DecodeError, FrameSpec, TcpSegmentView};
pub use pcap::{PcapReader, PcapRecord, PcapWriter};
pub use reconstruct::{
    observe_connection, session_outcome, sessions, ConnectionObservation, ProbeSession,
    DEFAULT_LADDER,
};
pub use render::{CaptureRenderer, CAPTURE_EPOCH};
pub use source::{CaptureError, CaptureSource, SourceItem, StreamFrame};
