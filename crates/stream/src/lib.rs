//! Live streaming capture ingestion for CAAI.
//!
//! The offline path (`caai-capture`) wants the whole capture in memory
//! before it reassembles a single flow. This crate removes that
//! restriction along three axes:
//!
//! * **containers** — [`PcapStream`] reads classic pcap *and* pcapng
//!   (section header / interface description / enhanced packet blocks,
//!   either endianness, per-interface timestamp resolution) behind
//!   `caai_capture`'s [`CaptureSource`] trait, re-exported here;
//! * **liveness** — a source can be a pipe, a FIFO, or a capture file
//!   that is still being written: [`StallPolicy::Follow`] polls past EOF
//!   instead of stopping, so verdicts stream out while packets stream in;
//! * **bounded memory** — [`pipeline::run`] reassembles on a timeout
//!   wheel with bounded per-flow state, in one loop on the caller,
//!   producing verdicts identical to the offline path's.
//!
//! The dataflow, stage by stage:
//!
//! ```text
//! file/FIFO/stdin ─► PcapStream (pcap|pcapng framing, follow/poll)
//!                 ─► decode (each frame in the source's buffer)
//!                 ─► flow table (FlowBuilder per flow, timeout wheel)
//!                 ─► session table (ladder replay, classifier)
//!                 ─► verdict callback (stdout / JSONL / census sink)
//! ```
//!
//! Both paths run `caai_capture`'s one frame drain
//! ([`caai_capture::source::drain_segments`]), so they share its error
//! type ([`CaptureError`]) and its rule: an error before the container
//! header is read is the run's `Err`, any later one is `truncated`.
//!
//! [`offline`] is the one bytes → verdicts entry point: it sniffs the
//! container and drains a [`PcapStream`] (pcapng) or the zero-copy
//! `PcapReader` (classic) into the whole-capture [`Reassembly`], so
//! `caai identify --pcap` accepts either container.
//!
//! [`Reassembly`]: caai_capture::flow::Reassembly

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod offline;
pub mod pcapng;
pub mod pipeline;
pub mod source;

pub use caai_capture::{CaptureError, CaptureSource, SourceItem, StreamFrame};
pub use offline::{identify_bytes, identify_bytes_obs, CaptureVerdicts};
pub use pcapng::classic_to_pcapng;
pub use pipeline::{run, run_obs, StreamConfig, StreamStats};
pub use source::{open_path, FollowConfig, OpenedSource, PcapStream, StallPolicy};
