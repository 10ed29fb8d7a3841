//! Capture ingestion for CAAI: one streaming pipeline, whatever the
//! source.
//!
//! Every product path from capture bytes to verdicts runs
//! [`pipeline::run_obs`]; only its timeout rule and its source differ.
//! The pipeline works along three axes:
//!
//! * **containers** — [`PcapStream`] reads classic pcap *and* pcapng
//!   (section header / interface description / enhanced packet blocks,
//!   either endianness, per-interface timestamp resolution) behind
//!   `caai_capture`'s [`CaptureSource`] trait, re-exported here;
//! * **liveness** — a source can be a pipe, a FIFO, or a capture file
//!   that is still being written: [`StallPolicy::Follow`] polls past EOF
//!   instead of stopping, so verdicts stream out while packets stream in;
//! * **bounded memory** — [`pipeline::run`] reassembles on a timeout
//!   wheel with bounded per-flow state, in one loop on the caller, and
//!   never holds the capture itself.
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
//! The pipeline runs `caai_capture`'s one frame drain
//! ([`caai_capture::source::drain_segments`]), so it shares its error
//! type ([`CaptureError`]) and its rule: an error before the container
//! header is read is the run's `Err`, any later one is `truncated`.
//!
//! Offline identification is the same loop run to EOF under
//! [`StreamConfig::whole_capture`]: no flow timeout, no session timeout,
//! no per-flow event cap. [`offline`] is its bytes → verdicts entry
//! point: it sniffs the container and runs a [`PcapStream`] (pcapng) or
//! the zero-copy `PcapReader` (classic) through the pipeline, so
//! `caai identify --pcap` accepts either container. `caai identify
//! --pcap FILE|-` streams the file through [`open_path`] the same way,
//! in memory bounded by its flows, not its size. The whole-capture fold
//! [`Reassembly`] stays in `caai_capture` as the reference these
//! verdicts are checked against.
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
