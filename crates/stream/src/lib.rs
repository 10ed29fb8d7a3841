//! Live streaming capture ingestion for CAAI.
//!
//! The offline path (`caai-capture`) wants the whole capture in memory
//! before it reassembles a single flow. This crate removes that
//! restriction along three axes:
//!
//! * **containers** — [`PcapStream`] reads classic pcap *and* pcapng
//!   (section header / interface description / enhanced packet blocks,
//!   either endianness, per-interface timestamp resolution) through one
//!   [`CaptureSource`] trait;
//! * **liveness** — a source can be a pipe, a FIFO, or a capture file
//!   that is still being written: [`StallPolicy::Follow`] polls past EOF
//!   instead of stopping, so verdicts stream out while packets stream in;
//! * **parallelism** — [`pipeline::run`] shards packets RSS-style onto
//!   per-core reassembly workers with bounded channels and bounded
//!   per-flow state, producing verdicts byte-identical to the
//!   single-threaded offline path for every worker count.
//!
//! The dataflow, stage by stage:
//!
//! ```text
//! file/FIFO/stdin ─► PcapStream (pcap|pcapng framing, follow/poll)
//!                 ─► dispatcher (decodes each frame in the source's buffer;
//!                    4-tuple hash, batches of headers, granule ticks)
//!                 ─► workers 0..N (FlowBuilder per flow, timeout wheel)
//!                 ─► collector (sessions, ladder replay, classifier)
//!                 ─► verdict callback (stdout / JSONL / census sink)
//! ```
//!
//! [`offline`] closes the loop for whole-file pcapng inputs: it drains a
//! [`CaptureSource`] into the same [`Reassembly`] the offline reader
//! produces, so `caai identify --pcap` accepts either container.
//!
//! [`Reassembly`]: caai_capture::flow::Reassembly

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod offline;
pub mod pcapng;
pub mod pipeline;
pub mod source;

pub use offline::{identify_bytes, identify_bytes_obs, reassemble_source, reassemble_source_obs};
pub use pcapng::classic_to_pcapng;
pub use pipeline::{run, run_obs, StreamConfig, StreamError, StreamStats};
pub use source::{
    open_path, CaptureSource, FollowConfig, OpenedSource, PcapStream, SourceError, SourceItem,
    StallPolicy, StreamFrame,
};
