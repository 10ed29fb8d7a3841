//! # caai — TCP Congestion Avoidance Algorithm Identification
//!
//! Facade crate for the CAAI reproduction (Yang, Shao, Luo, Xu, Deogun, Lu:
//! "TCP Congestion Avoidance Algorithm Identification", ICDCS'11 /
//! IEEE/ACM Transactions on Networking 22(4), 2014).
//!
//! CAAI actively identifies which TCP congestion avoidance algorithm a
//! remote web server runs by emulating two network environments purely
//! through ACK timing, extracting a seven-element feature vector from the
//! observed window traces, and classifying it with a random forest.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`congestion`] — the 14 fingerprinted algorithms (+2 extensions);
//! * [`netem`] — path emulation and the measured-network-condition model;
//! * [`tcpsim`] — the simulated TCP web-server sender;
//! * [`webmodel`] — the synthetic Internet server population;
//! * [`ml`] — random forest and baseline classifiers;
//! * [`core`] — the CAAI pipeline itself (prober → features → classifier)
//!   and the census driver;
//! * [`engine`] — the Internet-scale census engine: constant-memory
//!   streaming probe scheduler with checkpoint/resume, shard fan-out and
//!   merge, and budgets;
//! * [`capture`] — packet-capture ingestion and rendering: pcap ⇄ flow
//!   reassembly ⇄ window traces, so recorded traffic feeds the same
//!   classifier as the synthetic census;
//! * [`stream`] — live streaming ingestion: pcapng + classic pcap through
//!   one source trait, follow mode over growing files/FIFOs/stdin, and
//!   the one-loop reassembly pipeline with bounded memory and verdicts
//!   identical to the offline path's;
//! * [`net`] — the real-network probe transport: a dependency-free
//!   epoll/poll reactor driving the ACK-withholding ladder over live
//!   TCP sockets, `host:port` target-list ingestion, token-bucket rate
//!   limiting, and in-repo emulated loopback servers so tests never
//!   touch the real network;
//! * [`obs`] — structured events and lock-free metrics: the
//!   [`obs::Subscriber`] trait every pipeline stage reports into, counters
//!   and mergeable histograms, and the `caai-metrics-v1` JSONL snapshot
//!   schema. With the [`obs::NullSubscriber`] the whole layer compiles to
//!   nothing.
//!
//! ## Quickstart
//!
//! ```
//! use caai::core::prober::{Prober, ProberConfig};
//! use caai::core::server_under_test::ServerUnderTest;
//! use caai::congestion::AlgorithmId;
//! use caai::netem::path::PathConfig;
//!
//! // A web server whose TCP algorithm we pretend not to know.
//! let server = ServerUnderTest::ideal(AlgorithmId::CubicV2);
//! let prober = Prober::new(ProberConfig::default());
//! let mut rng = caai::netem::rng::seeded(7);
//! let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
//! assert!(outcome.pair.is_some());
//! ```

pub use caai_capture as capture;
pub use caai_congestion as congestion;
pub use caai_core as core;
pub use caai_engine as engine;
pub use caai_ml as ml;
pub use caai_net as net;
pub use caai_netem as netem;
pub use caai_obs as obs;
pub use caai_stream as stream;
pub use caai_tcpsim as tcpsim;
pub use caai_webmodel as webmodel;
