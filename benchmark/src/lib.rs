//! # caai-benchmark
//!
//! The benchmark `BENCHMARK.json` at the repository root names: four
//! workloads that run the system end to end the way the `caai` CLI runs
//! it, and a traced pass that breaks the same runs down layer by layer.
//! `README.md` beside this crate says what each workload and metric is
//! for; the modules are
//!
//! * [`inputs`] — seeded generators for the population, the loopback
//!   fleet and target list, and the interleaved capture, with the
//!   references the correctness checks compare against;
//! * [`workloads`] — the four workloads and the end-to-end measuring
//!   loop (set-ups, warm-ups, timed repetitions of a fixed input);
//! * [`seams`] — timing wrappers for the program's public traits
//!   (`ProbeTransport`, `ResultSink`) and in-memory writers;
//! * [`layers`] — the traced pass behind the per-layer table;
//! * [`report`] — metric definitions, result files, `compare`;
//! * [`stats`], [`scratch`] — summaries, process readings, temp files.
//!
//! Everything reaches the program through the public items of the
//! workspace crates; nothing here adds a span, counter, flag or
//! environment variable to it.

#![warn(missing_docs)]

pub mod inputs;
pub mod layers;
pub mod report;
pub mod scratch;
pub mod seams;
pub mod stats;
pub mod workloads;
