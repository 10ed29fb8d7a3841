//! Structure-aware fuzzing for the capture and stream parsers.
//!
//! A capture that arrives over the wire is attacker-controlled input,
//! and the CAAI tooling promises to *skip and report* hostile bytes,
//! never to panic on them. This crate is the standing check on that
//! promise: a hand-rolled, dependency-free fuzzer (the build
//! environment is offline, so cargo-fuzz/libFuzzer are unavailable)
//! that mutates valid captures along their structural seams and drives
//! them through three parser stacks:
//!
//! * [`targets::Target::Offline`] — `identify_bytes` (the streaming
//!   pipeline run to EOF) against the whole-capture reference: flow
//!   reassembly → ladder reconstruction → verdict;
//! * [`targets::Target::Stream`] — the incremental source (classic and
//!   pcapng framing);
//! * [`targets::Target::Pipeline`] — the streaming pipeline with a
//!   live classifier;
//! * [`targets::Target::TraceReport`] — `--trace` output (Chrome
//!   trace-event JSON) through the `trace-report` salvage reader and
//!   stage analyzer.
//!
//! Everything is deterministic: a crash reproduces from `(seed,
//! iteration)` alone, and its input is written to the regression corpus
//! (`tests/corpus/`), which `cargo test` replays forever after.
//!
//! See `ARCHITECTURE.md` ("Structure-aware fuzzing") for the campaign
//! contract and how the corpus is replayed.

pub mod mutate;
pub mod rng;
pub mod seeds;
pub mod targets;

use rng::SplitMix64;
use targets::{Target, Targets};

/// Tuning for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Mutated inputs to try.
    pub iters: u64,
    /// Master seed: the whole campaign is a pure function of it.
    pub seed: u64,
    /// Run the (much slower) full pipeline target every N-th iteration;
    /// 0 disables it.
    pub pipeline_every: u64,
    /// Hard cap on a mutated input's size.
    pub max_len: usize,
    /// Stop after this many crashes (0 = never stop early).
    pub max_crashes: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 1000,
            seed: 1,
            pipeline_every: 97,
            max_len: seeds::MAX_SEED_LEN * 2,
            max_crashes: 16,
        }
    }
}

/// One panic provoked by a mutated input.
#[derive(Debug)]
pub struct Crash {
    /// Which parser stack panicked.
    pub target: Target,
    /// The iteration that produced the input (with the campaign seed,
    /// this reproduces the exact bytes).
    pub iter: u64,
    /// The input that did it.
    pub input: Vec<u8>,
    /// The panic message.
    pub message: String,
}

/// Campaign totals.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Iterations actually executed.
    pub iters: u64,
    /// Executions per target (one iteration usually runs several).
    pub executions: u64,
    /// Every crash found, in discovery order.
    pub crashes: Vec<Crash>,
}

/// Runs a fuzzing campaign. `progress` is called every few thousand
/// iterations with `(done, executions, crashes_so_far)`.
pub fn fuzz(config: &FuzzConfig, mut progress: impl FnMut(u64, u64, usize)) -> FuzzOutcome {
    let seed_set = seeds::build_seeds();
    let targets = Targets::new();
    let mut rng = SplitMix64::new(config.seed);
    let mut crashes: Vec<Crash> = Vec::new();
    let mut executions = 0u64;
    let mut done = 0u64;

    for iter in 0..config.iters {
        done = iter + 1;

        // Mutate one seed, splicing material from another.
        let base = rng.below(seed_set.len());
        let other = rng.below(seed_set.len());
        let mut input = seed_set[base].bytes.clone();
        mutate::mutate(&mut input, &seed_set[other].bytes, &mut rng);
        input.truncate(config.max_len);

        let mut plan = vec![
            Target::Offline,
            Target::Stream,
            Target::NetTargets,
            Target::NetFrames,
            Target::Ladder,
            Target::TraceReport,
        ];
        if config.pipeline_every > 0 && iter % config.pipeline_every == 0 {
            plan.push(Target::Pipeline);
        }
        for target in plan {
            executions += 1;
            if let Err(message) = targets.run(target, &input) {
                crashes.push(Crash {
                    target,
                    iter,
                    input: input.clone(),
                    message,
                });
                if config.max_crashes > 0 && crashes.len() >= config.max_crashes {
                    progress(done, executions, crashes.len());
                    return FuzzOutcome {
                        iters: done,
                        executions,
                        crashes,
                    };
                }
            }
        }

        if done.is_multiple_of(5000) {
            progress(done, executions, crashes.len());
        }
    }
    progress(done, executions, crashes.len());
    FuzzOutcome {
        iters: done,
        executions,
        crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_reproducible() {
        let config = FuzzConfig {
            iters: 40,
            seed: 7,
            pipeline_every: 0,
            ..FuzzConfig::default()
        };
        let a = fuzz(&config, |_, _, _| {});
        let b = fuzz(&config, |_, _, _| {});
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.crashes.len(), b.crashes.len());
    }
}
