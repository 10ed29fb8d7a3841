//! # caai-bench
//!
//! Criterion benchmark harness for the CAAI reproduction. The library
//! itself is empty — everything lives in `benches/`:
//!
//! * `algorithms` — per-ACK and per-loss-event cost of all 16 congestion
//!   avoidance algorithms;
//! * `trace_gathering` — CAAI Step 1: one emulated connection per
//!   iteration, across algorithms, environments, `w_max` rungs and path
//!   conditions;
//! * `feature_extraction` — CAAI Step 2: β/G3/G6 extraction and the
//!   ACK-loss estimator;
//! * `forest` — CAAI Step 3: random forest fit/predict across the Fig. 12
//!   parameter axes, plus the §VI classifier line-up (forest vs kNN,
//!   naive Bayes, MLP, SVM) on wall-clock cost;
//! * `census` — end-to-end census throughput and thread scaling.
//!
//! Accuracy-oriented ablations (environment pair vs A alone, feature-set
//! and ladder ablations, classifier accuracy comparison) are one-shot
//! studies, not timings; they are the `ablation_*` and `model_comparison`
//! experiments of `caai-repro`'s `repro` binary, and `repro check` pins
//! their numbers against REPRO_EXPECT.json.

#![forbid(unsafe_code)]
