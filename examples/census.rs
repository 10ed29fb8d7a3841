//! A miniature Internet census on the streaming engine: generate a
//! synthetic web-server population, probe it with the full CAAI protocol
//! through `caai-engine`'s work-stealing scheduler, and summarize the
//! deployment of congestion avoidance algorithms (the paper's §VII-B).
//!
//! The engine keys every server's probe RNG on `(seed, server id)`, so
//! the report printed here is identical for any worker count — rerun
//! with a different `workers` value to check. The engine itself retains
//! only constant-size aggregates; the per-record drill-down at the end
//! comes from the opt-in [`AggregatingSink`] attached to the run.
//!
//! ```sh
//! cargo run --release --example census
//! ```

use caai::core::census::{Census, Verdict};
use caai::core::classify::CaaiClassifier;
use caai::core::prober::ProberConfig;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::{AggregatingSink, CensusEngine, EngineConfig};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::webmodel::PopulationConfig;
use std::time::Instant;

fn main() {
    let mut rng = seeded(2);
    let db = ConditionDb::paper_2011();

    println!("training classifier ...");
    let training = build_training_set(&TrainingConfig::quick(8), &db, &mut rng);
    let classifier = CaaiClassifier::train(&training, &mut rng);

    let n = 1_500;
    println!("probing {n} synthetic web servers ...");
    let servers = PopulationConfig::small(n).generate(&mut rng);
    let census = Census::new(classifier, db, ProberConfig::default());
    let engine = CensusEngine::new(
        census,
        EngineConfig {
            seed: 42,
            workers: 4,
            ..EngineConfig::default()
        },
    );
    let mut agg = AggregatingSink::new();
    let started = Instant::now();
    let outcome = engine
        .run(&servers, &mut [&mut agg], None)
        .expect("in-memory census cannot hit I/O errors");
    println!(
        "engine: {:.0} probes/s over {} workers",
        f64::from(n) / started.elapsed().as_secs_f64(),
        engine.config().workers
    );
    let report = outcome.report;

    let valid = report.valid_total();
    println!(
        "\nvalid traces: {valid} / {} ({:.0}%)",
        report.total,
        100.0 * valid as f64 / report.total as f64
    );

    println!("\nTCP algorithm census (percent of valid-trace servers):");
    for family in [
        "BIC/CUBIC",
        "CTCP",
        "RENO",
        "RC-small",
        "HTCP",
        "HSTCP",
        "ILLINOIS",
        "STCP",
        "VEGAS",
        "VENO",
        "WESTWOOD+",
        "YEAH",
    ] {
        let share = report.family_percent(family);
        if share > 0.0 {
            println!(
                "  {family:<10} {share:>6.2}%  {}",
                "#".repeat((share / 2.0) as usize)
            );
        }
    }
    println!("  {:<10} {:>6.2}%", "Unsure", report.unsure_percent());

    // Sanity: the majority of flows are no longer RENO — the paper's
    // headline conclusion.
    let reno_max = report.family_percent("RENO") + report.family_percent("RC-small");
    println!(
        "\nRENO upper bound: {reno_max:.1}% — the Internet has moved to \
         heterogeneous congestion control."
    );

    // Which rungs did probes settle at? The engine's report is
    // record-free, so this drill-down reads the aggregating sink.
    let mut by_rung = std::collections::BTreeMap::new();
    for r in agg.records() {
        if let Some(w) = r.verdict.wmax() {
            *by_rung.entry(w).or_insert(0usize) += 1;
        }
    }
    println!("\nw_max rungs used: {by_rung:?}");
    let identified = agg
        .records()
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Identified(..)))
        .count();
    println!(
        "ground-truth accuracy over {} confident identifications: {:.1}%",
        identified,
        100.0 * report.ground_truth_accuracy()
    );
}
