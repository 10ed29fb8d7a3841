//! Integration: the census pipeline over a synthetic population reproduces
//! the structural findings of Table IV.

use caai::core::census::{Census, CensusReport};
use caai::core::classify::CaaiClassifier;
use caai::core::prober::ProberConfig;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::engine::{CensusEngine, EngineConfig};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::obs::VerdictKind;
use caai::webmodel::PopulationConfig;

fn run_census(n: u32, seed: u64) -> CensusReport {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(seed);
    let data = build_training_set(&TrainingConfig::quick(4), &db, &mut rng);
    let classifier = CaaiClassifier::train(&data, &mut rng);
    let servers = PopulationConfig::small(n).generate(&mut rng);
    let census = Census::new(classifier, db, ProberConfig::default());
    let config = EngineConfig {
        seed: seed ^ 0xFF,
        workers: 4,
        ..EngineConfig::default()
    };
    let outcome = CensusEngine::new(census, config).run(&servers, &mut [], None);
    outcome.expect("no sinks, no I/O").report
}

#[test]
fn census_reproduces_the_papers_structural_findings() {
    let report = run_census(400, 900);
    assert_eq!(report.total, 400);

    // Roughly half of all servers yield no valid trace (paper: 53%).
    let invalid: usize = report.invalid.values().sum();
    let invalid_share = invalid as f64 / report.total as f64;
    assert!(
        (0.30..=0.70).contains(&invalid_share),
        "invalid share {invalid_share} out of the plausible band"
    );

    // Of the valid ones, BIC/CUBIC form the plurality and RENO is a
    // minority — the paper's headline.
    let bc = report.family_percent("BIC/CUBIC");
    let reno_upper = report.family_percent("RENO") + report.family_percent("RC-small");
    assert!(bc > 25.0, "BIC/CUBIC share {bc}%");
    assert!(reno_upper < 35.0, "RENO upper bound {reno_upper}%");
    assert!(bc > report.family_percent("RENO"), "BIC/CUBIC beats RENO");

    // A nontrivial share lands at every rung of the w_max ladder.
    assert!(
        report.columns.len() >= 3,
        "rungs used: {:?}",
        report.columns.keys()
    );

    // The top rung dominates (paper: 63.84% at 512).
    let top = report.columns.get(&512).map(|c| c.total()).unwrap_or(0);
    assert!(
        top * 2 >= report.valid_total(),
        "512 rung should hold the majority: {top}/{}",
        report.valid_total()
    );
}

#[test]
fn special_cases_and_unsure_appear_in_a_large_census() {
    let report = run_census(600, 901);
    let specials = report.kind_total(VerdictKind::Special);
    assert!(specials > 0, "quirky servers must surface as special cases");
    // Unsure verdicts exist but stay a small minority of valid traces
    // (paper: 4.32%).
    let unsure = report.unsure_percent();
    assert!(unsure < 25.0, "unsure share {unsure}%");
}

#[test]
fn ground_truth_accuracy_is_high_for_confident_verdicts() {
    let report = run_census(400, 902);
    let identified = report.kind_total(VerdictKind::Identified);
    assert!(identified > 50, "confident verdicts: {identified}");
    let acc = report.ground_truth_accuracy();
    assert!(acc > 0.80, "accuracy over confident verdicts: {acc}");
}

#[test]
fn census_report_percentages_are_consistent() {
    let report = run_census(300, 903);
    let mut family_sum = 0.0;
    for family in [
        "BIC/CUBIC",
        "CTCP",
        "RENO",
        "RC-small",
        "HSTCP",
        "HTCP",
        "ILLINOIS",
        "STCP",
        "VEGAS",
        "VENO",
        "WESTWOOD+",
        "YEAH",
    ] {
        family_sum += report.family_percent(family);
    }
    let specials = report.kind_total(VerdictKind::Special);
    let special_pct = 100.0 * specials as f64 / report.valid_total().max(1) as f64;
    let total = family_sum + special_pct + report.unsure_percent();
    assert!(
        (total - 100.0).abs() < 1.0,
        "family + special + unsure shares must cover the valid servers: {total}"
    );
}
