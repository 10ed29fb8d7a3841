//! `repro check`: the paper's numbers as a gate.
//!
//! `REPRO_EXPECT.json` at the repository root holds one expectation per
//! pinned number. Each names an experiment's number
//! (`<experiment>.<number>`), the paper's value where the paper gives one,
//! the value this repository reproduces, a tolerance, and, wherever the
//! repository's value differs from the paper's by more than the tolerance,
//! the reason. A claim such as "the forest is at least as accurate as every
//! other model" is pinned as a number whose tolerance band starts at the
//! claim's bound, or as a 1/0 number where the claim is yes or no.
//!
//! `check` runs every experiment the file names at paper scale, each on its
//! own scoped thread (each seeds its own RNG, so running them together
//! changes no number), and holds every measured value to `repo ± tol`.

use crate::plot::table;
use crate::{Scale, EXPERIMENTS};
use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};

/// The committed expectations.
pub const EXPECT_JSON: &str = include_str!("../../../REPRO_EXPECT.json");

/// One pinned number.
#[derive(Debug, Deserialize)]
pub struct Expectation {
    /// `<experiment>.<number>`.
    pub id: String,
    /// The paper's value, where the paper gives one.
    pub paper: Option<f64>,
    /// The value this repository reproduces.
    pub repo: f64,
    /// How far a measured value may stray from `repo`.
    pub tol: f64,
    /// Why `repo` differs from `paper`.
    pub reason: Option<String>,
}

#[derive(Deserialize)]
struct ExpectFile {
    expectations: Vec<Expectation>,
}

/// Parses expectations and checks the file itself: ids are unique, and
/// every entry whose repository value is outside the tolerance of the
/// paper's value carries a reason.
pub fn parse(json: &str) -> Result<Vec<Expectation>, String> {
    let file: ExpectFile = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let mut ids = BTreeSet::new();
    for e in &file.expectations {
        if !ids.insert(e.id.as_str()) {
            return Err(format!("duplicate id {}", e.id));
        }
        let differs = e.paper.is_some_and(|p| (p - e.repo).abs() > e.tol);
        if differs && e.reason.as_deref().is_none_or(str::is_empty) {
            return Err(format!("{} differs from the paper without a reason", e.id));
        }
    }
    Ok(file.expectations)
}

/// How one expectation fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measured value is within `repo ± tol`.
    Pass,
    /// The measured value is outside it.
    Fail,
    /// No experiment produced the number.
    Missing,
}

/// One expectation held to its measurement.
#[derive(Debug)]
pub struct Row<'a> {
    /// The expectation.
    pub expect: &'a Expectation,
    /// The measured value, if an experiment produced it.
    pub measured: Option<f64>,
    /// The outcome.
    pub verdict: Verdict,
}

/// Holds every expectation to the number of the same id in `measured`.
pub fn compare<'a>(expect: &'a [Expectation], measured: &BTreeMap<String, f64>) -> Vec<Row<'a>> {
    expect
        .iter()
        .map(|e| {
            let measured = measured.get(&e.id).copied();
            let verdict = match measured {
                None => Verdict::Missing,
                Some(v) if (v - e.repo).abs() <= e.tol => Verdict::Pass,
                Some(_) => Verdict::Fail,
            };
            Row {
                expect: e,
                measured,
                verdict,
            }
        })
        .collect()
}

/// Runs every experiment that an expectation names, at paper scale and one
/// scoped thread each, and returns all their numbers by id. An experiment
/// that panics produces no numbers, so its expectations read as missing.
pub fn measure(expect: &[Expectation]) -> BTreeMap<String, f64> {
    let named: BTreeSet<&str> = expect
        .iter()
        .filter_map(|e| e.id.split('.').next())
        .collect();
    std::thread::scope(|s| {
        let runs: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| named.contains(e.0))
            .map(|&(name, experiment)| (name, s.spawn(move || experiment(Scale::Paper))))
            .collect();
        let mut measured = BTreeMap::new();
        for (name, run) in runs {
            for (number, value) in run.join().map(|o| o.numbers).unwrap_or_default() {
                measured.insert(format!("{name}.{number}"), value);
            }
        }
        measured
    })
}

/// The check's report: one row per expectation (id, paper value, repo
/// value ± tolerance, measured value, verdict), the reasons, and a tally.
pub fn render(rows: &[Row]) -> String {
    let num = |v: f64| {
        format!("{v:.3}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_owned()
    };
    let opt = |v: Option<f64>| v.map_or("-".to_owned(), num);
    let mut body = Vec::new();
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Pass => "ok",
            Verdict::Fail => "FAIL",
            Verdict::Missing => "MISSING",
        };
        let e = r.expect;
        let repo = format!("{} ± {}", num(e.repo), num(e.tol));
        body.push(vec![
            e.id.clone(),
            opt(e.paper),
            repo,
            opt(r.measured),
            verdict.to_owned(),
        ]);
    }
    let mut out = table(
        &["id", "paper", "repo", "measured", "verdict"].map(String::from),
        &body,
    );
    for e in rows.iter().map(|r| r.expect) {
        if let Some(reason) = &e.reason {
            out += &format!("{}: {reason}\n", e.id);
        }
    }
    let held = rows.iter().filter(|r| r.verdict == Verdict::Pass).count();
    out + &format!("{held} of {} expectations hold\n", rows.len())
}
#[cfg(test)]
mod tests {
    use super::*;

    fn expectations(entries: &str) -> Result<Vec<Expectation>, String> {
        parse(&format!("{{\"expectations\": [{entries}]}}"))
    }

    fn measured(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(id, v)| (id.to_owned(), v)).collect()
    }

    #[test]
    fn a_value_inside_its_tolerance_passes() {
        let e = expectations(
            r#"{"id": "t.x", "paper": 96.98, "repo": 95.94, "tol": 0.25, "reason": "r"}"#,
        )
        .unwrap();
        let rows = compare(&e, &measured(&[("t.x", 96.1)]));
        assert_eq!(rows[0].verdict, Verdict::Pass);
        assert_eq!(rows[0].measured, Some(96.1));
    }

    #[test]
    fn a_value_outside_its_tolerance_fails() {
        let e = expectations(r#"{"id": "t.x", "repo": 1, "tol": 0}"#).unwrap();
        let rows = compare(&e, &measured(&[("t.x", 0.0)]));
        assert_eq!(rows[0].verdict, Verdict::Fail);
        assert!(render(&rows).contains("FAIL"));
        assert!(render(&rows).ends_with("0 of 1 expectations hold\n"));
    }

    #[test]
    fn an_expectation_no_experiment_produced_is_missing() {
        let e = expectations(r#"{"id": "t.x", "repo": 1, "tol": 0}"#).unwrap();
        let rows = compare(&e, &measured(&[("t.y", 1.0)]));
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert!(render(&rows).contains("MISSING"));
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let err = expectations(
            r#"{"id": "t.x", "repo": 1, "tol": 0}, {"id": "t.x", "repo": 2, "tol": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate id t.x"), "{err}");
    }

    #[test]
    fn a_difference_from_the_paper_needs_a_reason() {
        let err = expectations(r#"{"id": "t.x", "paper": 2, "repo": 1, "tol": 0.5}"#).unwrap_err();
        assert!(err.contains("without a reason"), "{err}");
        assert!(expectations(r#"{"id": "t.x", "paper": 1.2, "repo": 1, "tol": 0.5}"#).is_ok());
    }

    #[test]
    fn an_id_that_names_no_experiment_runs_nothing() {
        let e = expectations(r#"{"id": "no_such_experiment.x", "repo": 1, "tol": 0}"#).unwrap();
        assert!(measure(&e).is_empty());
    }
}
