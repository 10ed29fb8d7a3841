//! Cost of CAAI Step 3 (random forest training and prediction, §VI), plus
//! the classifier-comparison ablation: the paper picked random forest
//! after comparing kNN, decision trees, neural networks, naive Bayes and
//! SVMs in Weka — this bench compares the same line-up on wall-clock cost
//! (`repro model_comparison` measures their accuracy, and
//! REPRO_EXPECT.json pins the forest's lead over them).

use caai_core::training::{build_training_set, TrainingConfig};
use caai_ml::{
    Classifier, Dataset, GaussianNaiveBayes, KnnClassifier, LinearSvm, MlpClassifier, MlpConfig,
    RandomForest, RandomForestConfig, SvmConfig,
};
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A small but real CAAI training set (14 algorithms × 4 rungs × 3
/// conditions), gathered once for all benches in this file.
fn training_set() -> Dataset {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(1);
    build_training_set(&TrainingConfig::quick(3), &db, &mut rng)
}

fn bench_forest_fit(c: &mut Criterion) {
    let data = training_set();
    let mut group = c.benchmark_group("forest_fit");
    group.sample_size(10);
    for n_trees in [10usize, 40, 80, 160] {
        group.bench_with_input(BenchmarkId::from_parameter(n_trees), &n_trees, |b, &n| {
            b.iter(|| {
                let mut f = RandomForest::new(RandomForestConfig {
                    n_trees: n,
                    mtry: 4,
                });
                f.fit(&data, &mut seeded(2));
                black_box(f)
            });
        });
    }
    group.finish();
}

fn bench_forest_predict(c: &mut Criterion) {
    let data = training_set();
    let mut forest = RandomForest::new(RandomForestConfig::paper());
    forest.fit(&data, &mut seeded(3));
    let queries: Vec<&[f64]> = data
        .samples()
        .iter()
        .take(64)
        .map(|s| s.features.as_slice())
        .collect();
    let mut group = c.benchmark_group("forest_predict");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("paper_config_batch64", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(forest.predict(q));
            }
        });
    });
    group.finish();
}

fn bench_mtry_sweep(c: &mut Criterion) {
    // The m axis of Fig. 12: split-selection cost grows with the subspace
    // size while accuracy stays flat (paper: m = 4 is Weka's default).
    let data = training_set();
    let mut group = c.benchmark_group("forest_fit_mtry");
    group.sample_size(10);
    for mtry in [1usize, 2, 4, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(mtry), &mtry, |b, &m| {
            b.iter(|| {
                let mut f = RandomForest::new(RandomForestConfig {
                    n_trees: 20,
                    mtry: m,
                });
                f.fit(&data, &mut seeded(4));
                black_box(f)
            });
        });
    }
    group.finish();
}

fn bench_classifier_lineup(c: &mut Criterion) {
    // The §VI model comparison, on cost: fit + full-trainset prediction.
    let data = training_set();
    let mut group = c.benchmark_group("classifier_lineup");
    group.sample_size(10);

    fn fit_and_score<C: Classifier>(mut model: C, data: &Dataset) -> usize {
        model.fit(data, &mut seeded(5));
        data.samples()
            .iter()
            .filter(|s| model.predict(&s.features).label == s.label)
            .count()
    }

    group.bench_function("random_forest", |b| {
        b.iter(|| {
            black_box(fit_and_score(
                RandomForest::new(RandomForestConfig::paper()),
                &data,
            ))
        });
    });
    group.bench_function("knn_k3", |b| {
        b.iter(|| black_box(fit_and_score(KnnClassifier::new(3), &data)));
    });
    group.bench_function("naive_bayes", |b| {
        b.iter(|| black_box(fit_and_score(GaussianNaiveBayes::default(), &data)));
    });
    group.bench_function("mlp", |b| {
        b.iter(|| {
            black_box(fit_and_score(
                MlpClassifier::new(MlpConfig::default()),
                &data,
            ))
        });
    });
    group.bench_function("linear_svm", |b| {
        b.iter(|| black_box(fit_and_score(LinearSvm::new(SvmConfig::default()), &data)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forest_fit,
    bench_forest_predict,
    bench_mtry_sweep,
    bench_classifier_lineup
);
criterion_main!(benches);
