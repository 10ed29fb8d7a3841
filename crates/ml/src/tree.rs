//! CART classification trees with Gini impurity and random-subspace
//! splits, grown without pruning — the tree-growing procedure random forest
//! requires (§VI: "Each node of a tree is split using the random subspace
//! method ... There is no pruning when growing a tree").

use crate::dataset::Dataset;
use crate::{Classifier, Prediction};
use rand::seq::index::sample as index_sample;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A trained CART tree (also usable standalone as the paper's
/// decision-tree baseline).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Number of candidate features examined at each split; `0` means all
    /// (plain CART).
    pub mtry: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    n_classes: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        label: usize,
        purity: f64,
    },
}

impl DecisionTree {
    /// A plain CART tree (all features considered at each node).
    pub fn new() -> Self {
        DecisionTree {
            nodes: Vec::new(),
            mtry: 0,
            min_split: 2,
            n_classes: 0,
        }
    }

    /// A random-subspace tree examining `mtry` features per node.
    pub fn with_mtry(mtry: usize) -> Self {
        DecisionTree {
            nodes: Vec::new(),
            mtry,
            min_split: 2,
            n_classes: 0,
        }
    }

    /// Number of nodes in the trained tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Gini impurity of a node holding `total` samples with the given
    /// class counts.
    fn gini(counts: impl IntoIterator<Item = usize>, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .into_iter()
            .map(|c| (c as f64 / t) * (c as f64 / t))
            .sum::<f64>()
    }

    /// Finds the best (feature, threshold) split for `rows` among the
    /// sampled candidate features. Returns `None` when no split improves.
    fn best_split(
        &self,
        data: &Dataset,
        rows: &[usize],
        rng: &mut dyn RngCore,
        scratch: &mut Scratch,
    ) -> Option<(usize, f64, f64)> {
        let n_features = data.n_features();
        let candidates: Vec<usize> = if self.mtry == 0 || self.mtry >= n_features {
            (0..n_features).collect()
        } else {
            index_sample(rng, n_features, self.mtry).into_vec()
        };

        let parent_counts = class_counts(data, rows, self.n_classes);
        let parent_gini = Self::gini(parent_counts.iter().copied(), rows.len());
        // A class absent from the node adds exactly +0.0 to a child's sum
        // of squares once a present class has made the sum positive, so
        // summing only the present classes, in class order, gives the same
        // impurity bit for bit.
        let Scratch {
            pairs,
            left,
            right,
            present,
        } = scratch;
        present.clear();
        present.extend((0..self.n_classes).filter(|&k| parent_counts[k] > 0));
        let mut best: Option<(usize, f64, f64)> = None;

        for &f in &candidates {
            // Sort the rows' (value, label) pairs by the candidate feature
            // and scan split points between distinct values. The order of
            // equal values cannot matter: the counts are only read where
            // the value changes.
            pairs.clear();
            pairs.extend(rows.iter().map(|&r| {
                let s = &data.samples()[r];
                (s.features[f], s.label)
            }));
            pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            left.clear();
            left.resize(self.n_classes, 0);
            right.clear();
            right.extend_from_slice(&parent_counts);
            let n = pairs.len();
            for i in 0..n - 1 {
                let (v, label) = pairs[i];
                left[label] += 1;
                right[label] -= 1;
                let v_next = pairs[i + 1].0;
                if v == v_next {
                    continue;
                }
                let threshold = (v + v_next) / 2.0;
                let nl = i + 1;
                let nr = n - nl;
                let g = (nl as f64 * Self::gini(present.iter().map(|&k| left[k]), nl)
                    + nr as f64 * Self::gini(present.iter().map(|&k| right[k]), nr))
                    / n as f64;
                let gain = parent_gini - g;
                if gain > 1e-12 {
                    match best {
                        Some((_, _, best_gain)) if best_gain >= gain => {}
                        _ => best = Some((f, threshold, gain)),
                    }
                }
            }
        }
        best
    }

    fn grow(
        &mut self,
        data: &Dataset,
        rows: Vec<usize>,
        rng: &mut dyn RngCore,
        scratch: &mut Scratch,
    ) -> usize {
        let counts = class_counts(data, &rows, self.n_classes);
        let total = rows.len();
        let (majority, majority_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, &c)| (i, c))
            .unwrap();
        let pure = majority_count == total;
        if pure || total < self.min_split {
            let node = Node::Leaf {
                label: majority,
                purity: majority_count as f64 / total as f64,
            };
            self.nodes.push(node);
            return self.nodes.len() - 1;
        }
        match self.best_split(data, &rows, rng, scratch) {
            None => {
                let node = Node::Leaf {
                    label: majority,
                    purity: majority_count as f64 / total as f64,
                };
                self.nodes.push(node);
                self.nodes.len() - 1
            }
            Some((feature, threshold, _gain)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                    .into_iter()
                    .partition(|&r| data.samples()[r].features[feature] <= threshold);
                // Reserve a slot for this split node, then grow children.
                let idx = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    label: majority,
                    purity: 0.0,
                }); // placeholder
                let left = self.grow(data, left_rows, rng, scratch);
                let right = self.grow(data, right_rows, rng, scratch);
                self.nodes[idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                idx
            }
        }
    }

    /// Fits the tree to the given sample indices of `data`.
    pub fn fit_rows(&mut self, data: &Dataset, rows: Vec<usize>, rng: &mut dyn RngCore) {
        assert!(!rows.is_empty(), "cannot grow a tree from zero samples");
        self.nodes.clear();
        self.n_classes = data.n_classes();
        self.grow(data, rows, rng, &mut Scratch::default());
    }
}

/// The buffers one tree's growth reuses from node to node.
#[derive(Default)]
struct Scratch {
    /// A node's `(feature value, label)` pairs for one candidate feature.
    pairs: Vec<(f64, usize)>,
    /// Class counts left and right of the scanned split point.
    left: Vec<usize>,
    right: Vec<usize>,
    /// The classes present in the node, ascending.
    present: Vec<usize>,
}

fn class_counts(data: &Dataset, rows: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &r in rows {
        counts[data.samples()[r].label] += 1;
    }
    counts
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset, rng: &mut dyn RngCore) {
        self.fit_rows(data, (0..data.len()).collect(), rng);
    }

    fn predict(&self, features: &[f64]) -> Prediction {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { label, purity } => {
                    return Prediction {
                        label: *label,
                        confidence: *purity,
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "decision-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn separable() -> Dataset {
        let mut d = Dataset::new(vec!["lo".into(), "hi".into()], 2);
        for i in 0..50 {
            d.push(vec![i as f64 / 50.0, 0.3], 0);
            d.push(vec![1.0 + i as f64 / 50.0, 0.7], 1);
        }
        d
    }

    #[test]
    fn learns_a_separable_problem_perfectly() {
        let d = separable();
        let mut t = DecisionTree::new();
        let mut rng = StdRng::seed_from_u64(1);
        t.fit(&d, &mut rng);
        for s in d.samples() {
            assert_eq!(t.predict(&s.features).label, s.label);
        }
    }

    #[test]
    fn pure_leaves_have_full_confidence() {
        let d = separable();
        let mut t = DecisionTree::new();
        let mut rng = StdRng::seed_from_u64(1);
        t.fit(&d, &mut rng);
        let p = t.predict(&[0.1, 0.3]);
        assert_eq!(p.confidence, 1.0);
    }

    #[test]
    fn gini_is_zero_for_pure_and_max_for_even() {
        assert_eq!(DecisionTree::gini([10, 0], 10), 0.0);
        assert!((DecisionTree::gini([5, 5], 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn handles_constant_features() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
        for i in 0..10 {
            d.push(vec![1.0, i as f64], i % 2);
        }
        let mut t = DecisionTree::new();
        let mut rng = StdRng::seed_from_u64(2);
        t.fit(&d, &mut rng);
        // Feature 0 is constant; the tree must split on feature 1 only.
        for s in d.samples() {
            assert_eq!(t.predict(&s.features).label, s.label);
        }
    }

    #[test]
    fn unsplittable_data_yields_majority_leaf() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], 1);
        d.push(vec![1.0], 0);
        d.push(vec![1.0], 0);
        d.push(vec![1.0], 1);
        let mut t = DecisionTree::new();
        let mut rng = StdRng::seed_from_u64(3);
        t.fit(&d, &mut rng);
        assert_eq!(t.node_count(), 1);
        let p = t.predict(&[1.0]);
        assert_eq!(p.label, 0);
        assert!((p.confidence - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let t = DecisionTree::new();
        let _ = t.predict(&[0.0]);
    }

    #[test]
    fn mtry_one_still_learns() {
        let d = separable();
        let mut t = DecisionTree::with_mtry(1);
        let mut rng = StdRng::seed_from_u64(4);
        t.fit(&d, &mut rng);
        let correct = d
            .samples()
            .iter()
            .filter(|s| t.predict(&s.features).label == s.label)
            .count();
        assert!(correct as f64 / d.len() as f64 > 0.9);
    }
}
