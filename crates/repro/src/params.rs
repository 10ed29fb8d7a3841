//! Canonical experiment parameters at two scales: `quick` (seconds, for CI
//! and iteration) and `paper` (the full §VII workloads).

use caai_core::training::TrainingConfig;
use caai_webmodel::PopulationConfig;

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced workloads: ~10× smaller training set, thousands of census
    /// servers instead of 63k.
    Quick,
    /// The paper's full workloads (5,600 training vectors, 63,124-server
    /// census).
    Paper,
}

impl Scale {
    /// Training-set collection config at this scale.
    pub fn training(self) -> TrainingConfig {
        match self {
            Scale::Quick => TrainingConfig::quick(10),
            Scale::Paper => TrainingConfig::paper(),
        }
    }

    /// Census population at this scale.
    pub fn population(self) -> PopulationConfig {
        match self {
            Scale::Quick => PopulationConfig::small(3_000),
            Scale::Paper => PopulationConfig::paper_scale(),
        }
    }

    /// Worker threads for the census.
    pub fn workers(self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// The workspace-wide base seed, so every experiment is reproducible.
    pub fn seed(self) -> u64 {
        0xCAA1
    }
}
