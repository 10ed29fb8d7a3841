//! Where a run keeps its files: capture, reports, checkpoints.

use std::io;
use std::path::{Path, PathBuf};

/// A directory of this process's own, next to the running executable —
/// inside the build directory, hence inside the checkout and already
/// ignored by git. Removed, with everything in it, on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates the directory; `label` (the workload) and the process id
    /// keep concurrent runs apart.
    pub fn create(label: &str) -> io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().unwrap_or(Path::new("."));
        let path = beside
            .join("caai-benchmark-scratch")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover file only wastes build-directory space.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
