//! Canonical image sizes for the seven benchmarks — the single source of
//! truth behind every `Scale` match arm, test size, and bench size.
//!
//! Each benchmark's `new(scale)` routes through this table, so tests and
//! bench binaries never hard-code their own `(rows, cols)` copies.
//! Pyramid-based apps require dimensions divisible by `2^levels`; the
//! table entries respect each app's constraint at every scale.

use crate::Scale;

/// The `(rows, cols)` of one benchmark at the three workload scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSizes {
    /// Benchmark name as used in Table 2 (matches `Benchmark::name`).
    pub name: &'static str,
    /// The paper's size (Table 2).
    pub paper: (i64, i64),
    /// Quarter-linear-size for fast test/CI runs.
    pub small: (i64, i64),
    /// Tiny size for exhaustive correctness sweeps.
    pub tiny: (i64, i64),
}

impl AppSizes {
    /// The `(rows, cols)` at a scale.
    pub const fn at(self, scale: Scale) -> (i64, i64) {
        match scale {
            Scale::Paper => self.paper,
            Scale::Small => self.small,
            Scale::Tiny => self.tiny,
        }
    }
}

/// Unsharp Mask (2048×2048×3 in Table 2).
pub const UNSHARP: AppSizes = AppSizes {
    name: "Unsharp Mask",
    paper: (2048, 2048),
    small: (512, 512),
    tiny: (48, 56),
};

/// Bilateral Grid (2560×1536 in Table 2).
pub const BILATERAL: AppSizes = AppSizes {
    name: "Bilateral Grid",
    paper: (2560, 1536),
    small: (640, 384),
    tiny: (64, 48),
};

/// Harris Corner (6400×6400 in Table 2).
pub const HARRIS: AppSizes = AppSizes {
    name: "Harris Corner",
    paper: (6400, 6400),
    small: (1600, 1600),
    tiny: (60, 68),
};

/// Camera Pipeline (2528×1920 in Table 2).
pub const CAMERA: AppSizes = AppSizes {
    name: "Camera Pipeline",
    paper: (2528, 1920),
    small: (632, 480),
    tiny: (64, 48),
};

/// Pyramid Blending (2048×2048×3 in Table 2; dims divisible by
/// `2^levels`).
pub const PYRAMID: AppSizes = AppSizes {
    name: "Pyramid Blending",
    paper: (2048, 2048),
    small: (512, 512),
    tiny: (256, 256),
};

/// Multiscale Interpolate (2560×1536×3 in Table 2; dims divisible by
/// `2^levels`).
pub const INTERPOLATE: AppSizes = AppSizes {
    name: "Multiscale Interpolate",
    paper: (2560, 1536),
    small: (640, 384),
    tiny: (352, 320),
};

/// Local Laplacian (2560×1536×3 in Table 2; dims divisible by
/// `2^levels`).
pub const LAPLACIAN: AppSizes = AppSizes {
    name: "Local Laplacian",
    paper: (2560, 1536),
    small: (640, 384),
    tiny: (176, 160),
};

/// All seven benchmarks' size entries, in Table 2 order.
pub const ALL: [AppSizes; 7] = [
    UNSHARP,
    BILATERAL,
    HARRIS,
    CAMERA,
    PYRAMID,
    INTERPOLATE,
    LAPLACIAN,
];

/// Looks up a benchmark's sizes by its Table 2 name
/// (`Benchmark::name`).
pub fn for_name(name: &str) -> Option<AppSizes> {
    ALL.into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_benchmarks;

    #[test]
    fn table_matches_benchmark_instances() {
        // Every benchmark constructed at a scale carries the table's
        // sizes: the first two parameters are (rows, cols) by convention.
        for scale in [Scale::Tiny, Scale::Small] {
            for b in all_benchmarks(scale) {
                let sizes = for_name(b.name()).expect("every app is in the table");
                let params = b.params();
                assert_eq!(
                    (params[0], params[1]),
                    sizes.at(scale),
                    "{} at {:?}",
                    b.name(),
                    scale
                );
            }
        }
    }
}
