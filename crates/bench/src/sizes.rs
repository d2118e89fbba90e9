//! Shared size presets for the bench binaries.
//!
//! Re-exports the canonical per-app size table from
//! [`polymage_apps::sizes`] and layers the measurement presets on top:
//! `small` (the tiny correctness sizes), `default` (the quarter-linear CI
//! sizes) and `large` (the paper's Table 2 sizes). Binaries that used to
//! carry their own width/height constants resolve them here instead.

pub use polymage_apps::sizes::{
    for_name, AppSizes, ALL, BILATERAL, CAMERA, HARRIS, INTERPOLATE, LAPLACIAN, PYRAMID, UNSHARP,
};
use polymage_apps::Scale;

/// A measurement size preset, resolvable per app against the canonical
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny sizes — exhaustive sweeps and smoke runs.
    Small,
    /// Quarter-linear sizes — the CI/measurement default.
    Default,
    /// The paper's Table 2 sizes.
    Large,
}

impl Preset {
    /// The `(rows, cols)` of an app under this preset.
    pub const fn dims(self, app: AppSizes) -> (i64, i64) {
        app.at(self.scale())
    }

    /// The [`Scale`] this preset corresponds to.
    pub const fn scale(self) -> Scale {
        match self {
            Preset::Small => Scale::Tiny,
            Preset::Default => Scale::Small,
            Preset::Large => Scale::Paper,
        }
    }

    /// Parses `small`/`default`/`large` (CLI spelling).
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "small" => Some(Preset::Small),
            "default" => Some(Preset::Default),
            "large" => Some(Preset::Large),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_against_the_table() {
        assert_eq!(Preset::Small.dims(UNSHARP), (48, 56));
        assert_eq!(Preset::Default.dims(UNSHARP), (512, 512));
        assert_eq!(Preset::Large.dims(HARRIS), (6400, 6400));
        assert_eq!(Preset::parse("default"), Some(Preset::Default));
        assert_eq!(Preset::parse("huge"), None);
        assert_eq!(ALL.len(), 7);
    }
}
