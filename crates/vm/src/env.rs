//! The one reader of `POLYMAGE_*` environment variables.
//!
//! `POLYMAGE_SIMD` is the one override; the SIMD level resolves through it
//! here in the VM, so engine-only embedders that bypass `polymage-core`
//! honour it too. Every `POLYMAGE_*` variable is parsed once per process. A
//! malformed value, or a name this toolchain does not read (a typo, or a
//! retired tile, cache or storage-fold override), is recorded as an
//! [`EnvIssue`] and warned about once on stderr instead of silently running
//! the default configuration. `polymage-core` reports the same list as
//! `env.invalid` diag events.

use crate::SimdOpt;
use std::sync::OnceLock;

/// One rejected or unrecognized `POLYMAGE_*` variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvIssue {
    /// The variable name (always `POLYMAGE_`-prefixed).
    pub var: String,
    /// The value that was set.
    pub value: String,
    /// What was wrong with it (unknown variable / expected grammar).
    pub problem: String,
}

/// The parsed `POLYMAGE_*` variables: `simd` is `None` when unset *or*
/// malformed (a malformed value keeps the built-in default and records an
/// [`EnvIssue`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Env {
    /// `POLYMAGE_SIMD`.
    pub(crate) simd: Option<SimdOpt>,
    /// Everything rejected, in variable-name order.
    pub(crate) issues: Vec<EnvIssue>,
}

/// Parses a set of environment variables (pure). Only `POLYMAGE_*` names
/// are considered; order of the input does not matter — issues come out
/// sorted by variable name.
fn parse(vars: impl IntoIterator<Item = (String, String)>) -> Env {
    let mut env = Env::default();
    let mut vars: Vec<(String, String)> = vars
        .into_iter()
        .filter(|(k, _)| k.starts_with("POLYMAGE_"))
        .collect();
    vars.sort();
    for (var, value) in vars {
        let problem = match var.as_str() {
            "POLYMAGE_SIMD" => match SimdOpt::parse_spelling(&value) {
                Some(opt) => {
                    env.simd = Some(opt);
                    continue;
                }
                None => "expected off|scalar|sse2|avx2|neon|auto",
            },
            _ => "unknown POLYMAGE_* variable",
        };
        env.issues.push(EnvIssue {
            var,
            value,
            problem: problem.to_string(),
        });
    }
    env
}

/// The process-wide variables, read from the real environment once (they
/// feed compile-cache keys, which must be stable); the first read warns
/// about every issue on stderr.
pub(crate) fn get() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let env = parse(std::env::vars());
        for issue in &env.issues {
            eprintln!(
                "polymage: ignoring {} = `{}` ({})",
                issue.var, issue.value, issue.problem
            );
        }
        env
    })
}

/// Every `POLYMAGE_*` variable of this process that was ignored: malformed
/// values and names this toolchain does not read.
pub fn env_issues() -> &'static [EnvIssue] {
    &get().issues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_known_vars() {
        let cfg = parse(pairs(&[
            ("POLYMAGE_SIMD", "avx2"),
            ("PATH", "/usr/bin"), // non-POLYMAGE vars are ignored
        ]));
        assert_eq!(cfg.simd, Some(SimdOpt::Avx2));
        assert!(cfg.issues.is_empty());
    }

    #[test]
    fn flags_malformed_values_and_keeps_defaults() {
        let cfg = parse(pairs(&[("POLYMAGE_SIMD", "avx512")]));
        assert_eq!(cfg.simd, None);
        assert_eq!(cfg.issues.len(), 1);
        assert_eq!(cfg.issues[0].var, "POLYMAGE_SIMD");
    }

    #[test]
    fn flags_unknown_polymage_vars() {
        let cfg = parse(pairs(&[
            ("POLYMAGE_TILES", "auto"), // typo
            ("POLYMAGE_SIMD", "off"),
            // Overrides this toolchain no longer reads.
            ("POLYMAGE_TILE", "auto"),
            ("POLYMAGE_CACHE", "48k:2m:64"),
            ("POLYMAGE_STORAGE_FOLD", "off"),
        ]));
        assert_eq!(cfg.simd, Some(SimdOpt::Off));
        let vars: Vec<&str> = cfg.issues.iter().map(|i| i.var.as_str()).collect();
        assert_eq!(
            vars,
            [
                "POLYMAGE_CACHE",
                "POLYMAGE_STORAGE_FOLD",
                "POLYMAGE_TILE",
                "POLYMAGE_TILES"
            ]
        );
        assert!(cfg
            .issues
            .iter()
            .all(|i| i.problem == "unknown POLYMAGE_* variable"));
    }
}
