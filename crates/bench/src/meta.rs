//! Provenance header stamped into every `BENCH_*.json` report.
//!
//! Perf medians are only comparable between runs taken on the same machine
//! with the same thread budget; [`BenchMeta`] records enough provenance for
//! `bench_gate` to refuse apples-to-oranges diffs instead of flagging a
//! hardware change as a regression.

use serde::{Deserialize, Serialize};

/// Where and how a bench report was produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// `git rev-parse HEAD` at generation time, or `"unknown"` outside a
    /// checkout.
    pub git_sha: String,
    /// Hostname of the generating machine, or `"unknown"`.
    pub hostname: String,
    /// Available hardware parallelism on the generating machine.
    pub threads: usize,
}

impl BenchMeta {
    /// Captures the current environment. Never fails: unobtainable fields
    /// degrade to `"unknown"` / 1 so bench bins work in minimal containers.
    pub fn capture() -> Self {
        Self {
            git_sha: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            hostname: command_line("hostname", &[])
                .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
                .unwrap_or_else(unknown),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// True when two reports were produced in comparable environments
    /// (same machine, same parallelism) — the precondition for diffing
    /// their medians.
    pub(crate) fn comparable_to(&self, other: &BenchMeta) -> bool {
        self.hostname == other.hostname && self.threads == other.threads
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_never_produces_empty_fields() {
        let meta = BenchMeta::capture();
        assert!(!meta.git_sha.is_empty());
        assert!(!meta.hostname.is_empty());
        assert!(meta.threads >= 1);
    }

    #[test]
    fn comparability_requires_same_host_and_threads() {
        let a = BenchMeta {
            git_sha: "aaa".into(),
            hostname: "h1".into(),
            threads: 4,
        };
        let mut b = a.clone();
        b.git_sha = "bbb".into(); // different commit is fine
        assert!(a.comparable_to(&b));
        b.threads = 8;
        assert!(!a.comparable_to(&b));
        b.threads = 4;
        b.hostname = "h2".into();
        assert!(!a.comparable_to(&b));
    }

    #[test]
    fn meta_roundtrips_through_json() {
        let meta = BenchMeta {
            git_sha: "deadbeef".into(),
            hostname: "bench-box".into(),
            threads: 16,
        };
        let json = serde_json::to_string(&meta).expect("serialize");
        let back: BenchMeta = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, meta);
    }
}
