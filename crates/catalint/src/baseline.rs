//! The grandfathering baseline (`catalint.baseline.json`), schema v2.
//!
//! v1 recorded a *count* per `(rule, path)` — a ratchet that kept the
//! file stable but had a masking hole: fixing one finding in a file
//! freed up head-room a brand-new finding in the same file could hide
//! behind. v2 entries are **fingerprints**:
//!
//! ```text
//! { rule, path, fn, hash, count }
//! ```
//!
//! where `fn` is the enclosing function and `hash` the FNV-1a of the
//! offending line's trimmed text. A finding that merely moves (code
//! added above it) keeps its fingerprint; a finding whose line is
//! *edited* gets a new one and fails the build until fixed or
//! re-baselined. Fixing one finding can therefore never mask another.
//!
//! Matching semantics per fingerprint:
//!
//! - current matches **>** recorded count → the excess stays active;
//! - current matches **≤** recorded count → suppressed as `Baselined`;
//! - current matches **<** recorded count → additionally surfaced as a
//!   *stale* entry so `--update-baseline` can shrink the file.
//!
//! Schema-v1 files are rejected with a migration hint: run
//! `cargo xtask lint --update-baseline` to rewrite the ledger (CI fails
//! on v1 files so the migration cannot be deferred silently).

use crate::diag::{Report, Suppression};
use catapult_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Schema version of `catalint.baseline.json`.
pub const BASELINE_SCHEMA_VERSION: u64 = 2;

/// A finding's baseline identity: `(rule, path, enclosing fn, snippet
/// hash)`.
type Fingerprint = (String, String, String, String);

/// Grandfathered finding counts keyed by fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<Fingerprint, u64>,
}

impl Baseline {
    /// Parse a baseline document. Returns a descriptive error for a
    /// malformed or wrong-schema file (the build should fail loudly
    /// rather than silently ignore its debt ledger); a v1 file gets an
    /// explicit migration hint.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema_version") {
            Some(Value::UInt(BASELINE_SCHEMA_VERSION)) => {}
            Some(Value::UInt(1)) => {
                return Err(
                    "baseline is schema v1 (per-file count ratchet); run `cargo xtask \
                     lint --update-baseline` to migrate it to v2 fingerprints"
                        .to_string(),
                )
            }
            other => {
                return Err(format!(
                    "unsupported baseline schema_version {other:?} (expected {BASELINE_SCHEMA_VERSION})"
                ))
            }
        }
        let mut entries = BTreeMap::new();
        let Some(Value::Array(items)) = doc.get("entries") else {
            return Err("baseline is missing the `entries` array".to_string());
        };
        for item in items {
            let rule = item.get("rule").and_then(as_str);
            let path = item.get("path").and_then(as_str);
            let func = item.get("fn").and_then(as_str);
            let hash = item.get("hash").and_then(as_str);
            let count = match item.get("count") {
                Some(Value::UInt(n)) => Some(*n),
                _ => None,
            };
            match (rule, path, func, hash, count) {
                (Some(rule), Some(path), Some(func), Some(hash), Some(count)) => {
                    entries.insert(
                        (
                            rule.to_string(),
                            path.to_string(),
                            func.to_string(),
                            hash.to_string(),
                        ),
                        count,
                    );
                }
                _ => return Err(format!("malformed baseline entry: {item:?}")),
            }
        }
        Ok(Baseline { entries })
    }

    /// Build a baseline that grandfathers every *active* finding in
    /// `report` (allowed findings keep their inline markers instead).
    #[must_use]
    pub fn from_report(report: &Report) -> Baseline {
        let mut entries: BTreeMap<Fingerprint, u64> = BTreeMap::new();
        for d in &report.findings {
            if d.suppressed == Suppression::Allowed {
                continue;
            }
            *entries.entry(d.fingerprint()).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of fingerprint entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no findings are grandfathered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply the baseline to `report`: suppress findings whose
    /// fingerprint has head-room and record stale entries. Findings
    /// already suppressed by an inline allow are untouched.
    pub fn apply(&self, report: &mut Report) {
        let mut used: BTreeMap<Fingerprint, u64> = BTreeMap::new();
        for d in &mut report.findings {
            if d.suppressed != Suppression::None {
                continue;
            }
            let fp = d.fingerprint();
            let Some(&recorded) = self.entries.get(&fp) else {
                continue;
            };
            let seen = used.entry(fp).or_insert(0);
            if *seen < recorded {
                *seen += 1;
                d.suppressed = Suppression::Baselined;
            }
        }
        for (fp, &recorded) in &self.entries {
            let now = used.get(fp).copied().unwrap_or(0);
            if now < recorded {
                report.stale_baseline.push((
                    fp.0.clone(),
                    format!("{} (fn {}, hash {})", fp.1, display_fn(&fp.2), fp.3),
                    recorded,
                    now,
                ));
            }
        }
    }

    /// How a regenerated ledger differs from the previous one: counts of
    /// fingerprints added, pruned outright, and entries whose head-room
    /// grew or shrank. `--update-baseline` prints this so a rewrite is
    /// auditable in the diff *and* in the terminal.
    #[must_use]
    pub fn diff(old: &Baseline, new: &Baseline) -> BaselineDiff {
        let mut d = BaselineDiff::default();
        for (fp, &n) in &new.entries {
            match old.entries.get(fp) {
                None => d.added += 1,
                Some(&o) if n > o => d.grown += 1,
                Some(&o) if n < o => d.shrunk += 1,
                Some(_) => {}
            }
        }
        d.pruned = old
            .entries
            .keys()
            .filter(|fp| !new.entries.contains_key(*fp))
            .count();
        d
    }

    /// Render as the checked-in JSON document (sorted, schema-versioned).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut items = Value::array();
        for ((rule, path, func, hash), count) in &self.entries {
            let mut e = Value::object();
            e.set("rule", rule.as_str())
                .set("path", path.as_str())
                .set("fn", func.as_str())
                .set("hash", hash.as_str())
                .set("count", *count);
            items.push(e);
        }
        let mut v = Value::object();
        v.set("schema_version", BASELINE_SCHEMA_VERSION)
            .set("entries", items);
        v
    }
}

/// Delta between two baselines (see [`Baseline::diff`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Fingerprints present only in the new ledger (fresh debt).
    pub added: usize,
    /// Fingerprints dropped entirely (debt paid off, or the offending
    /// line was edited and re-fingerprinted).
    pub pruned: usize,
    /// Entries whose grandfathered count increased.
    pub grown: usize,
    /// Entries whose count decreased but did not reach zero.
    pub shrunk: usize,
}

impl BaselineDiff {
    /// True when the rewrite changed nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        *self == BaselineDiff::default()
    }

    /// One-line human summary, e.g. `+2 added, -3 pruned, 1 shrunk`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_noop() {
            return "no changes".to_string();
        }
        let mut parts = Vec::new();
        if self.added > 0 {
            parts.push(format!("+{} added", self.added));
        }
        if self.pruned > 0 {
            parts.push(format!("-{} pruned", self.pruned));
        }
        if self.grown > 0 {
            parts.push(format!("{} grown", self.grown));
        }
        if self.shrunk > 0 {
            parts.push(format!("{} shrunk", self.shrunk));
        }
        parts.join(", ")
    }
}

fn display_fn(name: &str) -> &str {
    if name.is_empty() {
        "<file>"
    } else {
        name
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn diag(rule: &'static str, path: &str, line: usize, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.into(),
            line,
            col: 1,
            snippet: snippet.into(),
            enclosing_fn: "f".into(),
            message: String::new(),
            suppressed: Suppression::None,
        }
    }

    fn report(findings: Vec<Diagnostic>) -> Report {
        Report {
            findings,
            files_scanned: 1,
            rules_run: vec![],
            stale_baseline: vec![],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut r = report(vec![
            diag("float-eq", "a.rs", 1, "x == 1.0"),
            diag("float-eq", "a.rs", 5, "y != 0.5"),
        ]);
        r.finalize();
        let b = Baseline::from_report(&r);
        let text = b.to_json().render();
        let back = Baseline::parse(&text).expect("parses");
        assert_eq!(back, b);
        assert_eq!(back.len(), 2, "distinct snippets get distinct fingerprints");
        assert!(text.contains("\"schema_version\": 2"));
        assert!(text.contains("\"hash\""));
    }

    #[test]
    fn suppresses_matching_fingerprints_only() {
        let mut r = report(vec![
            diag("r", "a.rs", 1, "old debt line"),
            diag("r", "a.rs", 9, "brand new line"),
        ]);
        let b = Baseline::from_report(&report(vec![diag("r", "a.rs", 1, "old debt line")]));
        b.apply(&mut r);
        assert_eq!(r.count(Suppression::Baselined), 1);
        assert_eq!(
            r.count(Suppression::None),
            1,
            "a new finding in the same file cannot hide behind fixed debt"
        );
    }

    #[test]
    fn line_moves_keep_identity_edits_do_not() {
        let b = Baseline::from_report(&report(vec![diag("r", "a.rs", 10, "x as u32")]));
        let mut moved = report(vec![diag("r", "a.rs", 99, "x as u32")]);
        b.apply(&mut moved);
        assert_eq!(
            moved.count(Suppression::Baselined),
            1,
            "moved line still suppressed"
        );
        let mut edited = report(vec![diag("r", "a.rs", 10, "x as u64")]);
        b.apply(&mut edited);
        assert_eq!(
            edited.count(Suppression::None),
            1,
            "edited line fails the build"
        );
        assert_eq!(
            edited.stale_baseline.len(),
            1,
            "the old fingerprint goes stale"
        );
    }

    #[test]
    fn excess_matches_stay_active() {
        let mut r = report(vec![
            diag("r", "a.rs", 1, "same line"),
            diag("r", "a.rs", 2, "same line"),
        ]);
        let b = Baseline::from_report(&report(vec![diag("r", "a.rs", 1, "same line")]));
        b.apply(&mut r);
        assert_eq!(r.count(Suppression::Baselined), 1);
        assert_eq!(
            r.count(Suppression::None),
            1,
            "head-room is bounded by count"
        );
    }

    #[test]
    fn rejects_v1_with_migration_hint_and_malformed_entries() {
        let v1 = "{\n  \"schema_version\": 1,\n  \"entries\": [\n    {\"rule\": \"r\", \"path\": \"a.rs\", \"count\": 2}\n  ]\n}\n";
        let err = Baseline::parse(v1).expect_err("v1 is rejected");
        assert!(err.contains("--update-baseline"), "migration hint: {err}");
        assert!(Baseline::parse("{\"schema_version\": 9, \"entries\": []}").is_err());
        assert!(Baseline::parse("{\"schema_version\": 2}").is_err());
        assert!(
            Baseline::parse("{\"schema_version\": 2, \"entries\": [{\"rule\": \"r\"}]}").is_err()
        );
    }

    #[test]
    fn inline_allows_are_not_baselined() {
        let mut allowed = diag("r", "a.rs", 1, "line one");
        allowed.suppressed = Suppression::Allowed;
        let r = report(vec![allowed, diag("r", "a.rs", 2, "line two")]);
        let b = Baseline::from_report(&r);
        assert_eq!(b.len(), 1, "only the active finding is grandfathered");
    }

    #[test]
    fn regenerating_prunes_grows_and_shrinks_in_one_run() {
        // Old ledger: "gone" x1 (debt since paid), "shrinker" x3 (one
        // paid), "grower" x1 (one more accrued), "steady" x1.
        let old = Baseline::from_report(&report(vec![
            diag("r", "a.rs", 1, "gone"),
            diag("r", "a.rs", 2, "shrinker"),
            diag("r", "a.rs", 3, "shrinker"),
            diag("r", "a.rs", 4, "shrinker"),
            diag("r", "a.rs", 5, "grower"),
            diag("r", "a.rs", 6, "steady"),
        ]));
        let new = Baseline::from_report(&report(vec![
            diag("r", "a.rs", 2, "shrinker"),
            diag("r", "a.rs", 3, "shrinker"),
            diag("r", "a.rs", 5, "grower"),
            diag("r", "a.rs", 7, "grower"),
            diag("r", "a.rs", 6, "steady"),
            diag("r", "b.rs", 1, "fresh"),
        ]));
        let d = Baseline::diff(&old, &new);
        assert_eq!(
            d,
            BaselineDiff {
                added: 1,
                pruned: 1,
                grown: 1,
                shrunk: 1
            }
        );
        assert!(!d.is_noop());
        let s = d.summary();
        for part in ["+1 added", "-1 pruned", "1 grown", "1 shrunk"] {
            assert!(s.contains(part), "summary `{s}` missing `{part}`");
        }
        // Regeneration *is* pruning: the rewritten ledger no longer
        // grandfathers the paid-off fingerprint, so a reintroduction of
        // the same line fails the build instead of hiding behind debt.
        let mut reintroduced = report(vec![diag("r", "a.rs", 1, "gone")]);
        new.apply(&mut reintroduced);
        assert_eq!(reintroduced.count(Suppression::None), 1);
        assert_eq!(Baseline::diff(&new, &new), BaselineDiff::default());
        assert_eq!(Baseline::diff(&new, &new).summary(), "no changes");
    }

    #[test]
    fn empty_baseline_round_trips() {
        let b = Baseline::from_report(&report(vec![]));
        assert!(b.is_empty());
        let text = b.to_json().render();
        let back = Baseline::parse(&text).expect("parses");
        assert!(back.is_empty());
    }
}
