//! `cargo xtask bench-diff OLD.json NEW.json` — the perf-regression gate.
//!
//! Compares two schema-versioned kernel-bench manifests
//! (`BENCH_kernels.json`, written by `crates/bench`'s `bench_kernels`),
//! entry by entry keyed on `kernel`/`variant`, field by field:
//!
//! * **Deterministic counters** (`probes`, `pairs`) must match exactly —
//!   they are a function of the workload, not the host, so any drift is a
//!   behavioral change, not noise.
//! * **Wall-clock fields** (`secs_median`, `probes_per_sec`) are
//!   gated with a per-kernel noise tolerance: only a slowdown beyond the
//!   tolerance counts as a regression; speedups are reported but pass.
//! * **Host fingerprints** (`host_threads`, `catapult_threads`, `os`,
//!   `arch`) must match, because wall-clock numbers are meaningless
//!   across hosts. `--allow-cross-host` overrides the refusal and then
//!   compares *only* the deterministic counters.
//!
//! Exit codes mirror `xtask lint`: 0 pass, 1 regression, 2 usage /
//! refusal / malformed input.

use catapult_obs::json::{self, Value};

/// Fingerprint keys that make wall-clock numbers host-specific.
const FINGERPRINT_KEYS: [&str; 4] = ["host_threads", "catapult_threads", "os", "arch"];

/// Deterministic per-entry counters: exact match required.
const EXACT_FIELDS: [&str; 2] = ["probes", "pairs"];

/// Wall-clock per-entry fields and their direction: `true` = larger is
/// worse (times), `false` = smaller is worse (rates).
const NOISY_FIELDS: [(&str, bool); 2] = [("secs_median", true), ("probes_per_sec", false)];

/// Default noise tolerance for wall-clock comparisons, in percent.
pub(crate) const DEFAULT_TOLERANCE_PCT: f64 = 30.0;

/// Per-kernel tolerance floor overrides: sub-millisecond kernels
/// (canonical forms, single-pair isomorphism) jitter far more between
/// runs than the long mcs/mccs sweeps, so they get extra headroom. The
/// effective tolerance is `max(override, --tolerance)`.
const KERNEL_TOLERANCE_PCT: [(&str, f64); 2] = [("canonical/-", 80.0), ("iso/-", 60.0)];

/// Options for one diff run.
#[derive(Debug, Clone)]
pub(crate) struct DiffOpts {
    /// Default wall-clock tolerance in percent (slowdowns beyond this fail).
    pub tolerance_pct: f64,
    /// Compare manifests from different hosts (deterministic fields only).
    pub allow_cross_host: bool,
    /// Skip wall-clock fields even on the same host (for low-rep CI runs
    /// whose timings jitter beyond any sensible tolerance).
    pub deterministic_only: bool,
}

impl Default for DiffOpts {
    fn default() -> Self {
        DiffOpts {
            tolerance_pct: DEFAULT_TOLERANCE_PCT,
            allow_cross_host: false,
            deterministic_only: false,
        }
    }
}

/// Outcome of a diff: human-readable lines plus the regression count.
#[derive(Debug, Default)]
pub(crate) struct DiffReport {
    /// One line per comparison worth reporting.
    pub lines: Vec<String>,
    /// Number of gate failures (exact mismatches + out-of-tolerance slowdowns).
    pub regressions: usize,
    /// True when fingerprints differed and only deterministic fields ran.
    pub cross_host: bool,
}

impl DiffReport {
    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn fail(&mut self, line: String) {
        self.regressions += 1;
        self.lines.push(format!("REGRESSION: {line}"));
    }
}

/// Diff two bench-manifest texts. `Err` means the inputs are not
/// comparable at all (malformed, schema mismatch, cross-host without the
/// override) — callers should treat that as a usage error, not a
/// regression.
pub(crate) fn diff(old_text: &str, new_text: &str, opts: &DiffOpts) -> Result<DiffReport, String> {
    let old = json::parse(old_text).map_err(|e| format!("OLD manifest: {e}"))?;
    let new = json::parse(new_text).map_err(|e| format!("NEW manifest: {e}"))?;

    let old_schema = uint_field(&old, "schema_version")
        .ok_or("OLD manifest has no numeric `schema_version`".to_string())?;
    let new_schema = uint_field(&new, "schema_version")
        .ok_or("NEW manifest has no numeric `schema_version`".to_string())?;
    if old_schema != new_schema {
        return Err(format!(
            "schema_version mismatch: OLD is v{old_schema}, NEW is v{new_schema}; \
             regenerate the older manifest before diffing"
        ));
    }

    let mut report = DiffReport::default();
    let mismatched: Vec<&str> = FINGERPRINT_KEYS
        .iter()
        .filter(|k| {
            // A key absent from both (e.g. a pre-fingerprint manifest)
            // does not count as a mismatch; present-vs-absent does.
            let (o, n) = (old.get(k), new.get(k));
            !(o == n || (o.is_none() && n.is_none()))
        })
        .copied()
        .collect();
    if !mismatched.is_empty() {
        if !opts.allow_cross_host {
            return Err(format!(
                "host fingerprint differs ({}): wall-clock numbers are not \
                 comparable across hosts; pass --allow-cross-host to compare \
                 only the deterministic counters",
                mismatched.join(", ")
            ));
        }
        report.cross_host = true;
        report.note(format!(
            "cross-host diff ({} differ): skipping wall-clock fields, \
             comparing deterministic counters only",
            mismatched.join(", ")
        ));
    }

    let old_entries = entries_by_key(&old)?;
    let new_entries = entries_by_key(&new)?;

    for (key, old_entry) in &old_entries {
        let Some(new_entry) = new_entries.iter().find(|(k, _)| k == key).map(|(_, e)| e) else {
            report.fail(format!("{key}: entry missing from NEW manifest"));
            continue;
        };
        diff_entry(key, old_entry, new_entry, opts, &mut report);
    }
    for (key, _) in &new_entries {
        if !old_entries.iter().any(|(k, _)| k == key) {
            report.note(format!(
                "{key}: new entry (not in OLD manifest), nothing to compare"
            ));
        }
    }
    Ok(report)
}

fn diff_entry(key: &str, old: &Value, new: &Value, opts: &DiffOpts, report: &mut DiffReport) {
    for field in EXACT_FIELDS {
        let (Some(o), Some(n)) = (uint_field(old, field), uint_field(new, field)) else {
            continue;
        };
        if o != n {
            report.fail(format!(
                "{key}: deterministic counter `{field}` changed {o} -> {n} \
                 (behavioral change, not timing noise)"
            ));
        }
    }
    if report.cross_host || opts.deterministic_only {
        return;
    }
    let tolerance = tolerance_pct_for(key, opts.tolerance_pct);
    for (field, larger_is_worse) in NOISY_FIELDS {
        let (Some(o), Some(n)) = (float_field(old, field), float_field(new, field)) else {
            continue;
        };
        if o <= 0.0 {
            continue; // cannot compute a ratio against a zero baseline
        }
        let change_pct = (n - o) / o * 100.0;
        let worse = if larger_is_worse {
            change_pct
        } else {
            -change_pct
        };
        if worse > tolerance {
            report.fail(format!(
                "{key}: `{field}` {o:.6} -> {n:.6} ({change_pct:+.1}%, \
                 tolerance ±{tolerance:.0}%)"
            ));
        } else if worse < -tolerance {
            report.note(format!(
                "{key}: `{field}` improved {o:.6} -> {n:.6} ({change_pct:+.1}%)"
            ));
        }
    }
}

/// Effective tolerance for one entry key: the per-kernel floor if listed,
/// never below the caller's default.
fn tolerance_pct_for(key: &str, default_pct: f64) -> f64 {
    KERNEL_TOLERANCE_PCT
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(default_pct, |(_, pct)| pct.max(default_pct))
}

/// Pull `entries` out of a manifest and key each one `kernel/variant`.
fn entries_by_key(manifest: &Value) -> Result<Vec<(String, &Value)>, String> {
    let Some(Value::Array(items)) = manifest.get("entries") else {
        return Err("manifest has no `entries` array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let (Some(kernel), Some(variant)) = (str_field(item, "kernel"), str_field(item, "variant"))
        else {
            return Err(format!("entry #{i} lacks a `kernel` or `variant` string"));
        };
        let key = format!("{kernel}/{variant}");
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate entry key `{key}`"));
        }
        out.push((key, item));
    }
    Ok(out)
}

fn uint_field(v: &Value, key: &str) -> Option<u64> {
    match v.get(key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn float_field(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = r#"{
  "schema_version": 1,
  "host_threads": 1,
  "catapult_threads": null,
  "os": "linux",
  "arch": "x86_64",
  "warmup_reps": 1,
  "pair_budget_nodes": 200000,
  "entries": [
    {"kernel": "mcs", "variant": "pruned", "secs_median": 0.100000, "reps": 5, "probes": 1234, "probes_per_sec": 12340.0, "pairs": 45},
    {"kernel": "canonical", "variant": "-", "secs_median": 0.000100, "reps": 5, "probes": 0, "probes_per_sec": 0.0, "pairs": 45}
  ]
}
"#;

    fn opts() -> DiffOpts {
        DiffOpts::default()
    }

    #[test]
    fn identical_manifests_pass() {
        let report = diff(KERNELS, KERNELS, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
        assert!(!report.cross_host);
    }

    #[test]
    fn probe_drift_is_a_regression_even_when_faster() {
        let new = KERNELS.replace("\"probes\": 1234", "\"probes\": 1233");
        let report = diff(KERNELS, &new, &opts()).expect("comparable");
        assert_eq!(report.regressions, 1);
        assert!(report.lines[0].contains("deterministic counter `probes`"));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_speedup_passes() {
        let slow = KERNELS.replace("\"secs_median\": 0.100000", "\"secs_median\": 0.140000");
        let report = diff(KERNELS, &slow, &opts()).expect("comparable");
        assert_eq!(report.regressions, 1, "{:?}", report.lines);
        assert!(report.lines[0].contains("secs_median"));

        let fast = KERNELS.replace("\"secs_median\": 0.100000", "\"secs_median\": 0.050000");
        let report = diff(KERNELS, &fast, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
        assert!(report.lines.iter().any(|l| l.contains("improved")));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let new = KERNELS.replace("\"secs_median\": 0.100000", "\"secs_median\": 0.120000");
        let report = diff(KERNELS, &new, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
    }

    #[test]
    fn micro_kernels_get_wider_tolerance() {
        // +50% on the sub-millisecond canonical kernel: within its 80%
        // floor, but far beyond the 30% default.
        let new = KERNELS.replace("\"secs_median\": 0.000100", "\"secs_median\": 0.000150");
        let report = diff(KERNELS, &new, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
        assert!((tolerance_pct_for("canonical/-", 30.0) - 80.0).abs() < 1e-9);
        assert!((tolerance_pct_for("canonical/-", 95.0) - 95.0).abs() < 1e-9);
        assert!((tolerance_pct_for("mcs/pruned", 30.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cross_host_is_refused_unless_allowed() {
        let other = KERNELS.replace("\"host_threads\": 1", "\"host_threads\": 8");
        let err = diff(KERNELS, &other, &opts()).expect_err("must refuse");
        assert!(err.contains("--allow-cross-host"), "{err}");

        let allowed = DiffOpts {
            allow_cross_host: true,
            ..opts()
        };
        // Cross-host mode still catches deterministic drift but ignores
        // a wall-clock swing that would otherwise fail.
        let other = other
            .replace("\"secs_median\": 0.100000", "\"secs_median\": 0.900000")
            .replace("\"probes\": 1234", "\"probes\": 99");
        let report = diff(KERNELS, &other, &allowed).expect("comparable");
        assert!(report.cross_host);
        assert_eq!(report.regressions, 1, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("deterministic counter `probes`")));
    }

    #[test]
    fn deterministic_only_skips_wall_clock_even_same_host() {
        let slow = KERNELS.replace("\"secs_median\": 0.100000", "\"secs_median\": 0.900000");
        let det = DiffOpts {
            deterministic_only: true,
            ..opts()
        };
        let report = diff(KERNELS, &slow, &det).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
        // Probe drift still fails.
        let drift = slow.replace("\"probes\": 1234", "\"probes\": 4321");
        let report = diff(KERNELS, &drift, &det).expect("comparable");
        assert_eq!(report.regressions, 1);
    }

    #[test]
    fn fingerprint_absent_from_both_is_not_cross_host() {
        // Pre-fingerprint manifests (no os/arch/catapult_threads keys)
        // must stay diffable against each other.
        let legacy = r#"{
  "schema_version": 1,
  "host_threads": 1,
  "entries": [
    {"kernel": "mcs", "variant": "pruned", "secs_median": 0.100000, "reps": 5, "probes": 1234, "probes_per_sec": 12340.0, "pairs": 45}
  ]
}
"#;
        let report = diff(legacy, legacy, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0);
        assert!(!report.cross_host);
    }

    #[test]
    fn missing_entry_fails_extra_entry_notes() {
        let one_entry = KERNELS.replace(
            "    {\"kernel\": \"canonical\", \"variant\": \"-\", \"secs_median\": 0.000100, \"reps\": 5, \"probes\": 0, \"probes_per_sec\": 0.0, \"pairs\": 45}\n",
            "",
        );
        let one_entry = one_entry.replace("\"pairs\": 45},", "\"pairs\": 45}");
        let report = diff(KERNELS, &one_entry, &opts()).expect("comparable");
        assert_eq!(report.regressions, 1);
        assert!(report.lines[0].contains("missing from NEW"));

        let report = diff(&one_entry, KERNELS, &opts()).expect("comparable");
        assert_eq!(report.regressions, 0, "{:?}", report.lines);
        assert!(report.lines.iter().any(|l| l.contains("new entry")));
    }

    #[test]
    fn schema_and_parse_errors_are_usage_errors() {
        assert!(diff("{", KERNELS, &opts()).is_err());
        assert!(diff(KERNELS, "not json", &opts()).is_err());
        let v2 = KERNELS.replace("\"schema_version\": 1", "\"schema_version\": 2");
        let err = diff(KERNELS, &v2, &opts()).expect_err("schema mismatch");
        assert!(err.contains("schema_version mismatch"), "{err}");
        let none = KERNELS.replace("\"schema_version\": 1,\n", "");
        assert!(diff(&none, KERNELS, &opts()).is_err());
        // An entry keyed only by `workload` (the retired thread-scaling
        // manifest shape) is not a kernel entry.
        let workload_only = KERNELS.replace(
            "{\"kernel\": \"mcs\", \"variant\": \"pruned\", ",
            "{\"workload\": \"mining\", ",
        );
        assert_ne!(workload_only, KERNELS);
        let err = diff(&workload_only, KERNELS, &opts()).expect_err("workload-only entry");
        assert!(err.contains("entry #0"), "{err}");
    }

    #[test]
    fn duplicate_entry_keys_are_rejected() {
        let dup = KERNELS.replace("\"kernel\": \"canonical\"", "\"kernel\": \"mcs\"");
        let dup = dup.replace("\"variant\": \"-\"", "\"variant\": \"pruned\"");
        assert!(diff(&dup, &dup, &opts()).is_err());
    }
}
