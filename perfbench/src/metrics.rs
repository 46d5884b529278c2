//! Named metrics and the one-line JSON result.

use crate::stats::Summary;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric names are limited to `[A-Za-z0-9_.-]`, start with a letter or
/// digit, and are at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Collects metrics in report order and prints each as it is added.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record a metric and print it on its own line.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Print a figure that is reported but not part of the result line.
    pub fn print_only(&self, name: &str, value: f64, unit: &str) {
        println!("metric {name} = {value:.6} {unit} (printed only)");
    }

    /// Record a timing's median (scaled by `scale`, e.g. 1e6 for µs) and
    /// print it with its sample count and tail percentile.
    pub fn add_timing(&mut self, name: &'static str, s: &Summary, scale: f64, unit: &'static str) {
        print_timing(name, s, scale, unit, "");
        self.metrics.push(Metric {
            name,
            value: s.median * scale,
            unit,
        });
    }

    /// Print a timing like [`Report::add_timing`] without putting it on
    /// the result line.
    pub fn print_only_timing(&self, name: &str, s: &Summary, scale: f64, unit: &str) {
        print_timing(name, s, scale, unit, " (printed only)");
    }
}

fn print_timing(name: &str, s: &Summary, scale: f64, unit: &str, note: &str) {
    let tail = match s.tail {
        Some((p, v)) => format!("p{p} {:.6} {unit}", v * scale),
        None => {
            let all: Vec<String> = s
                .values
                .iter()
                .map(|v| format!("{:.6}", v * scale))
                .collect();
            format!(
                "no percentile has 10 samples beyond it; samples {}",
                all.join(" ")
            )
        }
    };
    println!(
        "metric {name} = {:.6} {unit} (median of {} samples; {tail}){note}",
        s.median * scale,
        s.samples
    );
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a figure that is not finite is
            // reported as 0 and the run is marked incorrect by the caller.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_limited_to_the_allowed_alphabet() {
        for ok in [
            "run_s",
            "mining.iso.calls",
            "trace.overhead_pct",
            "p99-x",
            "0a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".run",
            "_x",
            "run s",
            "μ_pct",
            "a/b",
            "x\"y",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_the_benchmark_emits_has_a_valid_name() {
        for name in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
    }

    /// The metric names `BENCHMARK.json` declares under `key`, in order.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = json
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("section present");
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), crate::END_TO_END);
        assert_eq!(declared("per_layer"), crate::PER_LAYER);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "run_s",
                value: 1.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
