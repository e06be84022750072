//! # adampack-bench
//!
//! The experiment harness: one binary per table/figure of the paper and per
//! ablation (see DESIGN.md §4 for the experiment index).
//!
//! Every binary prints the same rows/series the paper plots, at a
//! laptop-scale default configuration; pass `--full` for the paper-scale
//! parameters and `--repeats N` to change the repetition count. Raw series
//! are also written as CSV under `target/experiments/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Simple aggregate of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Mean value.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Aggregates a slice of samples (panics on empty input).
pub fn aggregate(samples: &[f64]) -> Agg {
    assert!(!samples.is_empty(), "no samples to aggregate");
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Agg {
        mean,
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Times a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Command-line helpers shared by the experiment binaries.
pub mod cli {
    /// True when the boolean flag is present.
    pub fn flag(name: &str) -> bool {
        std::env::args().any(|a| a == name)
    }

    /// Parses `--name value` as `usize`, with a default.
    pub fn usize_arg(name: &str, default: usize) -> usize {
        value_arg(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|e| panic!("invalid value for {name}: {e}"))
        })
    }

    /// Parses `--name value` as `u64`, with a default.
    pub fn u64_arg(name: &str, default: u64) -> u64 {
        value_arg(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|e| panic!("invalid value for {name}: {e}"))
        })
    }

    /// Parses `--name value` as `f64`, with a default.
    pub fn f64_arg(name: &str, default: f64) -> f64 {
        value_arg(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|e| panic!("invalid value for {name}: {e}"))
        })
    }

    fn value_arg(name: &str) -> Option<String> {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
    }
}

/// The experiment output directory (`target/experiments`), created on
/// first use.
pub fn experiments_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Opens `target/experiments/<name>.csv` for writing, creating directories.
pub fn csv_writer(name: &str) -> std::io::Result<(PathBuf, std::fs::File)> {
    let dir = experiments_dir()?;
    let path = dir.join(format!("{name}.csv"));
    let file = std::fs::File::create(&path)?;
    Ok((path, file))
}

/// Quotes a string as a JSON value.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.escape_default())
}

/// A `target/experiments/BENCH_<name>.json` report: top-level metadata
/// fields plus a `rows` array of objects, in insertion order. Replaces the
/// hand-rolled `json_row` + `create_dir_all` + `File::create` triplet the
/// experiment binaries used to duplicate.
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    name: String,
    meta: Vec<(String, String)>,
    rows: Vec<String>,
}

impl JsonReport {
    /// A report destined for `target/experiments/BENCH_<name>.json`.
    pub fn new(name: &str) -> JsonReport {
        JsonReport {
            name: name.to_string(),
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a top-level metadata field; `value` must already be rendered as
    /// JSON (numbers pass through, strings go through [`json_str`]).
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) -> &mut JsonReport {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends one row — a complete JSON object like `{"n": 3}`.
    pub fn row(&mut self, object: String) -> &mut JsonReport {
        self.rows.push(object);
        self
    }

    /// The report body (also what [`JsonReport::write`] persists).
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        for (k, v) in &self.meta {
            s.push_str(&format!("  \"{k}\": {v},\n"));
        }
        s.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str("    ");
            s.push_str(row);
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes `target/experiments/BENCH_<name>.json`, returning its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = experiments_dir()?.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// Writes one CSV row from string-able fields.
pub fn write_row<W: Write>(w: &mut W, fields: &[String]) -> std::io::Result<()> {
    writeln!(w, "{}", fields.join(","))
}

/// Formats a duration as seconds with millisecond resolution.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_basics() {
        let a = aggregate(&[1.0, 2.0, 3.0]);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn aggregate_empty_panics() {
        let _ = aggregate(&[]);
    }

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn cli_defaults_apply() {
        assert_eq!(cli::usize_arg("--never-passed", 5), 5);
        assert_eq!(cli::f64_arg("--never-passed", 0.5), 0.5);
        assert!(!cli::flag("--never-passed"));
    }

    #[test]
    fn json_report_renders_meta_and_rows() {
        let mut rep = JsonReport::new("demo");
        rep.meta("threads", 4)
            .meta("backend", json_str("sse2"))
            .row("{\"n\": 1}".to_string())
            .row("{\"n\": 2}".to_string());
        let body = rep.render();
        assert_eq!(
            body,
            "{\n  \"threads\": 4,\n  \"backend\": \"sse2\",\n  \"rows\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn json_report_with_no_rows_is_valid() {
        let body = JsonReport::new("empty").render();
        assert_eq!(body, "{\n  \"rows\": [\n  ]\n}\n");
    }
}
