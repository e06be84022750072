//! `--compare A B`: judges run set B against run set A, one row per
//! end-to-end metric × workload, with the bounds `BENCHMARK.json` fixes.
//!
//! The allowed change is the bound times the median, but never less than
//! the metric's absolute floor (2 ms for `setup_s`). A row is
//! *unresolved* when either side's run-to-run
//! spread (quartile distance) exceeds the allowed change, unless every run
//! of one side beats every run of the other. Otherwise B is *worse* when
//! its median is worse than A's by more than the allowed change, *better*
//! when it is better by more, and *the same* in between.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::quartiles;

/// Absolute floors under the relative bounds, in each metric's unit.
/// `BENCHMARK.json` holds relative bounds only; this keeps a change of a
/// few microseconds in a microsecond-scale set-up from counting.
const FLOORS: &[(&str, f64)] = &[("setup_s", 0.002)];

/// An end-to-end metric's declared direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
    /// Allowed worsening is never less than this, in the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// The change allowed around `median`, in the metric's unit.
    fn allowed(&self, median: f64) -> f64 {
        (self.bound * median.abs()).max(self.floor)
    }
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(benchmark_json)?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            Ok(Bound {
                name: name.into(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
                floor: FLOORS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, f)| f),
            })
        })
        .collect()
}

/// Untraced runs in a ledger (one JSON result per line): workload →
/// metric → one value per run.
pub fn load_runs(ledger: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in ledger
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let w = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                runs.entry(w.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(runs)
}

/// The outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's for one metric.
pub fn verdict(a: &[f64], b: &[f64], bd: &Bound) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let allowed = bd.allowed(am);
    // Positive: B is worse.
    let worse_by = if bd.lower_is_better { bm - am } else { am - bm };
    let beats = |x: f64, y: f64| if bd.lower_is_better { x < y } else { x > y };
    let b_all_win = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let a_all_win = a.iter().all(|&y| b.iter().all(|&x| beats(y, x)));
    if a3 - a1 > allowed || b3 - b1 > bd.allowed(bm) {
        if b_all_win {
            Verdict::Better
        } else if a_all_win {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Renders the comparison table; returns it and whether every row came
/// out the same or better.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (ra, rb) = (load_runs(a)?, load_runs(b)?);
    let mut table = format!(
        "{:<14} {:<16} {:>34} {:>34} {:>9} {}\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict"
    );
    let mut ok = true;
    let mut rows = 0;
    for (w, ma) in &ra {
        let Some(mb) = rb.get(w) else { continue };
        for bd in &bounds {
            let (Some(xa), Some(xb)) = (ma.get(&bd.name), mb.get(&bd.name)) else {
                continue;
            };
            let v = verdict(xa, xb, bd);
            ok &= matches!(v, Verdict::Same | Verdict::Better);
            rows += 1;
            let (a1, am, a3) = quartiles(xa);
            let (b1, bm, b3) = quartiles(xb);
            let cell =
                |q1: f64, m: f64, q3: f64, n: usize| format!("{m:.5} [{q1:.5}, {q3:.5}] ({n})");
            table.push_str(&format!(
                "{:<14} {:<16} {:>34} {:>34} {:>+8.2}% {}\n",
                w,
                bd.name,
                cell(a1, am, a3, xa.len()),
                cell(b1, bm, b3, xb.len()),
                (bm - am) / am.abs().max(f64::MIN_POSITIVE) * 100.0,
                v.name()
            ));
        }
    }
    if rows == 0 {
        return Err("no workload has untraced runs on both sides".into());
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64, floor: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound,
            floor,
        }
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let (lower, higher) = (bound(true, 0.05, 0.0), bound(false, 0.05, 0.0));
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&a, &[100.2, 100.8, 99.5, 100.1, 100.4], &lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[110.0, 111.0, 109.0, 110.0, 110.5], &lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.0, 90.5], &lower),
            Verdict::Better
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.0, 90.5], &higher),
            Verdict::Worse
        );
        // A noisy side is unresolved ...
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&a, &noisy, &lower), Verdict::Unresolved);
        // ... unless one side beats the other in every run.
        let far = [200.0, 260.0, 230.0, 300.0, 210.0];
        assert_eq!(verdict(&a, &far, &lower), Verdict::Worse);
        assert_eq!(verdict(&far, &a, &lower), Verdict::Better);
    }

    #[test]
    fn absolute_floor_covers_small_medians() {
        // A 40 µs set-up that spreads and moves by far more than 10 %
        // stays within a 2 ms floor.
        let setup = bound(true, 0.1, 0.002);
        let a = [40e-6, 55e-6, 45e-6, 70e-6, 50e-6];
        let b = [60e-6, 80e-6, 65e-6, 90e-6, 75e-6];
        assert_eq!(verdict(&a, &b, &bound(true, 0.1, 0.0)), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, &setup), Verdict::Same);
        // A move past the floor still counts.
        let slow = [4e-3, 4.1e-3, 4.2e-3, 3.9e-3, 4e-3];
        assert_eq!(verdict(&a, &slow, &setup), Verdict::Worse);
        let floors = bounds(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("bounds parse");
        assert_eq!(floors[0].floor, 0.002);
        assert_eq!(floors[1].floor, 0.0);
    }

    #[test]
    fn compare_reads_ledgers_and_skips_traced_runs() {
        let bench = r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let run = |v: f64, trace: bool| {
            format!(
                "{{\"workload\":\"box_capacity\",\"trace\":{trace},\"metrics\":{{\"latency_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
            )
        };
        let a: String = [100.0, 101.0, 99.0]
            .iter()
            .map(|&v| run(v, false))
            .collect();
        let b: String = [100.0, 100.5, 99.5]
            .iter()
            .map(|&v| run(v, false))
            .collect::<String>()
            + &run(500.0, true);
        let (table, ok) = compare(bench, &a, &b).expect("comparable");
        assert!(ok, "{table}");
        assert!(table.contains("same"));
        let worse: String = [150.0, 151.0, 149.0]
            .iter()
            .map(|&v| run(v, false))
            .collect();
        assert!(!compare(bench, &a, &worse).expect("comparable").1);
    }
}
