//! The harness against its declaration: the metric tables match
//! `BENCHMARK.json`, and every workload, at a reduced size, runs clean and
//! reports exactly the declared metric names in both modes.

use adampack_bench_e2e::json::{self, Value};
use adampack_bench_e2e::{run_workload, select, Config, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(list: &str, key: &str) -> Vec<String> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get(key)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

fn names(table: &[(&str, &str)]) -> Vec<String> {
    table.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn tables_match_benchmark_json() {
    assert_eq!(declared("end_to_end", "name"), names(END_TO_END));
    assert_eq!(declared("per_layer", "name"), names(PER_LAYER));
    let units = |t: &[(&str, &str)]| t.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
    assert_eq!(declared("end_to_end", "unit"), units(END_TO_END));
    assert_eq!(declared("per_layer", "unit"), units(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads", "name"), workloads);
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload: w,
                seed: 5,
                seconds: 0.3,
                trace,
                tiny: true,
                work_dir: tmp.join(format!("{}.{trace}", w.name())),
            };
            let out = run_workload(&cfg);
            assert!(
                out.errors.is_empty(),
                "{} trace={trace}: {:?}",
                w.name(),
                out.errors
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let metrics = select(&out, trace).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let got: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
            let want = if trace {
                names(PER_LAYER)
            } else {
                names(END_TO_END)
            };
            assert_eq!(got, want, "{} trace={trace}", w.name());
            assert!(!out.digests.is_empty(), "{} reports no digest", w.name());
            if trace {
                assert!(!out.spans.is_empty(), "{} recorded no spans", w.name());
            } else {
                assert!(out.spans.is_empty());
                for m in &metrics {
                    assert!(
                        m.value > 0.0,
                        "{}: end-to-end {} is {}",
                        w.name(),
                        m.name,
                        m.value
                    );
                }
            }
            assert!(!cfg.work_dir.exists(), "work dir left behind");
        }
    }
}
