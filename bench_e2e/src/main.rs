//! `bench_e2e` — the end-to-end + per-layer benchmark.
//!
//! ```text
//! bench_e2e --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--out-dir DIR]
//! bench_e2e --compare A.jsonl B.jsonl
//! ```
//!
//! A run prints every metric with its unit and sample count, then, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics untraced, per-layer metrics with `--trace`. Results
//! also land in `<out-dir>/<workload>.s<seed>.json` (plus a Chrome trace
//! when traced) and one line of `<out-dir>/runs.jsonl`, the ledger
//! `--compare` reads. The exit code is non-zero when any check failed.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use adampack_bench_e2e::{
    json, result_json, run_workload, select, spans, Config, Reported, Workload,
};

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: bench_e2e --workload <box_capacity|column_50k|furnace_poly|sweep_s8|serve_mixed|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--out-dir DIR]\n       bench_e2e --compare A.jsonl B.jsonl";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let default_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench");
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: default_out,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                let x = value("two files")?;
                a.compare = Some((PathBuf::from(x), PathBuf::from(value("two files")?)));
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(&args, w),
            None => {
                eprintln!("bench_e2e: unknown workload {name}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("bench_e2e: --workload or --compare is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let result = read(Path::new("BENCHMARK.json"))
        .and_then(|bench| Ok((bench, read(a)?, read(b)?)))
        .and_then(|(bench, ta, tb)| adampack_bench_e2e::compare::compare(&bench, &ta, &tb));
    match result {
        Ok((table, ok)) => {
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_one(args: &Args, w: Workload) -> ExitCode {
    let tag = format!("{}.s{}", w.name(), args.seed);
    let cfg = Config {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        work_dir: args
            .out_dir
            .join("work")
            .join(format!("{tag}.{}", std::process::id())),
    };
    let out = run_workload(&cfg);
    let (metrics, mut errors) = match select(&out, args.trace) {
        Ok(m) => (m, out.errors.clone()),
        Err(e) => (Vec::new(), [out.errors.clone(), vec![e]].concat()),
    };
    let correct = errors.is_empty() && out.failed == 0;
    let failed = out.failed.max(u64::from(!correct));

    println!(
        "bench_e2e {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &out.notes {
        println!("  {k:<32} {v}");
    }
    for m in &metrics {
        println!(
            "  {:<32} {:>16} {:<9} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    for (label, d) in &out.digests {
        println!("  digest {label:<25} {d:016x}");
    }
    println!(
        "  attempted {} failed {} error_rate {}",
        out.attempted,
        failed,
        failed as f64 / out.attempted.max(1) as f64
    );
    for e in &errors {
        eprintln!("bench_e2e: {e}");
    }

    if let Err(e) = save(args, &tag, &out, &metrics, correct, failed) {
        errors.push(e.clone());
        eprintln!("bench_e2e: {e}");
    }
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), failed, &metrics)
    );
    if correct && errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the run's report and Chrome trace, and appends to the ledger.
fn save(
    args: &Args,
    tag: &str,
    out: &adampack_bench_e2e::Outcome,
    metrics: &[Reported],
    correct: bool,
    failed: u64,
) -> Result<(), String> {
    let dir = &args.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
    let report = obj(vec![
        format!(
            "\"workload\":\"{}\"",
            json::esc(tag.split('.').next().unwrap_or(tag))
        ),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", args.trace),
        format!("\"correct\":{correct}"),
        format!("\"attempted\":{}", out.attempted),
        format!("\"failed\":{failed}"),
        format!(
            "\"metrics\":{}",
            obj(metrics
                .iter()
                .map(|m| format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    json::esc(m.name),
                    m.value,
                    json::esc(m.unit),
                    m.samples
                ))
                .collect())
        ),
        format!(
            "\"digests\":{}",
            obj(out
                .digests
                .iter()
                .map(|(l, d)| format!("\"{}\":\"{d:016x}\"", json::esc(l)))
                .collect())
        ),
        format!(
            "\"notes\":{}",
            obj(out
                .notes
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json::esc(k), json::esc(v)))
                .collect())
        ),
        format!(
            "\"errors\":[{}]",
            out.errors
                .iter()
                .map(|e| format!("\"{}\"", json::esc(e)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ]);
    let suffix = if args.trace { "traced.json" } else { "json" };
    let write = |name: String, body: &str| {
        let p = dir.join(name);
        std::fs::write(&p, body).map_err(|e| format!("{}: {e}", p.display()))
    };
    write(format!("{tag}.{suffix}"), &format!("{report}\n"))?;
    if args.trace {
        write(
            format!("{tag}.trace.json"),
            &spans::chrome_trace(&out.spans),
        )?;
    }
    let ledger = dir.join("runs.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger)
        .and_then(|mut f| writeln!(f, "{report}"))
        .map_err(|e| format!("{}: {e}", ledger.display()))
}

/// Runs every workload, each in a child process of this same binary so
/// its peak RSS is its own; the last line merges their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stderr(Stdio::inherit())
            .output();
        let stdout = match child {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => {
                eprintln!("bench_e2e: {}: {e}", w.name());
                correct = false;
                continue;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        match json::parse(last) {
            Ok(v) => {
                correct &= v.get("correct") == Some(&json::Value::Bool(true));
                attempted += v
                    .get("attempted")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0) as u64;
                failed += v.get("failed").and_then(json::Value::as_f64).unwrap_or(1.0) as u64;
                if let Some(json::Value::Obj(ms)) = v.get("metrics") {
                    for (name, m) in ms {
                        merged.push(format!(
                            "\"{}.{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                            w.name(),
                            json::esc(name),
                            m.get("value")
                                .and_then(json::Value::as_f64)
                                .unwrap_or(f64::NAN),
                            json::esc(m.get("unit").and_then(json::Value::as_str).unwrap_or(""))
                        ));
                    }
                }
            }
            Err(e) => {
                eprintln!("bench_e2e: {}: no result line ({e})", w.name());
                correct = false;
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        merged.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
