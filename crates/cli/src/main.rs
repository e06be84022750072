//! `adampack` — YAML-driven sphere packing from the command line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adampack_cli::{run_info, run_pack_opts, CliError, PackOptions};
use adampack_config::ConsoleLevel;
use adampack_core::Kernel;
use adampack_telemetry::{DiagMode, Level};

const USAGE: &str = "\
adampack — rapid random packing of poly-disperse spheres (Adam/AMSGrad)

USAGE:
    adampack pack <config.yaml> [--out <file.{csv,vtk,xyz}>]
                  [--trace-out <run.jsonl>] [--metrics-out <metrics.prom>]
                  [--log-level <error|warn|info|debug|trace|off>]
                  [--threads <n>] [--kernel <scalar|simd>]
                  [--checkpoint <run.ckpt>] [--checkpoint-every <steps>]
                  [--checkpoint-keep <n>] [--resume]
                  [--batch-seeds <s1,s2,…>] [--batch-lrs <lr1,lr2,…>]
                  [--batch-scales <x1,x2,…>]
                  [--trace-timeline <trace.json>]
                  [--diagnostics <off|summary|events>]
    adampack info <config.yaml>
    adampack serve [--addr <host:port>] [--workers <n>] [--http-threads <n>]
                   [--data-dir <dir>] [--config-base <dir>]
                   [--slice-ms <ms>] [--checkpoint-every <steps>]
                   [--checkpoint-keep <n>] [--queue-shards <n>]
                   [--config <limits.yaml>] [--max-body-bytes <n>]
                   [--read-timeout-ms <ms>] [--queue-depth <n>]
                   [--memory-budget-bytes <n>] [--cache-cap-bytes <n>]
                   [--job-deadline-s <s>] [--job-step-ceiling <n>]
    adampack help

COMMANDS:
    pack    run the packing described by the configuration and report
            particle count, core density, overlap stats and timing
    info    print the parsed configuration without running it
    serve   run the packing job server: POST a YAML config to /jobs,
            poll GET /jobs/{id}, fetch GET /jobs/{id}/artifact, cancel
            with POST /jobs/{id}/cancel, scrape GET /metrics. Jobs are
            content-addressed (semantically equal configs coalesce and
            completed results are served byte-identical from the cache
            in <data-dir>/artifacts), scheduled fair-share with
            checkpoint-shaped preemption, and crash-recoverable from
            the rotating checkpoints in <data-dir>/jobs.
            Production hardening: oversized jobs are refused at
            admission (413, from a pre-admission cost estimate), full
            queues or an exhausted memory budget shed load (429 with
            Retry-After), GET /readyz reports load-aware readiness
            separately from GET /healthz liveness, the artifact and
            checkpoint store is LRU-capped at --cache-cap-bytes, jobs
            exceeding --job-deadline-s or --job-step-ceiling end in
            status 'expired' with their newest checkpoint kept (resubmit
            to resume), and SIGTERM drains gracefully: admission stops,
            running jobs finish or checkpoint, the process exits 0.
            --config reads the same limits from a `server:` YAML block;
            explicit flags override it

Flags override the configuration's `telemetry:` block: --trace-out
streams a per-step JSONL record (loss terms, gradient norm, lr, max
displacement), --metrics-out writes a Prometheus-style counter and
histogram snapshot after the run.

--threads overrides the configuration's `params.threads` worker count
for the parallel phases (0 = one per hardware thread). Results are
bitwise identical for any value.

--kernel overrides the configuration's `params.kernel` arithmetic
kernel for the hot loops (default simd). scalar and simd produce
bitwise identical packings; scalar survives as the correctness oracle.

--checkpoint writes a crash-resume checkpoint (atomic temp+rename,
rotated history) at the first batch boundary after every
--checkpoint-every optimizer steps (default 500), keeping
--checkpoint-keep files (default 2); these flags override the
configuration's `checkpoint:` block. Checkpoints never change the
packing, at any cadence. --resume continues from the newest readable
checkpoint — the resumed run finishes bitwise identical to an
uninterrupted one — falling back to older rotated files when the newest
is torn or corrupt.

--batch-seeds / --batch-lrs / --batch-scales sweep the full cartesian
grid seeds × learning rates × PSD radius scales as independent systems
packed by one batched engine pass (comma-separated values; these flags
override the configuration's `batch:` block axis by axis). Each system
is bitwise identical to the equivalent single run; with --out, per-
system files are written as `out.<label>.vtk` for labels like
`s7_lr0.01`. Batched checkpoints carry one section per system and
resume bitwise; resuming under a different grid, thread count or
kernel is rejected with exit 7.

--trace-timeline records the run's hierarchical spans (passes, batches,
spawn/gradient/optimizer/acceptance, grid builds, kernels) in Chrome
Trace Format — open the file in chrome://tracing or Perfetto. Events
are labeled by thread and, in batched sweeps, by system. The tracer is
off unless this flag (or `telemetry.timeline_out`) is given and costs
one atomic load per span when off. Every run with --out also writes a
provenance manifest `out.manifest.json` (one per system when batched)
recording the parameter fingerprint, context salt, kernel/ISA, seed,
threads, per-phase wall-clock and artifact list.

--diagnostics enables per-batch convergence diagnostics (loss slope
over a sliding window, gradient-norm trend, acceptance rate,
oscillation rate, stall/divergence classification): `summary` adds a
convergence row to the quality report, `events` additionally emits
per-batch instant events on the timeline. Diagnostics read the
trajectory but never steer it — packings are bitwise identical with
diagnostics on or off.

EXIT CODES:
    0 success   2 usage   3 configuration   4 geometry   5 i/o
    6 divergence budget exhausted   7 checkpoint/resume failure
    9 job server failure
";

fn parse_num_list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, CliError> {
    let xs: Vec<T> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<T>()
                .map_err(|_| CliError::Usage(format!("{flag}: bad value '{s}' in '{v}'")))
        })
        .collect::<Result<_, _>>()?;
    if xs.is_empty() {
        return Err(CliError::Usage(format!(
            "{flag} requires a comma-separated list of values"
        )));
    }
    Ok(xs)
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            adampack_telemetry::error!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<(), CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("pack") => {
            let config = it
                .next()
                .ok_or_else(|| CliError::Usage("pack requires a configuration path".into()))?;
            let mut opts = PackOptions::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| CliError::Usage(format!("{name} requires a path")))
                };
                match flag.as_str() {
                    "--out" => opts.out = Some(value("--out")?),
                    "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
                    "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
                    "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")?),
                    "--checkpoint-every" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--checkpoint-every requires a step count".into())
                        })?;
                        let steps: usize = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                            CliError::Usage(format!(
                                "--checkpoint-every expects a positive integer, got '{v}'"
                            ))
                        })?;
                        opts.checkpoint_every = Some(steps);
                    }
                    "--checkpoint-keep" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--checkpoint-keep requires a count".into())
                        })?;
                        let keep: usize = v.parse().ok().filter(|&k| k > 0).ok_or_else(|| {
                            CliError::Usage(format!(
                                "--checkpoint-keep expects a positive integer, got '{v}'"
                            ))
                        })?;
                        opts.checkpoint_keep = Some(keep);
                    }
                    "--resume" => opts.resume = true,
                    "--trace-timeline" => opts.trace_timeline = Some(value("--trace-timeline")?),
                    "--diagnostics" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage(format!(
                                "--diagnostics requires a mode (accepted: {})",
                                DiagMode::ACCEPTED
                            ))
                        })?;
                        opts.diagnostics = Some(DiagMode::parse(v).ok_or_else(|| {
                            CliError::Usage(format!(
                                "--diagnostics: unknown mode '{v}' (accepted: {})",
                                DiagMode::ACCEPTED
                            ))
                        })?);
                    }
                    "--batch-seeds" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--batch-seeds requires a seed list".into())
                        })?;
                        opts.batch_seeds = Some(parse_num_list::<u64>("--batch-seeds", v)?);
                    }
                    "--batch-lrs" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--batch-lrs requires a learning-rate list".into())
                        })?;
                        let lrs = parse_num_list::<f64>("--batch-lrs", v)?;
                        if lrs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
                            return Err(CliError::Usage(format!(
                                "--batch-lrs: learning rates must be positive and finite, got '{v}'"
                            )));
                        }
                        opts.batch_lrs = Some(lrs);
                    }
                    "--batch-scales" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--batch-scales requires a scale list".into())
                        })?;
                        let scales = parse_num_list::<f64>("--batch-scales", v)?;
                        if scales.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
                            return Err(CliError::Usage(format!(
                                "--batch-scales: scales must be positive and finite, got '{v}'"
                            )));
                        }
                        opts.batch_scales = Some(scales);
                    }
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--threads requires a count".into()))?;
                        opts.threads = v.parse().map_err(|_| {
                            CliError::Usage(format!(
                                "--threads expects a non-negative integer, got '{v}'"
                            ))
                        })?;
                    }
                    "--kernel" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError::Usage("--kernel requires a name".into()))?;
                        opts.kernel = Some(Kernel::parse(v).ok_or_else(|| {
                            CliError::Usage(format!(
                                "--kernel expects 'scalar' or 'simd', got '{v}'"
                            ))
                        })?);
                    }
                    "--log-level" => {
                        let v = it.next().ok_or_else(|| {
                            CliError::Usage("--log-level requires a level".into())
                        })?;
                        opts.log_level = Some(match Level::parse(v) {
                            Ok(Some(level)) => ConsoleLevel::Fixed(level),
                            Ok(None) => ConsoleLevel::Off,
                            Err(e) => return Err(CliError::Usage(e)),
                        });
                    }
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown flag '{other}' (try 'adampack help' for the accepted flags)"
                        )));
                    }
                }
            }
            let summary = run_pack_opts(Path::new(config), &opts)?;
            println!("packed:        {}", summary.packed);
            println!("core density:  {:.4}", summary.core_density);
            println!(
                "mean overlap:  {:.3}% of radius",
                summary.mean_overlap_ratio * 100.0
            );
            println!("time:          {:.2} s", summary.seconds);
            if let Some(p) = summary.output {
                println!("output:        {}", p.display());
            }
            Ok(())
        }
        Some("serve") => {
            let mut opts = adampack_server::ServeOptions::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))
                };
                fn positive(name: &str, v: &str) -> Result<usize, CliError> {
                    v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        CliError::Usage(format!("{name} expects a positive integer, got '{v}'"))
                    })
                }
                fn nonneg(name: &str, v: &str) -> Result<u64, CliError> {
                    v.parse().map_err(|_| {
                        CliError::Usage(format!(
                            "{name} expects a non-negative integer (0 = unlimited), got '{v}'"
                        ))
                    })
                }
                match flag.as_str() {
                    "--addr" => opts.addr = value("--addr")?,
                    "--workers" => opts.workers = positive("--workers", &value("--workers")?)?,
                    "--http-threads" => {
                        opts.http_threads = positive("--http-threads", &value("--http-threads")?)?
                    }
                    "--queue-shards" => {
                        opts.queue_shards = positive("--queue-shards", &value("--queue-shards")?)?
                    }
                    "--data-dir" => opts.data_dir = PathBuf::from(value("--data-dir")?),
                    "--config-base" => opts.config_base = PathBuf::from(value("--config-base")?),
                    "--slice-ms" => {
                        opts.slice_ms = positive("--slice-ms", &value("--slice-ms")?)? as u64
                    }
                    "--checkpoint-every" => {
                        opts.checkpoint_every =
                            positive("--checkpoint-every", &value("--checkpoint-every")?)?
                    }
                    "--checkpoint-keep" => {
                        opts.keep_last =
                            positive("--checkpoint-keep", &value("--checkpoint-keep")?)?
                    }
                    "--config" => {
                        let path = PathBuf::from(value("--config")?);
                        opts.limits =
                            adampack_config::ServerConfig::from_file(&path).map_err(|e| {
                                CliError::Usage(format!("--config {}: {e}", path.display()))
                            })?;
                    }
                    "--max-body-bytes" => {
                        opts.limits.max_body_bytes =
                            positive("--max-body-bytes", &value("--max-body-bytes")?)?
                    }
                    "--read-timeout-ms" => {
                        opts.limits.read_timeout_ms =
                            positive("--read-timeout-ms", &value("--read-timeout-ms")?)? as u64
                    }
                    "--queue-depth" => {
                        opts.limits.queue_depth =
                            positive("--queue-depth", &value("--queue-depth")?)?
                    }
                    "--memory-budget-bytes" => {
                        opts.limits.memory_budget_bytes =
                            nonneg("--memory-budget-bytes", &value("--memory-budget-bytes")?)?
                    }
                    "--cache-cap-bytes" => {
                        opts.limits.cache_cap_bytes =
                            nonneg("--cache-cap-bytes", &value("--cache-cap-bytes")?)?
                    }
                    "--job-deadline-s" => {
                        opts.limits.job_deadline_s =
                            nonneg("--job-deadline-s", &value("--job-deadline-s")?)?
                    }
                    "--job-step-ceiling" => {
                        opts.limits.job_step_ceiling =
                            nonneg("--job-step-ceiling", &value("--job-step-ceiling")?)?
                    }
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown flag '{other}' (try 'adampack help' for the accepted flags)"
                        )));
                    }
                }
            }
            // SIGTERM/SIGINT trigger a graceful drain: stop admitting,
            // finish or checkpoint running jobs at the next boundary,
            // flush telemetry, exit 0.
            adampack_server::signal::install();
            let handle = adampack_server::Server::start(opts)
                .map_err(|e| CliError::Server(e.to_string()))?;
            println!("listening on http://{}", handle.addr());
            loop {
                if adampack_server::signal::termination_requested() {
                    handle.drain();
                    return Ok(());
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
        Some("info") => {
            let config = it
                .next()
                .ok_or_else(|| CliError::Usage("info requires a configuration path".into()))?;
            print!("{}", run_info(Path::new(config))?);
            Ok(())
        }
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command '{other}' (try 'adampack help')"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_diagnostics_mode_is_usage_error_naming_accepted_values() {
        let err = dispatch(args(&["pack", "cfg.yaml", "--diagnostics", "verbose"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("verbose"), "{msg}");
        assert!(msg.contains("'off', 'summary' or 'events'"), "{msg}");
    }

    #[test]
    fn missing_diagnostics_value_is_usage_error_naming_accepted_values() {
        let err = dispatch(args(&["pack", "cfg.yaml", "--diagnostics"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("'off', 'summary' or 'events'"));
    }

    #[test]
    fn missing_trace_timeline_path_is_usage_error() {
        let err = dispatch(args(&["pack", "cfg.yaml", "--trace-timeline"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--trace-timeline"));
    }

    #[test]
    fn unknown_kernel_still_names_accepted_values() {
        let err = dispatch(args(&["pack", "cfg.yaml", "--kernel", "avx512"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("'scalar' or 'simd'"), "{msg}");
        assert!(msg.contains("avx512"), "{msg}");
    }

    /// The deleted mixed-precision kernel is a usage error, not a panic.
    #[test]
    fn removed_kernel_is_usage_error_naming_accepted_values() {
        let mixed = concat!("simd_", "mixed");
        let err = dispatch(args(&["pack", "cfg.yaml", "--kernel", mixed])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("'scalar' or 'simd'"), "{msg}");
        assert!(msg.contains(mixed), "{msg}");
    }

    /// Every run retires settled spheres, so `--tiles` is gone: any value,
    /// valid count or not, is an unknown-flag usage error that points at
    /// the help listing the accepted flags.
    #[test]
    fn bad_tiles_is_usage_error_naming_accepted_values() {
        for v in ["0", "-3", "two", "1.5", "3"] {
            let err = dispatch(args(&["pack", "cfg.yaml", "--tiles", v])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--tiles {v}");
            let msg = err.to_string();
            assert!(msg.contains("unknown flag '--tiles'"), "{msg}");
            assert!(msg.contains("try 'adampack help'"), "{msg}");
        }
    }

    #[test]
    fn missing_tiles_value_is_usage_error() {
        let err = dispatch(args(&["pack", "cfg.yaml", "--tiles"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown flag '--tiles'"), "{err}");
    }

    #[test]
    fn serve_limit_flags_reject_bad_values_with_exit_2() {
        for (flag, bad) in [
            ("--max-body-bytes", "0"),
            ("--max-body-bytes", "lots"),
            ("--read-timeout-ms", "0"),
            ("--queue-depth", "-1"),
            ("--memory-budget-bytes", "2GiB"),
            ("--cache-cap-bytes", "-5"),
            ("--job-deadline-s", "soon"),
            ("--job-step-ceiling", "1.5"),
        ] {
            let err = dispatch(args(&["serve", flag, bad])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag} {bad}");
            let msg = err.to_string();
            assert!(msg.contains(flag), "{msg}");
            assert!(msg.contains(bad), "{msg}");
        }
    }

    #[test]
    fn serve_limit_flags_require_values() {
        for flag in [
            "--max-body-bytes",
            "--read-timeout-ms",
            "--queue-depth",
            "--memory-budget-bytes",
            "--cache-cap-bytes",
            "--job-deadline-s",
            "--job-step-ceiling",
            "--config",
        ] {
            let err = dispatch(args(&["serve", flag])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag}");
            assert!(err.to_string().contains(flag), "{flag}");
        }
    }

    #[test]
    fn serve_config_with_missing_file_is_usage_error() {
        let err = dispatch(args(&["serve", "--config", "/nonexistent/limits.yaml"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("limits.yaml"));
    }
}
