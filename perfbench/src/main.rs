//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one named workload with inputs generated from `--seed`, checks
//! every output it can check, and prints as its last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around the benchmark's own calls
//! into each layer, writes them to `.bench_trace/`, and reports the
//! per-layer metrics derived from them. A correctness mismatch makes
//! the run exit non-zero (after printing the result line).
//!
//! Workloads: `ff-learned` and `hub-3q` drive an in-process
//! `StreamSession`; `serve-mixed` drives the `wsd-serve` binary built
//! beside this one as a separate process over loopback TCP.

mod engine;
mod host;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("events_per_cpu_s", "ev/s"), ("migrate_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (traced runs), with units. A workload that does
/// not exercise a layer leaves its metrics out, and they read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.busy_s", "s"),
    ("exact.busy_s", "s"),
    ("exact.instances", "count"),
    ("session.busy_s", "s"),
    ("engine.batches", "count"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("algorithms.busy_s", "s"),
    ("algorithms.uniform_busy_s", "s"),
    ("estimator.busy_s", "s"),
    ("estimator.share", "fraction"),
    ("weight.evals", "count"),
    ("weight.busy_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("are_triangle", "fraction"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.bytes_per_event", "bytes"),
    ("client.write_busy_s", "s"),
    ("client.read_p50_us", "us"),
    ("client.migrate_p50_ms", "ms"),
    ("shard.events_apply_us", "us"),
    ("shard.busy_s", "s"),
    ("shard.estimates_apply_us", "us"),
    ("shard.snapshot_apply_us", "us"),
    ("shard.restore_apply_us", "us"),
    ("transit.p50_ms", "ms"),
    ("push_p50_ms.low", "ms"),
    ("push_p50_ms.high", "ms"),
    ("push_p99_ms.low", "ms"),
    ("push_p99_ms.high", "ms"),
    ("ring.stalls", "count"),
    ("server.checkpoints_dropped", "count"),
    ("server.backlog_events_max", "count"),
    ("sustained_events_per_s", "ev/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("twin.events_per_s", "ev/s"),
    ("trace.overhead", "fraction"),
    ("host.speed", "fraction"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["ff-learned", "hub-3q", "serve-mixed"];

/// What one run was asked to do.
pub struct Ctx {
    /// Workload seed: drives stream generation and sampler seeds.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Common clock origin of every span.
    pub epoch: Instant,
}

/// Correctness bookkeeping: every checked operation is attempted, and
/// every mismatch is a failure, reported on stderr.
#[derive(Default)]
pub struct Checks {
    /// Operations attempted (each batch, frame, request and check).
    pub attempted: u64,
    /// Operations that failed or whose output mismatched.
    pub failed: u64,
}

impl Checks {
    /// Counts `n` operations that cannot fail on their own.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation; a `false` outcome is a failure,
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: MISMATCH: {}", what());
            }
        }
        ok
    }
}

/// A workload's result.
pub struct Outcome {
    /// Metric values by name (the mode's list, in any order).
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness bookkeeping.
    pub checks: Checks,
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for
/// this one), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_mb(pid, "VmHWM:")
}

/// A `kB` field of `/proc/<pid>/status`, in MiB (NaN if unreadable).
fn status_mb(pid: &str, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts measuring this process's peak resident set afresh: returns
/// freed heap memory to the kernel, resets the kernel's high-water mark
/// (`VmHWM`) to the current resident size, and returns that size in
/// MiB. `peak_rss_mb("self")` minus it is then the peak of what the
/// process allocated since, with everything resident before excluded.
pub fn reset_peak_rss() -> std::io::Result<f64> {
    // SAFETY: `malloc_trim` only releases memory no allocation owns.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(status_mb("self", "VmRSS:"))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit needed to round-trip the f64.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let ctx = Ctx { seed, seconds, trace, epoch };
    let mut tracer = trace::Tracer::new(epoch, trace, 1 << 16);
    let outcome = match workload.as_str() {
        "ff-learned" => engine::run(&engine::FF_LEARNED, &ctx, &mut tracer),
        "hub-3q" => engine::run(&engine::HUB_3Q, &ctx, &mut tracer),
        "serve-mixed" => match serve::run(&ctx, &mut tracer) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => return usage(&format!("unknown workload {other}")),
    };

    if trace {
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => {
                eprintln!("perfbench: {} spans written to {}", tracer.spans().len(), path.display())
            }
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        // A per-layer metric a workload does not report is a layer it
        // does not exercise: 0. Every end-to-end metric is required.
        let value = match outcome.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => value,
            None if trace => 0.0,
            None => {
                eprintln!("perfbench: {workload} did not report {name}");
                return ExitCode::FAILURE;
            }
        };
        println!("{name:<28} {value:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if let Some((extra, _)) = outcome.metrics.iter().find(|(n, _)| !table.iter().any(|t| t.0 == *n))
    {
        eprintln!("perfbench: {workload} reported unlisted metric {extra}");
        return ExitCode::FAILURE;
    }
    let checks = &outcome.checks;
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the benchmark
    /// reports, in the same order and with the same units.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = &entry[..entry.find('"').expect("name closes")];
                    let unit_at = entry.find("\"unit\": \"").map(|u| u + 9);
                    let unit = unit_at.map(|u| &entry[u..u + entry[u..].find('"').expect("unit")]);
                    (name.to_string(), unit.unwrap_or("").to_string())
                })
                .collect::<Vec<_>>()
        };
        let listed = |table: &[(&str, &str)]| {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), listed(END_TO_END));
        assert_eq!(section("per_layer"), listed(PER_LAYER));
        let workloads: Vec<String> = section("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
