//! The aeropack benchmark: seeded workloads driven through the public
//! API of the `thermal`, `solver`, `mission` and `serve` crates.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fv_steady|mission_orbit|serve_socket> --seed <n> \
//!     --seconds <s> --trace <0|1> [--p99-limit-ms <ms>]
//! ```
//!
//! A run prints a human-readable table, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full self-describing record (host, seed, every
//! metric's median, quartiles and sample count) is written to
//! `perfbench/out/`, with the traced run's spans beside it. The exit
//! code is 0 only when every output checked correct.

mod fv;
mod mission;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::Json;
use stats::Summary;
use trace::Tracer;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "op/s"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// workload that bypasses a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 28] = [
    ("thermal.assemble_ms", "ms"),
    ("solver.setup_ms", "ms"),
    ("solver.operator_complexity", "ratio"),
    ("solver.iterate_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.spmv_gbs", "GB/s"),
    ("solver.factor_reuse_ratio", "ratio"),
    ("mission.matrix_rebuilds", "count"),
    ("mission.relinearizations", "count"),
    ("mission.solves", "count"),
    ("mission.accept_ratio", "ratio"),
    ("mission.step_ms.rebuild", "ms"),
    ("mission.step_ms.reuse", "ms"),
    ("serve.wire_encode_us", "us"),
    ("serve.wire_decode_us", "us"),
    ("serve.socket_gap_ms", "ms"),
    ("serve.service_ms.seb_operating_point", "ms"),
    ("serve.service_ms.seb_capability", "ms"),
    ("serve.service_ms.fv_steady", "ms"),
    ("serve.service_ms.board_steady", "ms"),
    ("serve.service_ms.fem_modal", "ms"),
    ("serve.service_ms.transient", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_jobs_per_batch", "ratio"),
    ("serve.rejected", "count"),
    ("serve.generator_late_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("coverage", "ratio"),
];

const WORKLOADS: [&str; 3] = ["fv_steady", "mission_orbit", "serve_socket"];

/// One reported metric: its value and the summary of the samples it
/// was computed from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

impl Metric {
    /// A metric computed from `samples` (an empty slice stands for a
    /// single measured value).
    pub fn of(name: &str, unit: &'static str, samples: &[f64], value: f64) -> Self {
        let summary = if samples.is_empty() {
            Summary::single(value)
        } else {
            Summary::of(samples)
        };
        Self::with(name, unit, value, summary)
    }

    pub fn with(name: &str, unit: &'static str, value: f64, summary: Summary) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            summary,
        }
    }

    pub fn count(name: &str, n: usize) -> Self {
        Self::of(name, "count", &[], n as f64)
    }

    /// The process's peak resident set so far.
    pub fn peak_rss() -> Self {
        Self::of(
            "peak_rss_mb",
            "MB",
            &[],
            report::peak_rss_mb().unwrap_or(f64::NAN),
        )
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Report-only figures (not part of the result line).
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    /// Counts one failed output (already counted as attempted).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    p99_limit_ms: f64,
    print_references: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        p99_limit_ms: 250.0,
        print_references: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-references" {
            args.print_references = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--p99-limit-ms" => args.p99_limit_ms = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.print_references && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_references {
        return match mission::print_references() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut outcome = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);
    match (args.workload.as_str(), tracer.as_mut()) {
        ("fv_steady", None) => fv::run(args.seed, args.seconds, &mut outcome),
        ("fv_steady", Some(t)) => fv::run_traced(args.seed, args.seconds, &mut outcome, t),
        ("mission_orbit", None) => mission::run(args.seed, args.seconds, &mut outcome),
        ("mission_orbit", Some(t)) => mission::run_traced(args.seed, args.seconds, &mut outcome, t),
        (_, None) => serve::run(args.seed, args.seconds, args.p99_limit_ms, &mut outcome),
        (_, Some(t)) => {
            serve::run_traced(args.seed, args.seconds, args.p99_limit_ms, &mut outcome, t)
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = complete(&outcome.metrics, wanted);
    if let Some(t) = &tracer {
        print_self_times(t);
    }
    print_table(&args, &outcome, &metrics);
    if let Err(e) = write_record(&args, &outcome, &metrics, tracer.as_ref()) {
        eprintln!("perfbench: could not write the result record: {e}");
    }

    let correct = outcome.correct();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v =
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics named in `wanted`, in that order; a metric the workload
/// did not measure (its layer is bypassed) reads 0.
fn complete(measured: &[Metric], wanted: &[(&str, &'static str)]) -> Vec<Metric> {
    wanted
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::of(name, unit, &[], 0.0))
        })
        .collect()
}

fn print_table(args: &Args, outcome: &Outcome, metrics: &[Metric]) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc()
    );
    println!(
        "# attempted={} failed={} fail_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "# {:<40} {:>14} {:<6} {:>12} {:>12} {:>12} {:>7}",
        "metric", "value", "unit", "median", "q1", "q3", "n"
    );
    for m in metrics {
        let s = &m.summary;
        println!(
            "# {:<40} {:>14.6} {:<6} {:>12.6} {:>12.6} {:>12.6} {:>7}",
            m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
        );
    }
    for (name, v) in &outcome.notes {
        println!("# {name:<40} {v:>14.6}");
    }
}

fn print_self_times(t: &Tracer) {
    println!("# self time per layer (ms):");
    for (layer, ms) in t.self_ms_by_layer() {
        println!("#   {layer:<12} {ms:>12.3}");
    }
}

/// Writes the self-describing record (and the spans of a traced run)
/// under `perfbench/out/`.
fn write_record(
    args: &Args,
    outcome: &Outcome,
    metrics: &[Metric],
    tracer: Option<&Tracer>,
) -> std::io::Result<()> {
    let root = Path::new(".");
    let dir = root.join("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let metric_json = |m: &Metric| {
        Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("median", Json::Num(m.summary.median)),
            ("q1", Json::Num(m.summary.q1)),
            ("q3", Json::Num(m.summary.q3)),
            ("n", Json::Int(m.summary.n as u64)),
        ])
    };
    let record = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("p99_limit_ms", Json::Num(args.p99_limit_ms)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(report::nproc() as u64)),
                (
                    "git_rev",
                    report::git_rev(root).map_or(Json::Null, Json::Str),
                ),
                ("source_hash", Json::Str(report::source_hash(root))),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
            ]),
        ),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "fail_ratio",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_json(m)))
                    .collect(),
            ),
        ),
        (
            "report",
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "self_ms_by_layer",
            tracer.map_or(Json::Null, |t| {
                Json::Obj(
                    t.self_ms_by_layer()
                        .into_iter()
                        .map(|(l, ms)| (l.to_string(), Json::Num(ms)))
                        .collect(),
                )
            }),
        ),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"))?;
    if let Some(t) = tracer {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), t.to_jsonl())?;
    }
    Ok(())
}
