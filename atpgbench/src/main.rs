//! The benchmark command.
//!
//! ```text
//! cargo run --offline --release --manifest-path atpgbench/Cargo.toml --bin benchmark -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
//! ```
//!
//! Without `--trace 1` it prints the end-to-end metrics of each selected
//! workload; with it, the per-layer metrics of a traced run. The last line
//! of stdout is one JSON object `{correct, attempted, failed, metrics}`.
//! Results and traces are written under `--out` (default
//! `$CARGO_TARGET_DIR/benchmark`, else `target/benchmark`). The exit
//! status is 1 when any output check failed, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdf_atpgbench::calibrate;
use pdf_atpgbench::check::{Counts, Reference};
use pdf_atpgbench::one_line;
use pdf_atpgbench::sample::{self, Sample};
use pdf_atpgbench::stats::Summary;
use pdf_atpgbench::traced::{self, TRACE_DELTA};
use pdf_atpgbench::workload::{
    atpg_seed, command_line, workload, Plan, Workload, COUNT_SAMPLES, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use pdf_telemetry::Json;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--out DIR]";

/// The seed a run uses when none is given; 7 is the held-out seed.
const DEFAULT_SEED: u64 = 2002;
/// Seconds of sampling per workload when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some(sample::CHILD_ATPG) => child(sample::child_atpg(&args[1..])),
        Some(sample::CHILD_SETUP) => child(sample::child_setup(&args[1..])),
        Some(sample::CHILD_TRACE) => child(child_trace(&args[1..])),
        _ => match parse_args(&args) {
            Ok(parsed) => run_benchmark(&parsed),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn child(result: Result<Json, String>) -> i32 {
    match result {
        Ok(doc) => {
            println!("{}", one_line(&doc));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn child_trace(args: &[String]) -> Result<Json, String> {
    let [name, seed, tmp, trace_path] = args else {
        return Err("expected <workload> <seed> <tmp> <trace path>".to_owned());
    };
    let w = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    traced::child_trace(w, seed, Path::new(tmp), Path::new(trace_path))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: target.join("benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workload(name).is_none() {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}` (one of {names:?})"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = number(value()?, flag)?,
            "--seconds" => parsed.seconds = number(value()?, flag)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn number(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, not `{text}`"))
}

/// One reported metric: its value, unit, and the samples it summarizes.
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    detail: Json,
}

/// What one workload's run produced.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Reported>,
}

fn run_benchmark(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return 2;
    }
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => WORKLOADS.iter().filter(|w| w.name == name).collect(),
        None => WORKLOADS.iter().collect(),
    };
    let prefix_names = selected.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Json::object();
    for w in selected {
        let outcome = run_workload(w, args, &exe);
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.failed == 0 && outcome.errors.is_empty();
        for m in outcome.metrics {
            let key = if prefix_names {
                format!("{}/{}", w.name, m.name)
            } else {
                m.name
            };
            metrics = metrics.field(
                &key,
                Json::object().field("value", m.value).field("unit", m.unit),
            );
        }
    }
    let result = Json::object()
        .field("correct", correct)
        .field("attempted", attempted.max(1))
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", one_line(&result));
    i32::from(!correct)
}

/// One checked sample of the loop.
struct Record {
    seed: u64,
    sample: Sample,
    counts: Counts,
    /// The calibration scale of the stretch the sample ran in (1 in a
    /// traced run, which reports no calibrated metric).
    scale: f64,
}

/// What the sampling loop collected.
#[derive(Default)]
struct Sampling {
    records: Vec<Record>,
    /// Calibrated set-up times.
    setup: Vec<f64>,
    /// Raw set-up times.
    setup_raw: Vec<f64>,
    /// Calibration kernel times, one before the first sample and one
    /// after every sample.
    kernel: Vec<f64>,
    /// How often each tile width was resolved. The width is picked per
    /// process (on AVX-512 parts by a timing probe), so it can differ
    /// between the samples of one run.
    widths: std::collections::BTreeMap<String, usize>,
    /// Sample 0's test text, for the traced run to reproduce.
    first_text: Option<String>,
}

/// Runs one workload: the closed sampling loop (one client, one child at
/// a time, each sample checked) and, with `--trace 1`, the traced child.
/// Prints the report and writes the results file.
fn run_workload(w: &Workload, args: &Args, exe: &Path) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let tmp_root = args
        .out
        .join("tmp")
        .join(format!("{}-{}", w.name, std::process::id()));
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let prepared = Plan::parse(&command_line(w, atpg_seed(args.seed, 0), &tmp_root))
        .and_then(|plan| Reference::new(&plan).map(|r| (plan, r)));
    let (plan, reference) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            outcome.attempted = 1;
            outcome.failed = 1;
            outcome.errors.push(format!("{}: {e}", w.name));
            eprintln!("{}: {e}", w.name);
            return outcome;
        }
    };
    // Scaling is bounded by the machine: a workload with more generator
    // threads than cores is reported, but marked as not measured.
    let measured = plan.threads <= cores;
    println!(
        "workload {} seed {}: {} ({}s, {} cores, {} generator threads{})",
        w.name,
        args.seed,
        w.args.join(" "),
        args.seconds,
        cores,
        plan.threads,
        if measured {
            ""
        } else {
            "; NOT MEASURED: more threads than cores"
        },
    );

    let run = sample_loop(
        w,
        args,
        exe,
        plan.threads,
        &reference,
        &tmp_root,
        &mut outcome,
    );
    if args.trace {
        outcome.attempted += 1;
        let atpg_s: Vec<f64> = run.records.iter().map(|r| r.sample.atpg_s).collect();
        match run_traced(exe, w, args, &tmp_root, run.first_text.as_deref(), &atpg_s) {
            Ok(metrics) => outcome.metrics = metrics,
            Err(e) => {
                eprintln!("{} traced run: {e}", w.name);
                outcome.failed += 1;
                outcome.errors.push(format!("traced run: {e}"));
            }
        }
    } else if !run.records.is_empty() && !run.setup.is_empty() {
        println!("  sim.width resolved (lanes: processes): {:?}", run.widths);
        outcome.metrics = end_to_end(&run);
    }
    let _ = std::fs::remove_dir_all(&tmp_root);

    for m in &outcome.metrics {
        println!(
            "  {:<36} {:>14.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            one_line(&m.detail)
        );
    }
    for e in &outcome.errors {
        println!("  CHECK FAILED: {e}");
    }
    let samples = run
        .records
        .iter()
        .map(|r| {
            Json::object()
                .field("seed", r.seed)
                .field("atpg_s", r.sample.atpg_s)
                .field("cpu_s", r.sample.cpu_s)
                .field("peak_rss_mb", r.sample.peak_rss_mb)
                .field("scale", r.scale)
                .field("tests", r.counts.tests)
                .field("p0_detected", r.counts.p0_detected)
                .field("p01_detected", r.counts.p01_detected)
        })
        .collect();
    let mut metrics = Json::object();
    for m in &outcome.metrics {
        metrics = metrics.field(
            &m.name,
            Json::object()
                .field("value", m.value)
                .field("unit", m.unit)
                .field("detail", m.detail.clone()),
        );
    }
    let widths = run
        .widths
        .into_iter()
        .map(|(lanes, n)| (lanes, Json::from(n)))
        .collect();
    let kernel = if run.kernel.is_empty() {
        Json::Null
    } else {
        summary_json(&Summary::of(&run.kernel))
    };
    let results = Json::object()
        .field("schema", "pdf-atpgbench-results")
        .field("workload", w.name)
        .field("command", w.args.join(" "))
        .field("seed", args.seed)
        .field("trace", args.trace)
        .field("cores", cores)
        .field("threads", plan.threads)
        .field("measured", measured)
        .field("sim_width_resolved", Json::Obj(widths))
        .field("seconds", args.seconds)
        .field("calibration_reference_s", calibrate::REFERENCE_S)
        .field("calibration_kernel_s", kernel)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("count_samples", COUNT_SAMPLES)
        .field("samples", Json::Arr(samples))
        .field("metrics", metrics)
        .field(
            "errors",
            Json::Arr(outcome.errors.iter().cloned().map(Json::Str).collect()),
        );
    let mode = if args.trace { "trace" } else { "e2e" };
    let path = args
        .out
        .join(format!("{}-seed{}-{mode}.json", w.name, args.seed));
    if let Err(e) = std::fs::write(&path, results.to_pretty()) {
        outcome
            .errors
            .push(format!("cannot write {}: {e}", path.display()));
    }
    outcome
}

/// The closed loop: samples until `--seconds` have passed and at least
/// [`COUNT_SAMPLES`] were taken. Outside a traced run each sample is
/// followed by one set-up child and one run of the calibration kernel
/// with one copy per generator thread, and everything measured between
/// two kernel runs is scaled by their mean.
fn sample_loop(
    w: &Workload,
    args: &Args,
    exe: &Path,
    threads: usize,
    reference: &Reference,
    tmp_root: &Path,
    outcome: &mut Outcome,
) -> Sampling {
    let mut run = Sampling::default();
    if !args.trace {
        run.kernel.push(calibrate::kernel_seconds(threads));
    }
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < COUNT_SAMPLES || start.elapsed() < budget {
        // A traced run repeats the traced seed, so the samples' median
        // times the very flow the trace attributes.
        let seed = atpg_seed(args.seed, if args.trace { 0 } else { i });
        let tmp = tmp_root.join(format!("sample-{i}"));
        let line = command_line(w, seed, &tmp);
        outcome.attempted += 1;
        let checked = run_checked(exe, &line, &tmp, reference);
        let _ = std::fs::remove_dir_all(&tmp);
        let mut scale = 1.0;
        if !args.trace {
            let setup = sample::spawn(exe, sample::CHILD_SETUP, &line);
            let before = run.kernel[run.kernel.len() - 1];
            let after = calibrate::kernel_seconds(threads);
            run.kernel.push(after);
            scale = calibrate::REFERENCE_S / ((before + after) / 2.0);
            match setup {
                Ok(doc) => {
                    if let Some(s) = doc.get("setup_s").and_then(Json::as_num) {
                        run.setup.push(s * scale);
                        run.setup_raw.push(s);
                    }
                    if let Some(lanes) = doc.get("width").and_then(Json::as_num) {
                        *run.widths.entry(lanes.to_string()).or_default() += 1;
                    }
                }
                Err(e) => outcome.errors.push(format!("set-up: {e}")),
            }
        }
        match checked {
            Ok((sample, counts, text)) => {
                if i == 0 {
                    run.first_text = Some(text);
                }
                run.records.push(Record {
                    seed,
                    sample,
                    counts,
                    scale,
                });
            }
            Err(e) => {
                eprintln!("{} sample {i} (seed {seed}): {e}", w.name);
                outcome.failed += 1;
                outcome
                    .errors
                    .push(format!("sample {i} (seed {seed}): {e}"));
            }
        }
        i += 1;
    }
    run
}

/// The end-to-end metrics of a sampled run: calibrated timing medians
/// (with the raw summaries in their detail), the memory median, and the
/// count means over the first [`COUNT_SAMPLES`] samples.
fn end_to_end(run: &Sampling) -> Vec<Reported> {
    let timing = |f: fn(&Sample) -> f64| -> (Vec<f64>, Vec<f64>) {
        run.records
            .iter()
            .map(|r| (f(&r.sample) * r.scale, f(&r.sample)))
            .unzip()
    };
    let (atpg, atpg_raw) = timing(|s| s.atpg_s);
    let (cpu, cpu_raw) = timing(|s| s.cpu_s);
    let mut metrics = Vec::new();
    for (name, values, raw) in [
        ("atpg_s", atpg, atpg_raw),
        ("cpu_s", cpu, cpu_raw),
        ("setup_s", run.setup.clone(), run.setup_raw.clone()),
    ] {
        let summary = Summary::of(&values);
        metrics.push(Reported {
            name: name.to_owned(),
            unit: unit_of(name),
            value: summary.median,
            detail: summary_json(&summary).field("raw", summary_json(&Summary::of(&raw))),
        });
    }
    let rss: Vec<f64> = run.records.iter().map(|r| r.sample.peak_rss_mb).collect();
    let rss = Summary::of(&rss);
    metrics.push(Reported {
        name: "peak_rss_mb".to_owned(),
        unit: unit_of("peak_rss_mb"),
        value: rss.median,
        detail: summary_json(&rss),
    });
    let counted = &run.records[..run.records.len().min(COUNT_SAMPLES)];
    for name in ["tests", "p0_detected", "p01_detected"] {
        let values: Vec<f64> = counted
            .iter()
            .map(|r| match name {
                "tests" => r.counts.tests,
                "p0_detected" => r.counts.p0_detected,
                _ => r.counts.p01_detected,
            } as f64)
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        metrics.push(Reported {
            name: name.to_owned(),
            unit: unit_of(name),
            value: mean,
            detail: Json::object().field("mean_of_first", values.len()).field(
                "values",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ),
        });
    }
    metrics
}

/// Runs and checks one sample; returns it with its counts and test text.
fn run_checked(
    exe: &Path,
    line: &[String],
    tmp: &Path,
    reference: &Reference,
) -> Result<(Sample, Counts, String), String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let sample = sample::run_sample(exe, line)?;
    let path = tmp.join("t.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let counts = reference.check(&sample.stdout, &text)?;
    Ok((sample, counts, text))
}

/// Runs the traced child on sample 0's seed and checks that it wrote the
/// CLI's test text byte for byte; returns the per-layer metrics.
fn run_traced(
    exe: &Path,
    w: &Workload,
    args: &Args,
    tmp_root: &Path,
    cli_text: Option<&str>,
    atpg_s: &[f64],
) -> Result<Vec<Reported>, String> {
    let cli_text = cli_text.ok_or("sample 0 failed, so there is no CLI output to compare")?;
    let tmp = tmp_root.join("trace");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let trace_path = args
        .out
        .join(format!("{}-seed{}-trace-spans.json", w.name, args.seed));
    let path_arg = |p: &Path| p.to_str().map(str::to_owned).ok_or("non-UTF-8 path");
    let doc = sample::spawn(
        exe,
        sample::CHILD_TRACE,
        &[
            w.name.to_owned(),
            atpg_seed(args.seed, 0).to_string(),
            path_arg(&tmp)?,
            path_arg(&trace_path)?,
        ],
    )?;
    let traced_text =
        std::fs::read_to_string(tmp.join("t.txt")).map_err(|e| format!("traced test file: {e}"))?;
    let mut errors: Vec<String> = doc
        .get("errors")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_owned)
        .collect();
    if traced_text != cli_text {
        errors.push("the traced run's test text differs from the CLI's".to_owned());
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let flow_s = doc
        .get("flow_s")
        .and_then(Json::as_num)
        .ok_or("traced report lacks flow_s")?;
    let measured = doc.get("metrics").ok_or("traced report lacks metrics")?;
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = if metric.name == TRACE_DELTA {
                // Tracing overhead: the traced flow against the untraced
                // samples' median.
                flow_s - Summary::of(atpg_s).median
            } else {
                measured
                    .get(metric.name)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("traced report lacks {}", metric.name))?
            };
            Ok(Reported {
                name: metric.name.to_owned(),
                unit: metric.unit,
                value,
                detail: Json::object(),
            })
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn summary_json(s: &Summary) -> Json {
    Json::object()
        .field("median", s.median)
        .field("q1", s.q1)
        .field("q3", s.q3)
        .field("max", s.max)
        .field("n", s.n)
        .field(
            "tail",
            s.tail.map_or(Json::Null, |(p, v)| {
                Json::object().field("percentile", p).field("value", v)
            }),
        )
}
