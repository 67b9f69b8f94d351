//! The traced child: one run of the `atpg` flow with a benchmark span
//! around every layer call, the program's own telemetry aggregates read
//! around generation, and three replays that time single layer calls.
//! Its metrics are the per-layer metrics of `BENCHMARK.json`.

use std::path::Path;
use std::time::Instant;

use pdf_atpg::{
    AtpgConfig, CancelToken, Checkpoint, CheckpointPolicy, Justifier, RunBudget, SimOptions,
    SimWidth, DEFAULT_CHECKPOINT_EVERY,
};
use pdf_faults::Implicator;
use pdf_telemetry::{Json, RunReport, SpanReport};

use crate::flow::{self, Targets, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{command_line, Plan, Workload, PER_LAYER};

/// P0 primaries whose merged requirement sets the implication replay
/// times, and the compatible candidates it takes per primary.
const IMPLICATE_PRIMARIES: usize = 16;
const IMPLICATE_CANDIDATES: usize = 256;

/// `Checkpoint::save` / `load_with_recovery` repetitions per run.
const CHECKPOINT_IO_REPEATS: usize = 21;

/// The metric the benchmark parent adds after comparing the traced run
/// with the untraced samples.
pub const TRACE_DELTA: &str = "bench.trace_delta_s";

/// The traced child's body. Runs the flow for `workload` with generator
/// seed `seed`, writing the test file under `tmp` and the trace to
/// `trace_path`, and returns `{metrics, flow_s, errors}`: every per-layer
/// metric but [`TRACE_DELTA`], the traced flow's wall time, and the
/// output checks that failed.
///
/// # Errors
///
/// A message when the flow itself cannot run.
pub fn child_trace(
    workload: &Workload,
    seed: u64,
    tmp: &Path,
    trace_path: &Path,
) -> Result<Json, String> {
    let plan = Plan::parse(&command_line(workload, seed, tmp))?;
    let output = plan
        .output
        .clone()
        .ok_or("the workload writes no test file")?;
    let mut t = Tracer::new(format!("{}/seed{seed}", workload.name));
    let mut errors: Vec<String> = Vec::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // The flow `pdfatpg atpg` runs, one span per layer call.
    let root = t.enter("atpg");
    let targets = flow::prepare(&plan, &mut t)?;
    let config = flow::config(&plan, &targets);
    let _ = pdf_telemetry::begin_recording();
    let outcome = t.time("core.generate", || {
        flow::generate(&plan, &targets, config.clone(), None)
    });
    let telemetry = pdf_telemetry::report();
    pdf_telemetry::disable();
    let outcome = outcome?;
    let tests = t.time("core.compact", || {
        flow::compact(&plan, &targets, outcome.tests())
    });
    t.time("core.write", || std::fs::write(&output, tests.to_text()))
        .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
    t.exit(root);
    let flow_s = t.spans()[root].seconds();
    let unattributed = t.self_seconds(root);
    if unattributed < 0.0 {
        errors.push(format!("negative unattributed time {unattributed} s"));
    }

    m.push(("netlist.build_s", t.seconds("netlist.build")));
    m.push(("analyze.lint_s", t.seconds("analyze.lint")));
    m.push(("sim.width_probe_s", t.seconds("sim.width_probe")));
    m.push(("sim.width", SimWidth::auto().lanes() as f64));
    m.push(("paths.enumerate_s", t.seconds("paths.enumerate")));
    m.push(("paths.stored", targets.paths_stored as f64));
    m.push(("analyze.learn_s", t.seconds("analyze.learn")));
    m.push((
        "analyze.learned_implications",
        targets.learned.as_ref().map_or(0, |l| l.len()) as f64,
    ));
    m.push(("analyze.sensitize_s", t.seconds("analyze.sensitize")));
    m.push((
        "analyze.false_paths",
        targets.analysis.as_ref().map_or(0, |a| a.stats.false_paths) as f64,
    ));
    m.push(("analyze.scoap_s", t.seconds("analyze.scoap")));
    m.push(("faults.eliminate_s", t.seconds("faults.eliminate")));
    let population = targets.everything.len();
    m.push(("faults.population", population as f64));
    m.push((
        "faults.dropped",
        (targets.fault_stats.candidates - population) as f64,
    ));
    m.push(("core.split_s", t.seconds("core.split")));
    m.push(("core.p0", targets.split.p0().len() as f64));
    m.push(("core.p1", targets.split.p1().len() as f64));
    m.push(("core.generate_s", t.seconds("core.generate")));
    // The generator's own span minus its in-program children on the
    // commit thread; with worker threads it includes waiting for them.
    let generate = telemetry
        .span("generate")
        .ok_or("telemetry recorded no generate span")?;
    let generate_children: f64 = generate.children.iter().map(|c| c.seconds).sum();
    m.push(("core.generate.self_s", generate.seconds - generate_children));

    let stats = outcome.stats();
    let attempts = stats.secondary_accepts
        + stats.free_accepts
        + stats.secondary_rejects
        + stats.conflict_rejects;
    m.push(("core.secondary.attempts", attempts as f64));
    m.push((
        "core.secondary.accept_ratio",
        ratio(stats.secondary_accepts + stats.free_accepts, attempts),
    ));
    m.push(("core.aborted_primaries", stats.aborted_primaries as f64));
    let justify = &stats.justify;
    m.push(("core.justify.busy_s", span_seconds(&telemetry, "justify")));
    m.push(("core.justify.calls", justify.calls as f64));
    m.push((
        "core.justify.success_ratio",
        ratio(justify.successes, justify.calls),
    ));
    m.push((
        "core.justify.conflict_ratio",
        ratio(justify.conflicts, justify.calls),
    ));
    m.push((
        "core.justify.completion_attempts",
        justify.completion_attempts as f64,
    ));
    m.push((
        "core.justify.cone_hit_ratio",
        ratio(justify.cone_hits, justify.cone_hits + justify.cone_misses),
    ));
    m.push(("sim.simulate.busy_s", span_seconds(&telemetry, "simulate")));
    m.push(("core.compact_s", t.seconds("core.compact")));
    m.push((
        "core.compact.removed",
        (outcome.tests().len() - tests.len()) as f64,
    ));
    m.push(("pool.rounds", counter(&telemetry, "pool_rounds")));
    m.push(("pool.builds_discarded", stats.builds_discarded as f64));
    m.push((
        "pool.discard_ratio",
        ratio(
            stats.builds_discarded,
            stats.builds_discarded + outcome.tests().len() + stats.aborted_primaries,
        ),
    ));
    m.push(("pool.steals", counter(&telemetry, "pool_steals")));
    m.push((
        "runctl.checkpoints_written",
        stats.checkpoints_written as f64,
    ));
    m.push(("runctl.busy_s", span_seconds(&telemetry, "runctl")));
    m.push(("bench.unattributed_s", unattributed));

    // Outside the flow: re-simulation of the final set, then the replays.
    let coverage = t.time("sim.coverage", || {
        tests.coverage_with(SimOptions::default(), &targets.circuit, &targets.everything)
    });
    std::hint::black_box(coverage);
    let coverage_s = t.seconds("sim.coverage");
    m.push(("sim.coverage_s", coverage_s));
    m.push((
        "sim.checks_per_s",
        (tests.len() * population) as f64 / coverage_s,
    ));

    let id = t.enter("faults.implicate_replay");
    m.extend(implicate_replay(&targets));
    t.exit(id);
    let id = t.enter("core.justify_replay");
    m.extend(justify_replay(&targets, &config));
    t.exit(id);

    let reference_text = outcome.tests().to_text();
    let probe = tmp.join("probe");
    std::fs::create_dir_all(&probe).map_err(|e| format!("{}: {e}", probe.display()))?;
    let polls = ((outcome.tests().len() + stats.aborted_primaries) / 2).max(1) as u64;
    let every = plan
        .checkpoint
        .as_ref()
        .map_or(DEFAULT_CHECKPOINT_EVERY, |p| p.every);
    m.extend(resume_probe(
        &mut t,
        &plan,
        &targets,
        &config,
        &ResumeProbe {
            dir: &probe,
            polls,
            every,
            reference_text: &reference_text,
        },
        &mut errors,
    )?);

    let trace = t
        .to_json()
        .field("workload", workload.name)
        .field("seed", seed)
        .field(
            "telemetry",
            Json::parse(&telemetry.to_json()).map_err(|e| e.to_string())?,
        );
    std::fs::write(trace_path, trace.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut metrics = Json::object();
    for metric in PER_LAYER.iter().filter(|l| l.name != TRACE_DELTA) {
        let value = m
            .iter()
            .find(|(name, _)| *name == metric.name)
            .ok_or_else(|| format!("the traced run does not measure {}", metric.name))?
            .1;
        metrics = metrics.field(metric.name, value);
    }
    Ok(Json::object()
        .field("metrics", metrics)
        .field("flow_s", flow_s)
        .field(
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ))
}

/// Times `Implicator::from_assignments_with` — the generator's secondary
/// pre-filter — on the merged requirements of each of the first P0
/// primaries with every compatible candidate (up to a fixed number each).
fn implicate_replay(targets: &Targets) -> Vec<(&'static str, f64)> {
    let faults = targets.everything.entries();
    let mut micros = Vec::new();
    let mut conflicts = 0usize;
    for (p, primary) in faults
        .iter()
        .enumerate()
        .take(IMPLICATE_PRIMARIES.min(targets.split.p0().len()))
    {
        let merged = faults
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != p)
            .filter_map(|(_, c)| primary.assignments.merged(&c.assignments))
            .take(IMPLICATE_CANDIDATES);
        for requirements in merged {
            let start = Instant::now();
            let result = Implicator::from_assignments_with(
                &targets.circuit,
                &requirements,
                targets.learned.as_deref(),
            );
            micros.push(start.elapsed().as_secs_f64() * 1e6);
            conflicts += usize::from(result.is_err());
        }
    }
    let calls = micros.len();
    vec![
        ("faults.implicate_calls", calls as f64),
        (
            "faults.implicate_call_p50_us",
            percentile_or_zero(&micros, 50.0),
        ),
        (
            "faults.implicate_call_p90_us",
            percentile_or_zero(&micros, 90.0),
        ),
        ("faults.implicate_conflict_ratio", ratio(conflicts, calls)),
    ]
}

/// One call of a fresh, identically configured `Justifier` per P0 fault:
/// the per-call latency distribution and the share of it spent in random
/// completion (`Justifier::completion_seconds`).
fn justify_replay(targets: &Targets, config: &AtpgConfig) -> Vec<(&'static str, f64)> {
    let mut justifier = Justifier::new(&targets.circuit, config.seed)
        .with_attempts(config.justify_attempts)
        .with_options(config.sim)
        .with_cone_cache(config.cone_cache);
    if let Some(guide) = &config.guide {
        justifier = justifier.with_guide(guide.clone());
    }
    let mut micros = Vec::with_capacity(targets.split.p0().len());
    for entry in targets.split.p0().iter() {
        let start = Instant::now();
        std::hint::black_box(justifier.justify(&entry.assignments));
        micros.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let total_s: f64 = micros.iter().sum::<f64>() / 1e6;
    vec![
        (
            "core.justify.call_p50_us",
            percentile_or_zero(&micros, 50.0),
        ),
        (
            "core.justify.call_p90_us",
            percentile_or_zero(&micros, 90.0),
        ),
        (
            "core.justify.completion_share",
            if total_s > 0.0 {
                justifier.completion_seconds() / total_s
            } else {
                0.0
            },
        ),
    ]
}

/// Inputs of [`resume_probe`].
struct ResumeProbe<'a> {
    dir: &'a Path,
    polls: u64,
    every: usize,
    reference_text: &'a str,
}

/// Interrupts generation with a poll-countdown cancel, resumes it from
/// the checkpoint the cut left, and requires the resumed test set to
/// equal the uninterrupted one byte for byte. Then times checkpoint I/O
/// on that checkpoint.
fn resume_probe(
    t: &mut Tracer,
    plan: &Plan,
    targets: &Targets,
    config: &AtpgConfig,
    probe: &ResumeProbe<'_>,
    errors: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let path = probe.dir.join("cut.json");
    let cut_config = AtpgConfig {
        budget: RunBudget::unlimited().and_cancel(CancelToken::cancel_after_polls(probe.polls)),
        checkpoint: Some(CheckpointPolicy::new(&path, probe.every)),
        ..config.clone()
    };
    let cut = t.time("runctl.cut_run", || {
        flow::generate(plan, targets, cut_config, None)
    })?;
    if !cut.budget_exhausted() {
        errors.push(format!(
            "the resume probe's cut after {} polls never fired",
            probe.polls
        ));
    }
    let (checkpoint, _) = t
        .time("runctl.resume_load", || {
            Checkpoint::load_with_recovery(&path)
        })
        .map_err(|e| format!("resume probe: {e}"))?;
    let resume_config = AtpgConfig {
        checkpoint: None,
        ..config.clone()
    };
    let resumed = t.time("runctl.resume", || {
        flow::generate(plan, targets, resume_config, Some(&checkpoint))
    })?;
    if resumed.tests().to_text() != probe.reference_text {
        errors.push("the resumed test set differs from the uninterrupted one".to_owned());
    }
    let checkpoint_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();

    let io_path = probe.dir.join("io.json");
    let mut saves = Vec::with_capacity(CHECKPOINT_IO_REPEATS);
    let mut loads = Vec::with_capacity(CHECKPOINT_IO_REPEATS);
    let id = t.enter("runctl.checkpoint_io");
    for _ in 0..CHECKPOINT_IO_REPEATS {
        let start = Instant::now();
        checkpoint
            .save(&io_path)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        saves.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (loaded, _) = Checkpoint::load_with_recovery(&io_path)
            .map_err(|e| format!("checkpoint load: {e}"))?;
        loads.push(start.elapsed().as_secs_f64());
        std::hint::black_box(loaded);
    }
    t.exit(id);
    Ok(vec![
        ("runctl.checkpoint_bytes", checkpoint_bytes as f64),
        ("runctl.save_s", median(&saves)),
        ("runctl.load_s", median(&loads)),
        ("runctl.resume_s", t.seconds("runctl.resume")),
    ])
}

/// Total seconds of every telemetry span named `name`, on every thread.
fn span_seconds(report: &RunReport, name: &str) -> f64 {
    fn walk(span: &SpanReport, name: &str) -> f64 {
        let own = if span.name == name { span.seconds } else { 0.0 };
        own + span.children.iter().map(|c| walk(c, name)).sum::<f64>()
    }
    report.spans.iter().map(|s| walk(s, name)).sum()
}

fn counter(report: &RunReport, name: &str) -> f64 {
    report.counter(name).unwrap_or(0) as f64
}

/// `part / whole`, or 0 for an empty base.
fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, p)
    }
}
