//! The benchmark's declaration: workloads, metrics, and which end-to-end
//! metric each per-layer metric is expected to move on which workload.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! directions declared here; `tests/declaration.rs` keeps the two equal.

use std::path::{Path, PathBuf};

use pdf_atpg::{CheckpointPolicy, Compaction, DEFAULT_CHECKPOINT_EVERY, DEFAULT_CONE_CACHE};

/// One workload: a fixed `pdfatpg` command line. The benchmark appends
/// `--seed <derived seed> --output {tmp}/t.txt` and substitutes `{tmp}`
/// with a directory created fresh for each sample.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// The command line without `--seed` and `--output`.
    pub args: &'static [&'static str],
}

/// The workloads. Each stresses a different layer, and each layer metric
/// below names the workloads where it should move and so, by omission,
/// the ones where the prediction is no change.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "b04-scoap",
        why: "Justification-bound: justify is ~87% of generation and simulation <1%, with \
              SCOAP-guided branching. A 157-fault P0 and an empty P1, so enrichment screening \
              is bypassed.",
        args: &["atpg", "b04", "--cap", "2000", "--np0", "100", "--scoap"],
    },
    Workload {
        name: "b09-enrich",
        why: "Secondary-target screening dominates: delta ranking, free-accept checks and \
              the implication pre-filter outweigh justify. The 462-line circuit fits in cache.",
        args: &["atpg", "b09", "--cap", "10000", "--np0", "1000", "--enrich"],
    },
    Workload {
        name: "b03r-analyze",
        why: "Static analysis dominates: learning, sensitizability and elimination do most \
              of the work while generation is small. The +r gadgets are what those passes prune.",
        args: &[
            "atpg",
            "b03+r",
            "--cap",
            "10000",
            "--np0",
            "1000",
            "--heuristic",
            "uncomp",
            "--static-learning",
            "--sensitize",
            "--scoap",
        ],
    },
    Workload {
        name: "s5378-uncomp-ckpt",
        why: "Uncompacted generation on a 2-worker pool with a per-test drop loop, static \
              compaction and fsync'd checkpoints every 8 tests: the pool, sim and runctl layers.",
        args: &[
            "atpg",
            "s5378*",
            "--cap",
            "10000",
            "--np0",
            "1000",
            "--heuristic",
            "uncomp",
            "--minimize",
            "--threads",
            "2",
            "--checkpoint",
            "{tmp}/ck.json",
            "--checkpoint-every",
            "8",
        ],
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The ATPG seed of sample `sample` in a run with benchmark seed `seed`.
/// Every sample uses its own seed, so a run's medians average over the
/// seed-to-seed variation of the generator instead of reporting one seed.
#[must_use]
pub fn atpg_seed(seed: u64, sample: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(sample as u64)
}

/// The full `pdfatpg` command line of one sample.
#[must_use]
pub fn command_line(workload: &Workload, atpg_seed: u64, tmp: &Path) -> Vec<String> {
    let tmp = tmp.to_str().expect("temporary paths are UTF-8");
    let mut args: Vec<String> = workload
        .args
        .iter()
        .map(|a| a.replace("{tmp}", tmp))
        .collect();
    args.extend([
        "--seed".to_owned(),
        atpg_seed.to_string(),
        "--output".to_owned(),
        format!("{tmp}/t.txt"),
    ]);
    args
}

/// An end-to-end metric: what a user of `pdfatpg atpg` sees.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The end-to-end metrics of one run: medians for timings (scaled by
/// [`crate::calibrate`]) and memory, means over the first
/// [`COUNT_SAMPLES`] samples for counts.
pub const END_TO_END: [Metric; 7] = [
    Metric {
        name: "atpg_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "cpu_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "tests",
        unit: "count",
        better: "lower",
    },
    Metric {
        name: "p0_detected",
        unit: "count",
        better: "higher",
    },
    Metric {
        name: "p01_detected",
        unit: "count",
        better: "higher",
    },
];

/// Samples every run takes at least, and over which the count metrics
/// are averaged, so counts repeat exactly for a given seed.
pub const COUNT_SAMPLES: usize = 10;

/// A per-layer metric of the traced run, with the prediction it carries.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Metric name: `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics a change in this layer metric should move.
    pub moves: &'static [&'static str],
    /// Workloads where it should move them; on the others the prediction
    /// is no change.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[
    "b04-scoap",
    "b09-enrich",
    "b03r-analyze",
    "s5378-uncomp-ckpt",
];
const B04: &[&str] = &["b04-scoap"];
const B09: &[&str] = &["b09-enrich"];
const B03R: &[&str] = &["b03r-analyze"];
const S5378: &[&str] = &["s5378-uncomp-ckpt"];
const ANALYSIS: &[&str] = &["b03r-analyze", "s5378-uncomp-ckpt"];
const NONE: &[&str] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// The per-layer metrics. Layers are named after the repository's
/// crates: `netlist`, `paths`, `analyze`, `faults`, `core` (target split,
/// generator, justifier, test set), `sim`, `pool`, `runctl`; `bench` is
/// the benchmark's own accounting.
pub const PER_LAYER: [LayerMetric; 52] = [
    layer("netlist.build_s", "s", "lower", &["setup_s", "atpg_s"], ALL),
    layer("analyze.lint_s", "s", "lower", &["setup_s", "atpg_s"], ALL),
    layer("sim.width_probe_s", "s", "lower", &["setup_s"], ALL),
    layer("sim.width", "lanes", "higher", &["setup_s"], ALL),
    // Enumeration is under 1% of every workload: no visible change.
    layer(
        "paths.enumerate_s",
        "s",
        "lower",
        &["setup_s", "atpg_s"],
        NONE,
    ),
    layer("paths.stored", "count", "higher", &["atpg_s"], NONE),
    layer(
        "analyze.learn_s",
        "s",
        "lower",
        &["setup_s", "atpg_s"],
        B03R,
    ),
    layer(
        "analyze.learned_implications",
        "count",
        "higher",
        &["atpg_s"],
        B03R,
    ),
    layer(
        "analyze.sensitize_s",
        "s",
        "lower",
        &["setup_s", "atpg_s"],
        B03R,
    ),
    layer(
        "analyze.false_paths",
        "count",
        "higher",
        &["atpg_s", "tests"],
        B03R,
    ),
    // Building the SCOAP guide takes microseconds: no visible change.
    layer(
        "analyze.scoap_s",
        "s",
        "lower",
        &["setup_s", "atpg_s"],
        NONE,
    ),
    layer(
        "faults.eliminate_s",
        "s",
        "lower",
        &["setup_s", "atpg_s"],
        ANALYSIS,
    ),
    layer(
        "faults.population",
        "count",
        "lower",
        &["atpg_s", "peak_rss_mb"],
        ANALYSIS,
    ),
    layer(
        "faults.dropped",
        "count",
        "higher",
        &["atpg_s", "peak_rss_mb"],
        ANALYSIS,
    ),
    layer(
        "faults.implicate_calls",
        "count",
        "higher",
        &["atpg_s"],
        B09,
    ),
    layer(
        "faults.implicate_call_p50_us",
        "us",
        "lower",
        &["atpg_s"],
        B09,
    ),
    layer(
        "faults.implicate_call_p90_us",
        "us",
        "lower",
        &["atpg_s"],
        B09,
    ),
    layer(
        "faults.implicate_conflict_ratio",
        "ratio",
        "higher",
        &["atpg_s"],
        B09,
    ),
    // Context: the target split the generator works on.
    layer("core.split_s", "s", "lower", &["setup_s", "atpg_s"], NONE),
    layer("core.p0", "count", "higher", &["p0_detected"], NONE),
    layer("core.p1", "count", "higher", &["p01_detected"], NONE),
    layer("core.generate_s", "s", "lower", &["atpg_s", "cpu_s"], ALL),
    layer("core.generate.self_s", "s", "lower", &["atpg_s"], B09),
    layer(
        "core.secondary.attempts",
        "count",
        "lower",
        &["atpg_s"],
        B09,
    ),
    layer(
        "core.secondary.accept_ratio",
        "ratio",
        "higher",
        &["p01_detected", "atpg_s"],
        B09,
    ),
    layer(
        "core.aborted_primaries",
        "count",
        "lower",
        &["p0_detected", "tests"],
        ALL,
    ),
    layer(
        "core.justify.busy_s",
        "s",
        "lower",
        &["atpg_s", "cpu_s"],
        B04,
    ),
    layer("core.justify.calls", "count", "lower", &["atpg_s"], B04),
    layer(
        "core.justify.success_ratio",
        "ratio",
        "higher",
        &["atpg_s", "p0_detected"],
        B04,
    ),
    layer(
        "core.justify.conflict_ratio",
        "ratio",
        "lower",
        &["atpg_s"],
        B04,
    ),
    layer(
        "core.justify.completion_attempts",
        "count",
        "lower",
        &["atpg_s"],
        B04,
    ),
    layer(
        "core.justify.cone_hit_ratio",
        "ratio",
        "higher",
        &["atpg_s"],
        B04,
    ),
    layer("core.justify.call_p50_us", "us", "lower", &["atpg_s"], B04),
    layer("core.justify.call_p90_us", "us", "lower", &["atpg_s"], B04),
    layer(
        "core.justify.completion_share",
        "ratio",
        "lower",
        &["atpg_s"],
        B04,
    ),
    layer(
        "sim.simulate.busy_s",
        "s",
        "lower",
        &["atpg_s", "cpu_s"],
        S5378,
    ),
    layer("sim.coverage_s", "s", "lower", &["atpg_s", "cpu_s"], S5378),
    layer(
        "sim.checks_per_s",
        "1/s",
        "higher",
        &["atpg_s", "cpu_s"],
        S5378,
    ),
    layer("core.compact_s", "s", "lower", &["atpg_s"], S5378),
    layer("core.compact.removed", "count", "higher", &["tests"], S5378),
    layer("pool.rounds", "count", "lower", &["atpg_s", "cpu_s"], S5378),
    layer(
        "pool.builds_discarded",
        "count",
        "lower",
        &["atpg_s", "cpu_s"],
        S5378,
    ),
    layer(
        "pool.discard_ratio",
        "ratio",
        "lower",
        &["atpg_s", "cpu_s"],
        S5378,
    ),
    // Schedule-dependent: information only.
    layer("pool.steals", "count", "lower", &["cpu_s"], NONE),
    layer(
        "runctl.checkpoints_written",
        "count",
        "lower",
        &["atpg_s"],
        S5378,
    ),
    layer(
        "runctl.checkpoint_bytes",
        "bytes",
        "lower",
        &["atpg_s"],
        S5378,
    ),
    layer("runctl.busy_s", "s", "lower", &["atpg_s"], S5378),
    layer("runctl.save_s", "s", "lower", &["atpg_s"], S5378),
    layer("runctl.load_s", "s", "lower", &["atpg_s"], S5378),
    layer("runctl.resume_s", "s", "lower", &["atpg_s"], S5378),
    layer("bench.unattributed_s", "s", "lower", &["atpg_s"], NONE),
    layer("bench.trace_delta_s", "s", "lower", &["atpg_s"], NONE),
];

/// Value-taking `atpg` options the traced flow reproduces.
const VALUE_FLAGS: &[&str] = &[
    "cap",
    "np0",
    "heuristic",
    "seed",
    "attempts",
    "cone-cache",
    "output",
    "checkpoint",
    "checkpoint-every",
    "threads",
];

/// Boolean `atpg` options the traced flow reproduces.
const BOOL_FLAGS: &[&str] = &[
    "enrich",
    "minimize",
    "static-learning",
    "sensitize",
    "scoap",
];

/// An `atpg` command line resolved the way `pdf_cli::cmd_atpg` resolves
/// it with no `PDF_*` variables set. The traced run and the output checks
/// work from this; options outside the supported set are refused, so a
/// workload cannot silently diverge from what the traced run reproduces.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Circuit spec.
    pub circuit: String,
    /// Enumeration cap (`--cap`).
    pub cap: usize,
    /// P0 threshold (`--np0`).
    pub np0: usize,
    /// Generator seed (`--seed`).
    pub seed: u64,
    /// Compaction heuristic (`--heuristic`).
    pub compaction: Compaction,
    /// Completion groups per justification call (`--attempts`).
    pub attempts: u32,
    /// Cone-cache capacity (`--cone-cache`).
    pub cone_cache: usize,
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// `--enrich`.
    pub enrich: bool,
    /// `--minimize`.
    pub minimize: bool,
    /// `--static-learning`.
    pub learning: bool,
    /// `--sensitize`.
    pub sensitize: bool,
    /// `--scoap`.
    pub scoap: bool,
    /// `--checkpoint` / `--checkpoint-every`.
    pub checkpoint: Option<CheckpointPolicy>,
    /// `--output`.
    pub output: Option<PathBuf>,
}

impl Plan {
    /// Resolves a full `atpg <circuit> [options]` command line.
    ///
    /// # Errors
    ///
    /// A message when the command is not `atpg`, the circuit is missing,
    /// or an option is unknown, unsupported or malformed.
    pub fn parse(args: &[String]) -> Result<Plan, String> {
        let [command, circuit, rest @ ..] = args else {
            return Err("expected `atpg <circuit> [options]`".to_owned());
        };
        if command != "atpg" {
            return Err(format!("expected the atpg command, found `{command}`"));
        }
        let o = pdf_cli::Options::parse(rest, VALUE_FLAGS, BOOL_FLAGS).map_err(|e| e.message)?;
        if !o.positionals().is_empty() {
            return Err(format!("unexpected arguments {:?}", o.positionals()));
        }
        let compaction = match o.value("heuristic") {
            None | Some("values") => Compaction::ValueBased,
            Some("uncomp") => Compaction::Uncompacted,
            Some("arbit") => Compaction::Arbitrary,
            Some("length") => Compaction::LengthBased,
            Some(other) => return Err(format!("unknown heuristic `{other}`")),
        };
        let every = number(&o, "checkpoint-every", DEFAULT_CHECKPOINT_EVERY)?;
        Ok(Plan {
            circuit: circuit.clone(),
            cap: number(&o, "cap", 10_000)?,
            np0: number(&o, "np0", 1_000)?,
            seed: number(&o, "seed", 2002)?,
            compaction,
            attempts: number(&o, "attempts", 1)?,
            cone_cache: number(&o, "cone-cache", DEFAULT_CONE_CACHE)?,
            threads: number(&o, "threads", 1)?,
            enrich: o.has("enrich"),
            minimize: o.has("minimize"),
            learning: o.has("static-learning"),
            sensitize: o.has("sensitize"),
            scoap: o.has("scoap"),
            checkpoint: o
                .value("checkpoint")
                .map(|path| CheckpointPolicy::new(path, every)),
            output: o.value("output").map(PathBuf::from),
        })
    }
}

fn number<T: std::str::FromStr>(o: &pdf_cli::Options, name: &str, default: T) -> Result<T, String> {
    match o.value(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{name}: `{v}`")),
    }
}
