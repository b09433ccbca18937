//! Shared harness utilities for the experiment binaries.
//!
//! Each binary (`table1`, `table2`, `table3`, `fig4`, `fig5`, `fig1c`)
//! regenerates one table or figure of the paper: it runs the simulation at
//! the configured scale, prints the paper's rows side by side with the
//! measured ones, and writes a machine-readable JSON copy under
//! `target/experiments/`. The UA-DETRAC experiments draw their runs from
//! one [`Sweep`], which `run_all` builds once for the whole suite.
//!
//! Scale is controlled by the `SHOGGOTH_FRAMES` environment variable
//! (frames per stream; default 27 000 = 15 minutes of 30 fps video) and
//! `SHOGGOTH_SEED` (default 1).

pub mod experiments;

use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_util::parallel_map;
use shoggoth_video::{presets, StreamConfig};
use std::ffi::OsStr;
use std::path::PathBuf;

/// Frames per stream for experiment runs (`SHOGGOTH_FRAMES`, default
/// 27 000 ≈ 15 minutes at 30 fps).
pub fn experiment_frames() -> u64 {
    env_u64("SHOGGOTH_FRAMES", 27_000)
}

/// Experiment seed (`SHOGGOTH_SEED`, default 1).
pub fn experiment_seed() -> u64 {
    env_u64("SHOGGOTH_SEED", 1)
}

/// The environment variable `name` as an integer, or `default` when it
/// is unset. A set value that does not parse ends the process with a
/// message naming the variable, rather than silently running at the
/// default scale.
pub fn env_u64(name: &str, default: u64) -> u64 {
    let value = std::env::var_os(name);
    parse_var(name, value.as_deref(), default, false).unwrap_or_else(|message| exit_with(&message))
}

/// Ends the process with a message naming `SHOGGOTH_THREADS` when it is
/// set to anything but a positive integer. The variable sizes the worker
/// pool and decides whether a run generates its stream on a second
/// thread; the pool reads an invalid value as unset, which would silently
/// use every core. Every experiment binary calls this first.
pub fn check_threads() {
    let name = "SHOGGOTH_THREADS";
    let value = std::env::var_os(name);
    if let Err(message) = parse_var(name, value.as_deref(), 0, true) {
        exit_with(&message);
    }
}

/// Prints `message` as an error and exits with status 2.
fn exit_with(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The parse step of [`env_u64`] and [`check_threads`]: `default` for an
/// unset variable, otherwise the value as an integer (a positive one if
/// `positive`) or an error naming the variable.
fn parse_var(
    name: &str,
    value: Option<&OsStr>,
    default: u64,
    positive: bool,
) -> Result<u64, String> {
    let Some(value) = value else {
        return Ok(default);
    };
    let kind = if positive { "positive" } else { "non-negative" };
    value
        .to_str()
        .and_then(|text| text.parse().ok())
        .filter(|&n| n > 0 || !positive)
        .ok_or_else(|| format!("{name}={value:?} is not a {kind} integer"))
}

/// Directory where result JSON files land.
///
/// # Panics
///
/// Aborts if the directory cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Writes a result's JSON text to `target/experiments/<name>.json`, next
/// to the printed table.
///
/// # Panics
///
/// Aborts if the file cannot be written.
pub fn write_json(name: &str, json: &str) {
    let path = out_dir().join(format!("{name}.json"));
    std::fs::write(&path, json).expect("can write result file");
    println!("\n[results written to {}]", path.display());
}

/// Writes one telemetry trace as both artifacts under
/// `target/experiments/`: `<name>.jsonl` (one stamped event per line) and
/// `<name>.html` (the self-contained SVG timeline). Returns the two paths.
///
/// # Panics
///
/// Aborts if either artifact cannot be written.
pub fn export_telemetry(
    name: &str,
    title: &str,
    records: &[shoggoth_telemetry::Record],
) -> (PathBuf, PathBuf) {
    let dir = out_dir();
    let jsonl = dir.join(format!("{name}.jsonl"));
    std::fs::write(&jsonl, shoggoth_telemetry::to_jsonl(records))
        .expect("can write telemetry JSONL");
    let html = dir.join(format!("{name}.html"));
    std::fs::write(&html, shoggoth_telemetry::render_timeline(title, records))
        .expect("can write telemetry timeline");
    (jsonl, html)
}

/// Lowercases a strategy name into a filesystem-safe artifact slug
/// (`Fixed(0.5)` → `fixed_0_5`).
pub fn artifact_slug(name: &str) -> String {
    let mut slug: String = name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    while slug.contains("__") {
        slug = slug.replace("__", "_");
    }
    slug.trim_matches('_').to_owned()
}

/// The paper-scale configuration of one experiment run: `strategy` over
/// `stream`, with the student, teacher and simulation seeds derived from
/// the experiment seed.
pub fn experiment_config(stream: &StreamConfig, strategy: Strategy, seed: u64) -> SimConfig {
    let mut config = SimConfig::new(stream.clone());
    config.strategy = strategy;
    config.student_seed = seed;
    config.teacher_seed = seed.wrapping_add(1);
    config.sim_seed = seed.wrapping_add(2);
    config
}

/// Pre-trained models shared across the strategy runs of one stream, so
/// every strategy starts from the identical student.
pub struct SharedModels {
    /// The pre-trained edge student.
    pub student: StudentDetector,
    /// The pre-trained cloud teacher.
    pub teacher: TeacherDetector,
}

impl SharedModels {
    /// Builds the models once for a stream at full (non-quick) scale.
    pub fn build(stream: &StreamConfig, seed: u64) -> Self {
        let config = experiment_config(stream, Strategy::Shoggoth, seed);
        let (student, teacher) = Simulation::build_models(&config);
        Self { student, teacher }
    }
}

/// Runs every config on clones of the shared models, fanning the
/// independent simulations over `threads` worker threads (`0` = auto,
/// honoring `SHOGGOTH_THREADS`; `1` = serial).
///
/// Each run is seeded by its own config and the reports come back in
/// config order, so the returned vector is bit-identical for every
/// thread count.
///
/// # Panics
///
/// Aborts if any simulation run fails.
pub fn run_configs(
    models: &SharedModels,
    configs: Vec<SimConfig>,
    threads: usize,
) -> Vec<SimReport> {
    let jobs: Vec<_> = configs
        .into_iter()
        .map(|config| (config, models.student.clone(), models.teacher.clone()))
        .collect();
    parallel_map(jobs, threads, |_, (config, student, teacher)| {
        Simulation::run_with_models(&config, student, teacher)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .expect("experiment run failed")
}

/// One stream's experiment context: the stream and seed, its models
/// pre-trained once, and the reports of the strategies it was built with.
///
/// Every experiment on a stream draws from one sweep, so a configuration
/// several experiments report (Table I's Shoggoth run is also Table II's
/// baseline, Table III's adaptive row and both ablations' default row) is
/// simulated once.
pub struct Sweep {
    /// Experiment seed.
    pub seed: u64,
    /// The stream every run plays.
    pub stream: StreamConfig,
    /// The models every run starts from.
    pub models: SharedModels,
    runs: Vec<(SimConfig, SimReport)>,
}

impl Sweep {
    /// The UA-DETRAC sweep at the experiment scale (`SHOGGOTH_FRAMES`,
    /// `SHOGGOTH_SEED`), running `strategies`.
    pub fn detrac(strategies: &[Strategy]) -> Self {
        let seed = experiment_seed();
        let stream = presets::detrac(seed).with_total_frames(experiment_frames());
        Self::new(stream, seed, strategies)
    }

    /// Pre-trains the models for `stream` and runs `strategies` on them.
    pub fn new(stream: StreamConfig, seed: u64, strategies: &[Strategy]) -> Self {
        eprintln!("[sweep] pre-training models for {} ...", stream.name);
        let models = SharedModels::build(&stream, seed);
        let configs: Vec<SimConfig> = strategies
            .iter()
            .map(|&strategy| experiment_config(&stream, strategy, seed))
            .collect();
        let reports = run_configs(&models, configs.clone(), 0);
        Self {
            seed,
            stream,
            models,
            runs: configs.into_iter().zip(reports).collect(),
        }
    }

    /// The experiment configuration of `strategy` on this stream.
    pub fn config(&self, strategy: Strategy) -> SimConfig {
        experiment_config(&self.stream, strategy, self.seed)
    }

    /// The report of a run the sweep already holds for exactly `config`.
    pub fn cached(&self, config: &SimConfig) -> Option<&SimReport> {
        self.runs
            .iter()
            .find(|(run, _)| run == config)
            .map(|(_, report)| report)
    }

    /// Reports for `configs`, in order. A config the sweep already ran
    /// reuses that report; the rest run on the shared models.
    ///
    /// # Panics
    ///
    /// Aborts if any simulation run fails.
    pub fn run(&self, configs: Vec<SimConfig>) -> Vec<SimReport> {
        let fresh: Vec<SimConfig> = configs
            .iter()
            .filter(|config| self.cached(config).is_none())
            .cloned()
            .collect();
        if !fresh.is_empty() {
            eprintln!("[sweep] simulating {} configs ...", fresh.len());
        }
        let mut fresh = run_configs(&self.models, fresh, 0).into_iter();
        configs
            .iter()
            .map(|config| {
                self.cached(config)
                    .cloned()
                    .unwrap_or_else(|| fresh.next().expect("one report per fresh config"))
            })
            .collect()
    }

    /// Reports for `strategies` on this stream, in order.
    ///
    /// # Panics
    ///
    /// Aborts if any simulation run fails.
    pub fn reports(&self, strategies: &[Strategy]) -> Vec<SimReport> {
        self.run(strategies.iter().map(|&s| self.config(s)).collect())
    }
}

/// Prints a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // The env vars are unset in CI; defaults apply.
        if std::env::var("SHOGGOTH_FRAMES").is_err() {
            assert_eq!(experiment_frames(), 27_000);
        }
        if std::env::var("SHOGGOTH_SEED").is_err() {
            assert_eq!(experiment_seed(), 1);
        }
    }

    #[test]
    fn env_values_parse_or_name_the_variable() {
        assert_eq!(parse_var("N", None, 7, false), Ok(7));
        assert_eq!(parse_var("N", Some(OsStr::new("300")), 7, false), Ok(300));
        assert_eq!(parse_var("N", Some(OsStr::new("0")), 7, false), Ok(0));
        for bad in ["3k", "", " 300", "-1", "1.5"] {
            let err = parse_var("SHOGGOTH_FRAMES", Some(OsStr::new(bad)), 7, false)
                .expect_err("an unparsable value is an error");
            assert!(err.contains("SHOGGOTH_FRAMES"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn thread_count_must_be_a_positive_integer() {
        let threads =
            |value: Option<&str>| parse_var("SHOGGOTH_THREADS", value.map(OsStr::new), 0, true);
        assert_eq!(threads(None), Ok(0));
        assert_eq!(threads(Some("1")), Ok(1));
        assert_eq!(threads(Some("2")), Ok(2));
        for bad in ["0", "two", "", "-1", "1.5"] {
            let err = threads(Some(bad)).expect_err("an invalid thread count is an error");
            assert!(err.contains("SHOGGOTH_THREADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn out_dir_is_creatable() {
        let dir = out_dir();
        assert!(dir.exists());
    }

    #[test]
    fn shared_models_are_deterministic() {
        let stream = shoggoth_video::presets::kitti(2).with_total_frames(60);
        // Quick configs would be nicer but SharedModels is the full-scale
        // path; keep the stream tiny so this stays fast.
        let a = SharedModels::build(&stream, 5);
        let b = SharedModels::build(&stream, 5);
        assert_eq!(
            a.student.net().export_weights(),
            b.student.net().export_weights()
        );
    }
}
