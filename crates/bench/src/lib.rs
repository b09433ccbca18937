//! Shared harness utilities for the experiment binaries.
//!
//! Each binary (`table1`, `table2`, `table3`, `fig4`, `fig5`, `fig1c`)
//! regenerates one table or figure of the paper: it runs the simulation at
//! the configured scale, prints the paper's rows side by side with the
//! measured ones, and writes a machine-readable JSON copy under
//! `target/experiments/`.
//!
//! Scale is controlled by the `SHOGGOTH_FRAMES` environment variable
//! (frames per stream; default 27 000 = 15 minutes of 30 fps video) and
//! `SHOGGOTH_SEED` (default 1).

pub mod experiments;

use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_util::parallel_map;
use shoggoth_video::StreamConfig;
use std::path::PathBuf;

/// Frames per stream for experiment runs (`SHOGGOTH_FRAMES`, default
/// 27 000 ≈ 15 minutes at 30 fps).
pub fn experiment_frames() -> u64 {
    std::env::var("SHOGGOTH_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(27_000)
}

/// Experiment seed (`SHOGGOTH_SEED`, default 1).
pub fn experiment_seed() -> u64 {
    std::env::var("SHOGGOTH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
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

/// Runs one strategy over a stream with shared models.
///
/// # Panics
///
/// Aborts if the simulation run fails.
pub fn run_strategy(
    stream: &StreamConfig,
    strategy: Strategy,
    models: &SharedModels,
    seed: u64,
) -> SimReport {
    let config = experiment_config(stream, strategy, seed);
    Simulation::run_with_models(&config, models.student.clone(), models.teacher.clone())
        .expect("experiment run failed")
}

/// Runs several strategies over one stream with shared models, fanning the
/// independent simulations over `threads` worker threads (`0` = auto,
/// honoring `SHOGGOTH_THREADS`; `1` = serial).
///
/// Seeding happens per strategy before the fan-out and reports are merged
/// back in strategy order, so the returned vector is bit-identical for
/// every thread count.
///
/// # Panics
///
/// Aborts if any simulation run fails.
pub fn run_strategies(
    stream: &StreamConfig,
    strategies: &[Strategy],
    models: &SharedModels,
    seed: u64,
    threads: usize,
) -> Vec<SimReport> {
    let jobs: Vec<(Strategy, StudentDetector, TeacherDetector)> = strategies
        .iter()
        .map(|&strategy| (strategy, models.student.clone(), models.teacher.clone()))
        .collect();
    parallel_map(jobs, threads, |_, (strategy, student, teacher)| {
        Simulation::run_with_models(&experiment_config(stream, strategy, seed), student, teacher)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .expect("experiment run failed")
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
    fn out_dir_is_creatable() {
        let dir = out_dir();
        assert!(dir.exists());
    }

    #[test]
    fn table2_wallclock_variants_keep_paper_ordering() {
        let secs = |v: &str| crate::experiments::table2::wallclock_of(v).expect("known variant");
        let ours = secs("Ours (Baseline)");
        let frozen = secs("Completely Freezing");
        let conv = secs("Conv5_4");
        let none = secs("No Replay Memory");
        let input = secs("Input");
        assert!((ours - frozen).abs() < 1e-9);
        assert!(ours < conv && conv < none && none < input);
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
