//! Peak resident memory of one strategy on the `table1-detrac` pair:
//! pre-trains the paper-scale student (seed 1) and teacher (seed 2) on a
//! 3 000-frame UA-DETRAC stream, as perfbench's `table1-detrac` workload
//! does, then plays one Table I strategy on clones of them, and prints the
//! process's peak resident set (`VmHWM`) after each step. Run one
//! strategy per process, so each peak is that strategy's own:
//!
//! ```bash
//! for s in edge-only cloud-only prompt ams shoggoth; do
//!   cargo run -q --release -p shoggoth-bench --bin memory -- $s
//! done
//! ```
//!
//! The strategy is a Table I name in any case, with `-` or `_` (e.g.
//! `Edge-Only`, `edge_only`). `SHOGGOTH_SEED` sets the simulation seed
//! (default 1); the stream and the models keep seeds 1 and 2. `VmHWM`
//! comes from `/proc/self/status`, so it prints `n/a` off Linux.

use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_bench::{artifact_slug, experiment_seed};
use shoggoth_video::presets;

/// Frames of the `table1-detrac` stream.
const FRAMES: u64 = 3_000;
/// Seed of the stream and the student; the teacher takes the next one.
const MODEL_SEED: u64 = 1;

fn main() {
    shoggoth_bench::check_threads();
    let names = Strategy::table_one().map(|s| artifact_slug(&s.name()).replace('_', "-"));
    let usage = format!("usage: memory <{}>", names.join("|"));
    let mut args = std::env::args().skip(1);
    let (Some(arg), None) = (args.next(), args.next()) else {
        exit_with(&usage);
    };
    let Some(strategy) = Strategy::table_one()
        .into_iter()
        .find(|s| artifact_slug(&s.name()) == artifact_slug(&arg))
    else {
        exit_with(&format!("unknown strategy {arg:?}; {usage}"));
    };

    let mut config = SimConfig::new(presets::detrac(MODEL_SEED).with_total_frames(FRAMES));
    config.strategy = strategy;
    config.student_seed = MODEL_SEED;
    config.teacher_seed = MODEL_SEED + 1;
    config.sim_seed = experiment_seed();

    let (student, teacher) = Simulation::build_models(&config);
    println!("VmHWM after pre-training: {}", peak_rss());
    let report = Simulation::run_with_models(&config, student.clone(), teacher.clone())
        .unwrap_or_else(|e| exit_with(&format!("{strategy} run failed: {e}")));
    println!(
        "VmHWM after {strategy}: {} (mAP {:.1}%, {} sessions)",
        peak_rss(),
        100.0 * report.map50,
        report.training_sessions
    );
}

/// The process's peak resident set in MiB, or `n/a`.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kib: f64 = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()?;
            Some(format!("{:.1} MiB", kib / 1024.0))
        })
        .unwrap_or_else(|| "n/a".to_owned())
}

/// Prints `message` as an error and exits with status 2.
fn exit_with(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
