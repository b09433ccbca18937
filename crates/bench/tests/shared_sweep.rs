//! The experiments reuse the shared UA-DETRAC sweep's reports instead of
//! re-simulating them, so every reused report must be exactly what a
//! dedicated run of the reusing experiment's own config produces.

use shoggoth::sim::{SimConfig, SimReport};
use shoggoth::strategy::Strategy;
use shoggoth_bench::experiments::fig4::Fig4Result;
use shoggoth_bench::experiments::fig5::Fig5Result;
use shoggoth_bench::experiments::{ablate_controller, ablate_replay, table2, table3};
use shoggoth_bench::{run_configs, SharedModels, Sweep};
use shoggoth_video::presets;

const FRAMES: u64 = 300;
const SEED: u64 = 1;

fn sweep(strategies: &[Strategy]) -> Sweep {
    Sweep::new(
        presets::detrac(SEED).with_total_frames(FRAMES),
        SEED,
        strategies,
    )
}

/// Each experiment's rows and, per row, the shared report it reuses.
fn reused_rows(sweep: &Sweep) -> Vec<(&'static str, usize, SimConfig)> {
    let experiments: [(&str, Vec<SimConfig>); 4] = [
        ("table2", table2::configs(sweep)),
        ("table3", table3::configs(sweep)),
        ("ablate_controller", ablate_controller::configs(sweep)),
        ("ablate_replay", ablate_replay::configs(sweep)),
    ];
    experiments
        .into_iter()
        .flat_map(|(name, configs)| {
            configs
                .into_iter()
                .enumerate()
                .filter(|(_, config)| sweep.cached(config).is_some())
                .map(move |(row, config)| (name, row, config))
        })
        .collect()
}

#[test]
fn reused_rows_equal_dedicated_runs_of_their_own_configs() {
    let sweep = sweep(&[Strategy::Shoggoth]);
    let shared = sweep
        .cached(&sweep.config(Strategy::Shoggoth))
        .expect("the sweep ran Shoggoth")
        .clone();
    let rows = reused_rows(&sweep);
    // Table II's paper-scaled trainer, Table III's adaptive row, the full
    // controller and replay capacity 3000: one baseline row each.
    let expected = [
        ("table2", 0),
        ("table3", 6),
        ("ablate_controller", 0),
        ("ablate_replay", 3),
    ];
    let found: Vec<(&str, usize)> = rows.iter().map(|&(name, row, _)| (name, row)).collect();
    assert_eq!(found, expected);

    let configs = rows.into_iter().map(|(_, _, config)| config).collect();
    for (report, (name, row)) in run_configs(&sweep.models, configs, 0).iter().zip(expected) {
        assert_eq!(
            report, &shared,
            "{name} row {row} differs from the shared run"
        );
    }
}

#[test]
fn only_the_sweep_strategies_are_reused() {
    let sweep = sweep(&[Strategy::Shoggoth]);
    assert!(sweep.cached(&sweep.config(Strategy::Shoggoth)).is_some());
    assert!(sweep.cached(&sweep.config(Strategy::Ams)).is_none());
    let mut tweaked = sweep.config(Strategy::Shoggoth);
    tweaked.trainer.replay_capacity += 1;
    assert!(sweep.cached(&tweaked).is_none());
}

#[test]
fn figures_from_shared_reports_equal_dedicated_runs() {
    let strategies = Strategy::table_one();
    let sweep = sweep(&strategies);
    let shared = sweep.reports(&strategies);
    // What each figure used to do on its own: pre-train the models, then
    // run every strategy one after the other.
    let models = SharedModels::build(&sweep.stream, SEED);
    let dedicated: Vec<SimReport> = strategies
        .iter()
        .flat_map(|&strategy| run_configs(&models, vec![sweep.config(strategy)], 1))
        .collect();
    assert_eq!(shared, dedicated);

    let fig4 = |reports: &[SimReport]| Fig4Result::from_reports(FRAMES, SEED, reports).to_json();
    let fig5 = |reports: &[SimReport]| Fig5Result::from_reports(FRAMES, SEED, reports).to_json();
    assert_eq!(fig4(&shared), fig4(&dedicated));
    assert_eq!(fig5(&shared), fig5(&dedicated));

    let fig5 = Fig5Result::from_reports(FRAMES, SEED, &shared);
    let names: Vec<&str> = fig5.curves.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["Cloud-Only", "Prompt", "AMS", "Shoggoth"]);
    let fig4 = Fig4Result::from_reports(FRAMES, SEED, &shared);
    assert_eq!(fig4.averages.len(), 5);
    assert_eq!(fig4.shoggoth_series, shared[4].fps_series);
}
