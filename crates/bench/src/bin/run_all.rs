//! Runs every experiment in sequence: Tables I-III and Figures 1(c), 4, 5.
//!
//! Scale with `SHOGGOTH_FRAMES` (frames per stream, default 27 000) and
//! `SHOGGOTH_SEED` (default 1). Results also land as JSON under
//! `target/experiments/`.
//!
//! The UA-DETRAC experiments share one sweep: its models are pre-trained
//! once, and Table I's five UA-DETRAC runs are also Figs. 4-5 and the
//! baseline rows of Tables II-III and the two ablations.
//!
//! Experiments with independent simulations (every sweep, the fleet
//! analysis) fan out over worker threads; `SHOGGOTH_THREADS` caps the pool
//! (`SHOGGOTH_THREADS=1` forces serial, and a value that is not a positive
//! integer is an error). Every thread count produces bit-identical tables
//! and JSON — seeding is fixed per work item and results are merged back
//! in submission order.

use shoggoth::strategy::Strategy;
use shoggoth_bench::{experiments, Sweep};

fn main() {
    shoggoth_bench::check_threads();
    println!("=== Shoggoth reproduction: full experiment suite ===\n");
    experiments::fig1c::run();
    println!("\n");
    let detrac = Sweep::detrac(&Strategy::table_one());
    experiments::table1::run(&detrac);
    println!("\n");
    experiments::table2::run(&detrac);
    println!("\n");
    experiments::table3::run(&detrac);
    println!("\n");
    experiments::fig4::run(&detrac);
    println!("\n");
    experiments::fig5::run(&detrac);
    println!("\n");
    experiments::fleet::run();
    println!("\n");
    experiments::ablate_controller::run(&detrac);
    println!("\n");
    experiments::ablate_replay::run(&detrac);
    println!("\n=== done; JSON results in target/experiments/ ===");
}
