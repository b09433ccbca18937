//! Regenerates the paper's ablate_controller experiment. See
//! `shoggoth_bench::experiments::ablate_controller`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&[shoggoth::strategy::Strategy::Shoggoth]);
    shoggoth_bench::experiments::ablate_controller::run(&detrac);
}
