//! Regenerates the paper's ablate_controller experiment. See
//! `shoggoth_bench::experiments::ablate_controller`.

fn main() {
    let detrac = shoggoth_bench::Sweep::detrac(&[shoggoth::strategy::Strategy::Shoggoth]);
    shoggoth_bench::experiments::ablate_controller::run(&detrac);
}
