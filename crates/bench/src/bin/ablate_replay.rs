//! Regenerates the paper's ablate_replay experiment. See
//! `shoggoth_bench::experiments::ablate_replay`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&[shoggoth::strategy::Strategy::Shoggoth]);
    shoggoth_bench::experiments::ablate_replay::run(&detrac);
}
