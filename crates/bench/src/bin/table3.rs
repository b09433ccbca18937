//! Regenerates the paper's table3 experiment. See
//! `shoggoth_bench::experiments::table3`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&[shoggoth::strategy::Strategy::Shoggoth]);
    shoggoth_bench::experiments::table3::run(&detrac);
}
