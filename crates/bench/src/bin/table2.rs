//! Regenerates the paper's table2 experiment. See
//! `shoggoth_bench::experiments::table2`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&[shoggoth::strategy::Strategy::Shoggoth]);
    shoggoth_bench::experiments::table2::run(&detrac);
}
