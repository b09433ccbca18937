//! Regenerates the paper's fig5 experiment. See
//! `shoggoth_bench::experiments::fig5`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&shoggoth::strategy::Strategy::table_one());
    shoggoth_bench::experiments::fig5::run(&detrac);
}
