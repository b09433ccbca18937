//! Regenerates the paper's fig4 experiment. See
//! `shoggoth_bench::experiments::fig4`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&shoggoth::strategy::Strategy::table_one());
    shoggoth_bench::experiments::fig4::run(&detrac);
}
