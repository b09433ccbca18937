//! Regenerates the paper's table1 experiment. See
//! `shoggoth_bench::experiments::table1`.

fn main() {
    shoggoth_bench::check_threads();
    let detrac = shoggoth_bench::Sweep::detrac(&shoggoth::strategy::Strategy::table_one());
    shoggoth_bench::experiments::table1::run(&detrac);
}
