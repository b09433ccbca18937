//! Regenerates the paper's table1 experiment. See
//! `shoggoth_bench::experiments::table1`.

fn main() {
    let detrac = shoggoth_bench::Sweep::detrac(&shoggoth::strategy::Strategy::table_one());
    shoggoth_bench::experiments::table1::run(&detrac);
}
