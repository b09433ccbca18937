//! Regenerates the fleet experiment. See
//! `shoggoth_bench::experiments::fleet`.

fn main() {
    shoggoth_bench::check_threads();
    shoggoth_bench::experiments::fleet::run();
}
