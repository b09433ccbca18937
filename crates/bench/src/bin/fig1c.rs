//! Regenerates the paper's fig1c experiment. See
//! `shoggoth_bench::experiments::fig1c`.

fn main() {
    shoggoth_bench::check_threads();
    shoggoth_bench::experiments::fig1c::run();
}
