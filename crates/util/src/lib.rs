//! Deterministic utilities underpinning the Shoggoth reproduction.
//!
//! Every stochastic component of the simulation draws from the pseudo-random
//! generators in [`rng`], which are seedable, cross-platform stable, and
//! tested against published reference vectors. [`fmath`] holds the only
//! `exp`, `ln` and `sincos` the simulator uses, in plain arithmetic that
//! gives the same bits on every target. [`stats`] provides the
//! summary statistics used by the evaluation harness (means, percentiles,
//! empirical CDFs), [`ewma`] the exponentially-weighted averages used by the
//! sampling-rate controller, [`ring`] a fixed-capacity ring buffer used
//! for recent-frame horizons, [`pool`] a scoped thread pool whose
//! index-merged results keep parallel experiment runs bit-identical to
//! serial ones (and the pipeline that generates a run's stream on a second
//! thread), and [`json`] the deterministic JSON writer behind every
//! report, result file and telemetry trace.
//!
//! # Examples
//!
//! ```
//! use shoggoth_util::Rng;
//!
//! let mut rng = Rng::seed_from(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

pub mod ewma;
pub mod float;
pub mod fmath;
pub mod json;
pub mod pool;
pub mod ring;
pub mod rng;
pub mod stats;

pub use ewma::Ewma;
pub use pool::{available_threads, parallel_map};
pub use ring::RingBuffer;
pub use rng::Rng;
