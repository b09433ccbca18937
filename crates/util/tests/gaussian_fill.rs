//! Property test: `Rng::fill_gaussian_f32` is the serial draws it replaces.
//!
//! Two clones of one generator replay the same random interleaving of
//! fills, single Gaussian draws and raw draws; one clone fills, the other
//! draws every fill's values one by one with `next_gaussian_f32(0.0, sd)`.
//! Every output must match bit for bit, and so must the final generators,
//! Box–Muller spare included.

use proptest::prelude::*;
use shoggoth_util::Rng;

/// Standard deviations a caller may pass: 0, ±1e3 and anything in between.
fn std_dev(choice: u8, value: f64) -> f64 {
    match choice {
        0 => 0.0,
        1 => 1e3,
        2 => -1e3,
        _ => value,
    }
}

proptest! {
    /// Each step is `(kind, fill length, mean, std choice, std)`; kind 0
    /// fills, 1 draws `next_gaussian`, 2 `next_gaussian_f32`, 3 `next_u64`.
    #[test]
    fn interleaved_fills_match_serial_draws(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..4, 0usize..71, -1e3..1e3f64, 0u8..6, -1e3..1e3f64),
            0..40,
        ),
    ) {
        let mut fill = Rng::seed_from(seed);
        let mut serial = fill.clone();
        for (step, &(kind, len, mean, choice, value)) in ops.iter().enumerate() {
            let (a, b): (Vec<u64>, Vec<u64>) = match kind {
                0 => {
                    let sd = std_dev(choice, value) as f32;
                    let mut out = vec![0.0f32; len];
                    fill.fill_gaussian_f32(sd, &mut out);
                    let drawn = (0..len).map(|_| serial.next_gaussian_f32(0.0, sd));
                    (
                        out.iter().map(|v| u64::from(v.to_bits())).collect(),
                        drawn.map(|v| u64::from(v.to_bits())).collect(),
                    )
                }
                1 => {
                    let sd = std_dev(choice, value);
                    (
                        vec![fill.next_gaussian(mean, sd).to_bits()],
                        vec![serial.next_gaussian(mean, sd).to_bits()],
                    )
                }
                2 => {
                    let (mean, sd) = (mean as f32, std_dev(choice, value) as f32);
                    (
                        vec![u64::from(fill.next_gaussian_f32(mean, sd).to_bits())],
                        vec![u64::from(serial.next_gaussian_f32(mean, sd).to_bits())],
                    )
                }
                _ => (vec![fill.next_u64()], vec![serial.next_u64()]),
            };
            prop_assert!(a == b, "step {step} ({:?}): {a:?} != {b:?} in {ops:?}", ops[step]);
        }
        prop_assert!(fill == serial, "final generators differ after {ops:?}");
    }
}
