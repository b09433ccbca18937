//! One module per table/figure of the paper's evaluation.

pub mod ablate_controller;
pub mod ablate_replay;
pub mod fig1c;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod table1;
pub mod table2;
pub mod table3;

use shoggoth_util::json::{self, Obj};

/// A result row that writes itself as a JSON object.
pub trait Row {
    /// The row as a JSON object.
    fn to_json(&self) -> String;
}

/// An experiment's measured rows in table order, with the scale they
/// were measured at.
#[derive(Debug)]
pub struct Rows<R> {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Measured rows in table order.
    pub rows: Vec<R>,
}

impl<R: Row> Rows<R> {
    /// The result as a JSON object.
    pub fn to_json(&self) -> String {
        let Self { frames, seed, rows } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("rows", &json::array(rows.iter().map(R::to_json)))
            .finish()
    }
}
