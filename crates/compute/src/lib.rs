//! Device compute-cost model.
//!
//! Accuracy dynamics in this reproduction come from genuinely training a
//! small model; **wall-clock** numbers (training seconds in Table II, the
//! FPS dip of Figure 4) cannot come from that model — it is orders of
//! magnitude smaller than YOLOv4. They come from this analytic model
//! instead:
//!
//! * [`JETSON_TX2`] and [`V100`] — the effective sustained FLOP/s of the
//!   paper's edge device and cloud server.
//! * [`stack::LayerStack`] / [`stack::yolov4_resnet18`] — per-layer-group
//!   forward FLOPs of a YOLOv4 + ResNet18 detector at 512×512, with the
//!   named boundaries the paper's Table II ablates ([`Boundary`]:
//!   `conv5_4` and the penultimate `pool`).
//! * [`training::training_time`] — forward/backward seconds of an adaptive
//!   training session, as a function of replay placement, freeze policy,
//!   batch composition and epochs.
//!
//! Which [`TrainingPlan`] a simulated trainer runs is decided where its
//! configuration lives, by `shoggoth::trainer::TrainerConfig::session_time`.
//!
//! # Examples
//!
//! ```
//! use shoggoth_compute::{training_time, yolov4_resnet18, Boundary, TrainingPlan, JETSON_TX2};
//!
//! let stack = yolov4_resnet18();
//! let pool = Boundary::Pool.index(&stack);
//! // The paper's baseline: replay at `pool`, the front frozen and its
//! // activations cached, 300 fresh and 1500 replay images, 8 epochs.
//! let plan = TrainingPlan {
//!     replay_layer: pool,
//!     trainable_from: pool,
//!     fresh_images: 300,
//!     replay_images: 1500,
//!     epochs: 8,
//!     cache_front: true,
//! };
//! let time = training_time(&stack, &plan, &JETSON_TX2);
//! // The paper's Table II reports ~18.6 s overall for this configuration.
//! assert!(time.total_secs() > 5.0 && time.total_secs() < 60.0);
//! ```

pub mod stack;
pub mod training;

pub use stack::{yolov4_resnet18, LayerStack};
pub use training::{training_time, Boundary, TrainingPlan, TrainingTime};

/// Sustained compute characteristics of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Effective sustained throughput in FLOP/s (well below peak).
    pub effective_flops: f64,
}

impl DeviceProfile {
    /// Seconds to execute `flops` floating-point operations.
    pub fn secs_for(&self, flops: f64) -> f64 {
        flops / self.effective_flops
    }
}

/// NVIDIA Jetson TX2-class edge device: ~0.4 TFLOP/s sustained.
pub const JETSON_TX2: DeviceProfile = DeviceProfile {
    effective_flops: 4.0e11,
};

/// NVIDIA V100-class cloud GPU: ~7 TFLOP/s sustained.
pub const V100: DeviceProfile = DeviceProfile {
    effective_flops: 7.0e12,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_is_much_faster_than_edge() {
        const { assert!(V100.effective_flops > 10.0 * JETSON_TX2.effective_flops) };
    }

    #[test]
    fn secs_for_scales_linearly() {
        assert!((JETSON_TX2.secs_for(8.0e11) - 2.0).abs() < 1e-12);
    }
}
