//! Device compute-cost model.
//!
//! Accuracy dynamics in this reproduction come from genuinely training a
//! small model; **wall-clock** numbers (training seconds in Table II, the
//! FPS dip of Figure 4) cannot come from that model — it is orders of
//! magnitude smaller than YOLOv4. They come from this analytic model
//! instead:
//!
//! * [`DeviceProfile`] — effective sustained FLOP/s of a Jetson-TX2-class
//!   edge device and a V100-class cloud server.
//! * [`stack::LayerStack`] / [`stack::yolov4_resnet18`] — per-layer-group
//!   forward FLOPs of a YOLOv4 + ResNet18 detector at 512×512, with the
//!   named boundaries the paper's Table II ablates (`input`, `conv5_4`,
//!   `pool`/penultimate).
//! * [`training::training_time`] — forward/backward seconds of an adaptive
//!   training session, as a function of replay placement, freeze policy,
//!   batch composition and epochs.
//! * [`Contention`] — how much inference FPS survives while training runs
//!   on the same device (the paper observes 30 → 15).
//!
//! # Examples
//!
//! ```
//! use shoggoth_compute::{jetson_tx2, stack, training::{training_time, TrainingPlan}};
//!
//! let stack = stack::yolov4_resnet18();
//! let plan = TrainingPlan::paper_defaults(&stack);
//! let time = training_time(&stack, &plan, &jetson_tx2());
//! // The paper's Table II reports ~18.6 s overall for this configuration.
//! assert!(time.total_secs() > 5.0 && time.total_secs() < 60.0);
//! ```

pub mod contention;
pub mod stack;
pub mod training;

pub use contention::Contention;
pub use stack::{yolov4_resnet18, LayerStack};
pub use training::{training_time, TrainingPlan, TrainingTime};

/// Sustained compute characteristics of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device name for reports.
    pub name: &'static str,
    /// Effective sustained throughput in FLOP/s (well below peak).
    pub effective_flops: f64,
    /// Inference frame-rate cap when the device is otherwise idle.
    pub idle_inference_fps: f64,
}

impl DeviceProfile {
    /// Seconds to execute `flops` floating-point operations.
    pub fn secs_for(&self, flops: f64) -> f64 {
        flops / self.effective_flops
    }
}

/// NVIDIA Jetson TX2-class edge device: ~0.4 TFLOP/s sustained, capped at
/// the 30 fps the paper's edge inference achieves.
pub fn jetson_tx2() -> DeviceProfile {
    DeviceProfile {
        name: "jetson-tx2",
        effective_flops: 4.0e11,
        idle_inference_fps: 30.0,
    }
}

/// NVIDIA V100-class cloud GPU: ~7 TFLOP/s sustained.
pub fn v100() -> DeviceProfile {
    DeviceProfile {
        name: "v100",
        effective_flops: 7.0e12,
        idle_inference_fps: 120.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_is_much_faster_than_edge() {
        assert!(v100().effective_flops > 10.0 * jetson_tx2().effective_flops);
    }

    #[test]
    fn secs_for_scales_linearly() {
        let d = jetson_tx2();
        assert!((d.secs_for(8.0e11) - 2.0).abs() < 1e-12);
    }
}
