//! Training-session wall-clock estimation (Table II, Figure 4).

use crate::stack::LayerStack;
use crate::DeviceProfile;

/// A description of one adaptive training session, sufficient to estimate
/// its wall-clock cost on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingPlan {
    /// Layer-group index where replay activations inject (`0` = input).
    pub replay_layer: usize,
    /// First layer-group index that receives gradient updates.
    pub trainable_from: usize,
    /// Fresh images in the training batch (the paper's `N = 300`).
    pub fresh_images: usize,
    /// Replay images (the paper's `M = 1500`).
    pub replay_images: usize,
    /// Epochs per session (the paper uses 8).
    pub epochs: usize,
    /// Whether fresh activations at the replay layer are computed once per
    /// session and cached (possible exactly when the front is frozen and a
    /// replay buffer exists to hold them).
    pub cache_front: bool,
}

/// A named layer-group boundary of [`yolov4_resnet18`](crate::yolov4_resnet18)
/// that the paper's Table II places replay at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The late-backbone `conv5_4` group (Table II's "Conv5_4" row).
    Conv5_4,
    /// The penultimate `pool` layer, where the paper's replay lives.
    Pool,
}

impl Boundary {
    /// Index of this boundary's layer group in `stack`.
    ///
    /// # Panics
    ///
    /// Panics if `stack` has no group of this name.
    pub fn index(self, stack: &LayerStack) -> usize {
        let name = match self {
            Boundary::Conv5_4 => "conv5_4",
            Boundary::Pool => "pool",
        };
        stack
            .index_of(name)
            .expect("the stack names the Table II boundaries")
    }
}

/// Estimated wall-clock of one training session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingTime {
    /// Seconds spent in forward passes.
    pub forward_secs: f64,
    /// Seconds spent in backward passes.
    pub backward_secs: f64,
}

impl TrainingTime {
    /// Total session wall-clock.
    pub fn total_secs(&self) -> f64 {
        self.forward_secs + self.backward_secs
    }
}

/// Estimates the wall-clock of a training session.
///
/// Cost rules (derived from the paper's §III-B training control):
///
/// * Every epoch, all `fresh + replay` images cross the layer groups from
///   the replay boundary to the output ("tail").
/// * Fresh images additionally cross the front (`0..replay_layer`): once
///   per session when activations are cached, else once per epoch.
/// * Backward work covers the trainable groups (`trainable_from..`),
///   estimated at 1× the forward FLOPs of that range per image pass
///   (parameter gradients with frozen normalization).
///
/// # Panics
///
/// Panics if the plan's layer indices exceed the stack.
pub fn training_time(
    stack: &LayerStack,
    plan: &TrainingPlan,
    device: &DeviceProfile,
) -> TrainingTime {
    assert!(
        plan.replay_layer <= stack.len() && plan.trainable_from <= stack.len(),
        "plan layer indices exceed the stack"
    );
    let front_fwd = stack.forward_flops(0..plan.replay_layer);
    let tail_fwd = stack.forward_flops(plan.replay_layer..stack.len());
    let trainable_fwd = stack.forward_flops(plan.trainable_from..stack.len());

    let tail_passes = (plan.fresh_images + plan.replay_images) as f64 * plan.epochs as f64;
    let front_passes = plan.fresh_images as f64
        * if plan.cache_front {
            1.0
        } else {
            plan.epochs as f64
        };

    let forward = front_passes * front_fwd + tail_passes * tail_fwd;
    let backward = tail_passes * trainable_fwd;
    TrainingTime {
        forward_secs: device.secs_for(forward),
        backward_secs: device.secs_for(backward),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::yolov4_resnet18;
    use crate::{JETSON_TX2, V100};

    /// The paper's baseline session at `fresh`/`replay` images.
    fn ours(stack: &LayerStack, fresh: usize, replay: usize) -> TrainingPlan {
        let pool = Boundary::Pool.index(stack);
        TrainingPlan {
            replay_layer: pool,
            trainable_from: pool,
            fresh_images: fresh,
            replay_images: replay,
            epochs: 8,
            cache_front: true,
        }
    }

    #[test]
    fn baseline_magnitude_matches_paper() {
        let stack = yolov4_resnet18();
        let t = training_time(&stack, &ours(&stack, 300, 1500), &JETSON_TX2);
        // Paper: 18.6 s overall; accept the right order of magnitude.
        assert!(
            (8.0..40.0).contains(&t.total_secs()),
            "baseline session {} s",
            t.total_secs()
        );
        assert!(t.backward_secs < t.forward_secs);
    }

    #[test]
    fn cloud_trains_much_faster() {
        let stack = yolov4_resnet18();
        let plan = ours(&stack, 300, 1500);
        let edge = training_time(&stack, &plan, &JETSON_TX2).total_secs();
        let cloud = training_time(&stack, &plan, &V100).total_secs();
        assert!(cloud < edge / 10.0);
    }

    #[test]
    fn smaller_batches_scale_cost_down() {
        let stack = yolov4_resnet18();
        let tb = training_time(&stack, &ours(&stack, 300, 1500), &JETSON_TX2).total_secs();
        let ts = training_time(&stack, &ours(&stack, 60, 300), &JETSON_TX2).total_secs();
        assert!(
            (ts - tb / 5.0).abs() < tb * 0.05,
            "expected ~5x cheaper: {tb} vs {ts}"
        );
    }

    #[test]
    fn boundaries_resolve_in_stack_order() {
        let stack = yolov4_resnet18();
        let conv5_4 = Boundary::Conv5_4.index(&stack);
        let pool = Boundary::Pool.index(&stack);
        assert!(0 < conv5_4 && conv5_4 < pool && pool < stack.len());
    }
}
