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

impl TrainingPlan {
    /// The paper's baseline ("Ours"): replay at the penultimate `pool`
    /// layer, front frozen after the first batch (activations cached),
    /// 300 fresh / 1500 replay images, 8 epochs.
    ///
    /// # Panics
    ///
    /// Panics if the stack has no `pool` layer.
    pub fn paper_defaults(stack: &LayerStack) -> Self {
        let pool = stack
            .index_of("pool")
            .expect("stack must name a pool layer");
        Self {
            replay_layer: pool,
            trainable_from: pool,
            fresh_images: 300,
            replay_images: 1500,
            epochs: 8,
            cache_front: true,
        }
    }

    /// Table II variant: replay memory on the input layer (raw images).
    ///
    /// # Panics
    ///
    /// Panics if the stack has no `pool` layer.
    pub fn input_replay(stack: &LayerStack) -> Self {
        let pool = stack
            .index_of("pool")
            .expect("stack must name a pool layer");
        Self {
            replay_layer: 0,
            trainable_from: pool,
            cache_front: false,
            ..Self::paper_defaults(stack)
        }
    }

    /// Table II variant: front layers completely frozen (identical cost
    /// structure to the baseline; differs in accuracy, not time).
    pub fn completely_frozen(stack: &LayerStack) -> Self {
        Self::paper_defaults(stack)
    }

    /// Table II variant: replay at the `conv5_4` layer.
    ///
    /// # Panics
    ///
    /// Panics if the stack has no `conv5_4` layer.
    pub fn conv5_4(stack: &LayerStack) -> Self {
        let conv = stack
            .index_of("conv5_4")
            .expect("stack must name a conv5_4 layer");
        Self {
            replay_layer: conv,
            trainable_from: conv,
            ..Self::paper_defaults(stack)
        }
    }

    /// Table II variant: no replay memory — only the fresh batch is used,
    /// and without a replay buffer there is nowhere to cache activations,
    /// so fresh images cross the full network every epoch.
    pub fn no_replay(stack: &LayerStack) -> Self {
        Self {
            replay_images: 0,
            cache_front: false,
            ..Self::paper_defaults(stack)
        }
    }

    /// Rescales the batch composition, preserving everything else. Used by
    /// the simulation, which runs smaller sessions than the paper's
    /// 300/1500 (see DESIGN.md).
    pub fn with_batch(mut self, fresh: usize, replay: usize) -> Self {
        self.fresh_images = fresh;
        self.replay_images = replay;
        self
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

    let forward_flops = front_passes * front_fwd + tail_passes * tail_fwd;
    let backward_flops = tail_passes * trainable_fwd;
    TrainingTime {
        forward_secs: device.secs_for(forward_flops),
        backward_secs: device.secs_for(backward_flops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::yolov4_resnet18;
    use crate::{jetson_tx2, v100};

    fn all_variants() -> Vec<(&'static str, TrainingPlan)> {
        let stack = yolov4_resnet18();
        vec![
            ("ours", TrainingPlan::paper_defaults(&stack)),
            ("input", TrainingPlan::input_replay(&stack)),
            ("frozen", TrainingPlan::completely_frozen(&stack)),
            ("conv5_4", TrainingPlan::conv5_4(&stack)),
            ("no_replay", TrainingPlan::no_replay(&stack)),
        ]
    }

    #[test]
    fn table_ii_ordering_holds() {
        let stack = yolov4_resnet18();
        let device = jetson_tx2();
        let time = |name: &str| {
            let plan = all_variants()
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("variant exists")
                .1;
            training_time(&stack, &plan, &device).total_secs()
        };
        let ours = time("ours");
        let frozen = time("frozen");
        let conv = time("conv5_4");
        let no_replay = time("no_replay");
        let input = time("input");
        // Paper Table II: 18.6 ≈ 18.5 < 26.0 < 101.9 < 567.8.
        assert!(
            (ours - frozen).abs() < 1e-9,
            "ours {ours} vs frozen {frozen}"
        );
        assert!(ours < conv, "ours {ours} < conv5_4 {conv}");
        assert!(conv < no_replay, "conv5_4 {conv} < no-replay {no_replay}");
        assert!(no_replay < input, "no-replay {no_replay} < input {input}");
        // Input replay is ~30× the baseline in the paper.
        let ratio = input / ours;
        assert!((10.0..60.0).contains(&ratio), "input/ours ratio {ratio}");
    }

    #[test]
    fn baseline_magnitude_matches_paper() {
        let stack = yolov4_resnet18();
        let t = training_time(&stack, &TrainingPlan::paper_defaults(&stack), &jetson_tx2());
        // Paper: 18.6 s overall; accept the right order of magnitude.
        assert!(
            (8.0..40.0).contains(&t.total_secs()),
            "baseline session {} s",
            t.total_secs()
        );
        assert!(t.backward_secs < t.forward_secs);
    }

    #[test]
    fn cloud_device_trains_much_faster() {
        let stack = yolov4_resnet18();
        let plan = TrainingPlan::paper_defaults(&stack);
        let edge = training_time(&stack, &plan, &jetson_tx2()).total_secs();
        let cloud = training_time(&stack, &plan, &v100()).total_secs();
        assert!(cloud < edge / 10.0);
    }

    #[test]
    fn smaller_batches_scale_cost_down() {
        let stack = yolov4_resnet18();
        let big = TrainingPlan::paper_defaults(&stack);
        let small = TrainingPlan::paper_defaults(&stack).with_batch(60, 300);
        let tb = training_time(&stack, &big, &jetson_tx2()).total_secs();
        let ts = training_time(&stack, &small, &jetson_tx2()).total_secs();
        assert!(
            (ts - tb / 5.0).abs() < tb * 0.05,
            "expected ~5x cheaper: {tb} vs {ts}"
        );
    }
}
