//! The YOLOv4-ResNet18-shaped layer stack and its FLOP table.

/// One layer group with its per-image forward cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Layer-group name (`"conv5_4"`, `"pool"`, ... as in the paper).
    pub name: &'static str,
    /// Forward FLOPs per image.
    pub forward_flops: f64,
}

/// An ordered stack of layer groups with named replay boundaries.
///
/// Replay placement `i` means replay activations are injected at the input
/// of layer group `i`; images from replay memory only cross groups
/// `i..len`, while fresh images cross everything.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    layers: Vec<LayerCost>,
}

impl LayerStack {
    /// Builds a stack from layer groups.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or any cost is non-positive.
    pub fn new(layers: Vec<LayerCost>) -> Self {
        assert!(!layers.is_empty(), "layer stack cannot be empty");
        assert!(
            layers.iter().all(|l| l.forward_flops > 0.0),
            "layer costs must be positive"
        );
        Self { layers }
    }

    /// Number of layer groups.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers (never true for a valid stack).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Index of the group with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name == name)
    }

    /// Forward FLOPs per image across groups `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the stack.
    pub fn forward_flops(&self, range: std::ops::Range<usize>) -> f64 {
        self.layers[range].iter().map(|l| l.forward_flops).sum()
    }

    /// Full per-image forward cost.
    pub fn total_forward_flops(&self) -> f64 {
        self.forward_flops(0..self.layers.len())
    }
}

/// YOLOv4 with a ResNet18 backbone at 512×512 input — the paper's student.
///
/// Per-group forward FLOPs total ≈ 14.9 GFLOP/image, distributed the way
/// ResNet18's stages distribute compute, with the Table II boundaries
/// named: `input` (everything), `conv5_4` (late backbone), `pool` (the
/// penultimate layer where the paper's replay lives), and `head`.
pub fn yolov4_resnet18() -> LayerStack {
    // Costs follow the spatial pyramid: early stages at high resolution
    // dominate, late stages (stride 32) are nearly free — which is exactly
    // why the paper's penultimate-layer replay is ~30× cheaper than
    // input-layer replay (Table II).
    LayerStack::new(vec![
        LayerCost {
            name: "stem",
            forward_flops: 2.6e9,
        },
        LayerCost {
            name: "conv2_x",
            forward_flops: 4.9e9,
        },
        LayerCost {
            name: "conv3_x",
            forward_flops: 3.5e9,
        },
        LayerCost {
            name: "conv4_x",
            forward_flops: 2.5e9,
        },
        LayerCost {
            name: "conv5_1",
            forward_flops: 0.75e9,
        },
        LayerCost {
            name: "conv5_4",
            forward_flops: 0.15e9,
        },
        LayerCost {
            name: "neck",
            forward_flops: 0.15e9,
        },
        LayerCost {
            name: "pool",
            forward_flops: 0.02e9,
        },
        LayerCost {
            name: "head",
            forward_flops: 0.06e9,
        },
    ])
}

/// Mask R-CNN with a ResNeXt-101 backbone — the paper's cloud "golden"
/// teacher. Only the total matters (the teacher is never partially
/// executed): ≈ 420 GFLOP per 512×512 frame including the mask head.
pub fn mask_rcnn_x101() -> LayerStack {
    LayerStack::new(vec![
        LayerCost {
            name: "backbone",
            forward_flops: 280.0e9,
        },
        LayerCost {
            name: "fpn",
            forward_flops: 45.0e9,
        },
        LayerCost {
            name: "rpn",
            forward_flops: 25.0e9,
        },
        LayerCost {
            name: "roi_heads",
            forward_flops: 40.0e9,
        },
        LayerCost {
            name: "mask_head",
            forward_flops: 30.0e9,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teacher_stack_dwarfs_student_stack() {
        let teacher = mask_rcnn_x101();
        let student = yolov4_resnet18();
        assert!(teacher.total_forward_flops() > 20.0 * student.total_forward_flops());
    }

    #[test]
    fn teacher_inference_is_subsecond_on_v100() {
        let secs = crate::V100.secs_for(mask_rcnn_x101().total_forward_flops());
        assert!(secs < 0.2, "teacher inference {secs} s per frame");
    }

    #[test]
    fn total_is_plausible_for_yolo_at_512() {
        let stack = yolov4_resnet18();
        let total = stack.total_forward_flops();
        assert!(
            (1.0e10..2.5e10).contains(&total),
            "total forward flops {total}"
        );
    }

    #[test]
    fn named_boundaries_exist_in_order() {
        let stack = yolov4_resnet18();
        let conv5_4 = stack.index_of("conv5_4").expect("conv5_4 exists");
        let pool = stack.index_of("pool").expect("pool exists");
        let head = stack.index_of("head").expect("head exists");
        assert!(conv5_4 < pool && pool < head);
        assert!(stack.index_of("missing").is_none());
    }

    #[test]
    fn tail_after_pool_is_tiny() {
        let stack = yolov4_resnet18();
        let pool = stack.index_of("pool").expect("pool exists");
        let tail = stack.forward_flops(pool..stack.len());
        assert!(
            tail < 0.01 * stack.total_forward_flops(),
            "replay tail should be ~free: {tail}"
        );
    }

    #[test]
    #[should_panic(expected = "layer stack cannot be empty")]
    fn empty_stack_rejected() {
        LayerStack::new(Vec::new());
    }
}
