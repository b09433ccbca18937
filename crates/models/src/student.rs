//! The lightweight edge detector (YOLOv4-ResNet18 stand-in).

use crate::data::{accuracy, fit, Corpus, LabeledSample};
use crate::detector::{classify_frame_with, classify_with, detect_with, Detection, Detector};
use shoggoth_tensor::{BatchRenorm, Dense, Matrix, Mlp, Relu};
use shoggoth_util::Rng;
use shoggoth_video::{ClassId, DomainLibrary, Frame};

/// Configuration of the student detector.
///
/// The default architecture mirrors the paper's setup at latent-space
/// scale: three hidden blocks (`Dense → BatchRenorm → ReLU`) and a linear
/// classification head. The *replay layer* defaults to the penultimate
/// layer ("pool" in the paper), i.e. activations are stored right before
/// the head.
#[derive(Debug, Clone, PartialEq)]
pub struct StudentConfig {
    /// Latent feature dimensionality (must match the stream's world).
    pub feature_dim: usize,
    /// Number of foreground classes (the head adds one background logit).
    pub num_classes: usize,
    /// Hidden-block widths.
    pub widths: Vec<usize>,
    /// Width of the detection head's hidden layer. The head (everything
    /// after the replay layer) is what adaptive training fully retrains —
    /// the paper's "full learning of all layers after the replay layer" —
    /// so it needs genuine capacity.
    pub head_width: usize,
    /// Object samples synthesized for pre-training.
    pub pretrain_objects: usize,
    /// Background samples synthesized for pre-training.
    pub pretrain_background: usize,
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Pre-training mini-batch size.
    pub pretrain_batch: usize,
    /// Pre-training learning rate.
    pub pretrain_lr: f32,
    /// Number of auxiliary domains synthesized for generic backbone
    /// pre-training (the ImageNet-pretraining stand-in). The real
    /// YOLOv4-ResNet18 backbone is pre-trained on large diverse corpora,
    /// which is what makes the paper's frozen-front latent replay viable;
    /// we reproduce that by pre-training the front across `backbone_domains`
    /// randomly-generated domains (never the stream's own domains) before
    /// specializing the head on the source domain.
    pub backbone_domains: usize,
    /// Weight-initialization / pre-training seed.
    pub seed: u64,
}

impl StudentConfig {
    /// Default configuration for a given world shape.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            feature_dim,
            num_classes,
            widths: vec![64, 64, 48],
            head_width: 32,
            pretrain_objects: 1000,
            pretrain_background: 500,
            pretrain_epochs: 25,
            pretrain_batch: 64,
            pretrain_lr: 0.05,
            backbone_domains: 8,
            seed,
        }
    }

    /// Shrinks pre-training for fast unit tests.
    pub fn quick(mut self) -> Self {
        self.widths = vec![32, 24];
        self.head_width = 16;
        self.pretrain_objects = 240;
        self.pretrain_background = 120;
        self.pretrain_epochs = 12;
        self.backbone_domains = 5;
        self
    }
}

/// The lightweight, online-trainable edge detector.
///
/// # Examples
///
/// ```
/// use shoggoth_models::{Detector, StudentConfig, StudentDetector};
/// use shoggoth_video::presets;
///
/// let config = presets::kitti(3).with_total_frames(30);
/// let student_cfg = StudentConfig::new(32, 1, 5).quick();
/// let mut student = StudentDetector::pretrained_with(student_cfg, &config.library, 0);
/// let frame = config.build().next().expect("stream has frames");
/// let detections = student.detect(&frame);
/// assert!(detections.iter().all(|d| d.confidence > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct StudentDetector {
    net: Mlp,
    config: StudentConfig,
    /// Layer index at which latent replay injects by default (input of the
    /// classification head).
    default_replay_layer: usize,
}

impl StudentDetector {
    /// Builds an untrained student from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    pub fn new(config: StudentConfig) -> Self {
        assert!(
            !config.widths.is_empty(),
            "student needs at least one hidden block"
        );
        let mut rng = Rng::seed_from(config.seed ^ 0x5354_5544); // "STUD"
        let mut layers: Vec<Box<dyn shoggoth_tensor::Layer>> = Vec::new();
        // Input normalization: real detectors standardize inputs and carry
        // early BN layers; adapting these statistics online is what
        // absorbs illumination/contrast drift under the freeze policy.
        layers.push(Box::new(BatchRenorm::new(config.feature_dim)));
        let mut in_dim = config.feature_dim;
        for &w in &config.widths {
            layers.push(Box::new(Dense::new(in_dim, w, &mut rng)));
            layers.push(Box::new(BatchRenorm::new(w)));
            layers.push(Box::new(Relu::new()));
            in_dim = w;
        }
        // Detection head: everything after the replay layer ("pool").
        // Adaptive training retrains all of it, so it carries real
        // capacity: a hidden layer plus the classification layer.
        let head_input = layers.len();
        layers.push(Box::new(Dense::new(in_dim, config.head_width, &mut rng)));
        layers.push(Box::new(Relu::new()));
        layers.push(Box::new(Dense::new(
            config.head_width,
            config.num_classes + 1,
            &mut rng,
        )));
        let net = Mlp::new(layers);
        Self {
            net,
            config,
            default_replay_layer: head_input,
        }
    }

    /// Builds a student with the default configuration and pre-trains it on
    /// one domain of the library (conventionally domain 0, the source).
    pub fn pretrained(library: &DomainLibrary, domain_index: usize, seed: u64) -> Self {
        let config = StudentConfig::new(
            library.world().feature_dim(),
            library.world().num_classes(),
            seed,
        );
        Self::pretrained_with(config, library, domain_index)
    }

    /// Builds and pre-trains a student with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's world shape disagrees with the library
    /// or `domain_index` is out of range.
    pub fn pretrained_with(
        config: StudentConfig,
        library: &DomainLibrary,
        domain_index: usize,
    ) -> Self {
        assert_eq!(
            config.feature_dim,
            library.world().feature_dim(),
            "feature dimension mismatch"
        );
        assert_eq!(
            config.num_classes,
            library.world().num_classes(),
            "class count mismatch"
        );
        let mut student = Self::new(config);
        student.pretrain_on_domain(library, domain_index);
        student
    }

    /// Pre-trains the network in two phases, mirroring the paper's setup:
    ///
    /// 1. **Backbone pre-training** — the full network trains on samples
    ///    from [`StudentConfig::backbone_domains`] auxiliary domains
    ///    synthesized from the same feature world but *disjoint from the
    ///    stream's own domains* (the ImageNet-pretraining stand-in). This
    ///    gives the front layers the drift-robust low-level features the
    ///    paper's freeze policy relies on.
    /// 2. **Head specialization** — only the classification head trains on
    ///    the given (source) domain, so the deployed model is
    ///    source-specialized exactly like a detector fine-tuned for one
    ///    camera.
    pub fn pretrain_on_domain(&mut self, library: &DomainLibrary, domain_index: usize) {
        let mut rng = Rng::seed_from(self.config.seed ^ 0x5052_4554); // "PRET"
        self.pretrain_backbone(library, &mut rng);
        self.pretrain_head(library, domain_index, &mut rng);
    }

    /// Phase 1 of [`Self::pretrain_on_domain`]: the whole network fits a
    /// generic corpus from auxiliary domains (a no-op without any).
    fn pretrain_backbone(&mut self, library: &DomainLibrary, rng: &mut Rng) {
        use shoggoth_video::{Illumination, Weather};
        let c = &self.config;
        if c.backbone_domains == 0 {
            return;
        }
        // Same world (same class prototypes), but an independent
        // domain-generation stream so the auxiliary corpus never
        // replicates the stream's own domains.
        let aux_seed = c.seed ^ 0x4241_434b; // "BACK"
        let mut aux = DomainLibrary::with_domain_seed(library.world().config().clone(), aux_seed);
        let (objects, background) = (c.pretrain_objects / 2, c.pretrain_background / 2);
        let mut corpus =
            Corpus::with_capacity(c.feature_dim, (objects + background) * c.backbone_domains);
        for i in 0..c.backbone_domains {
            let illum = match i % 3 {
                0 => Illumination::Day,
                1 => Illumination::Dusk,
                _ => Illumination::Night,
            };
            let weather = match (i / 3) % 3 {
                0 => Weather::Sunny,
                1 => Weather::Cloudy,
                _ => Weather::Rainy,
            };
            let severity = rng.range_f64(0.2, 0.9) as f32;
            let mix = vec![1.0; library.world().num_classes()];
            let domain = aux.generate(&format!("aux-{i}"), illum, weather, severity, mix);
            corpus.draw(library.world(), &domain, objects, background, rng);
        }
        let (epochs, batch, lr) = (c.pretrain_epochs, c.pretrain_batch, c.pretrain_lr);
        fit(&mut self.net, &corpus, epochs, batch, lr, 0, rng);
    }

    /// Phase 2 of [`Self::pretrain_on_domain`]: the head specializes on the
    /// source domain. After a backbone phase the front is frozen, so
    /// backpropagation stops at the default replay layer.
    fn pretrain_head(&mut self, library: &DomainLibrary, domain_index: usize, rng: &mut Rng) {
        let c = &self.config;
        let mut corpus =
            Corpus::with_capacity(c.feature_dim, c.pretrain_objects + c.pretrain_background);
        corpus.draw(
            library.world(),
            library.domain(domain_index),
            c.pretrain_objects,
            c.pretrain_background,
            rng,
        );
        let trainable_from = if c.backbone_domains > 0 {
            self.default_replay_layer
        } else {
            0
        };
        let (epochs, batch, lr) = (c.pretrain_epochs, c.pretrain_batch, c.pretrain_lr);
        fit(
            &mut self.net,
            &corpus,
            epochs,
            batch,
            lr,
            trainable_from,
            rng,
        );
    }

    /// Classification accuracy over labeled samples (eval mode).
    ///
    /// # Panics
    ///
    /// Panics if the sample feature width disagrees with the network
    /// input — a shape pinned by the constructor.
    pub fn evaluate(&mut self, samples: &[LabeledSample]) -> f64 {
        accuracy(&mut self.net, samples)
    }

    /// The layer index at which latent replay injects by default (the
    /// paper's "penultimate (pool)" layer — the input of the head).
    pub fn default_replay_layer(&self) -> usize {
        self.default_replay_layer
    }

    /// Number of layers in the network.
    pub fn layer_count(&self) -> usize {
        self.net.len()
    }

    /// The configuration the student was built with.
    pub fn config(&self) -> &StudentConfig {
        &self.config
    }

    /// Read access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access to the underlying network (the adaptive trainer needs
    /// partial forward/backward control).
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Serialized model size in bytes (what AMS ships per update).
    pub fn weight_bytes(&self) -> usize {
        self.net.byte_size()
    }
}

impl Detector for StudentDetector {
    fn detect(&mut self, frame: &Frame) -> Vec<Detection> {
        let num_classes = self.config.num_classes;
        detect_with(self, frame, num_classes)
    }

    fn classify(&mut self, features: &Matrix) -> Vec<(ClassId, f32)> {
        classify_with(&mut self.net, features)
    }

    fn classify_frame(&mut self, frame: &Frame) -> Vec<(ClassId, f32)> {
        classify_frame_with(&mut self.net, frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::sample_domain_batch;
    use shoggoth_video::{Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 16, 4));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![1.0, 1.0, 1.0],
        );
        // A heavy but low-noise drift: recoverable by adaptation (the
        // noise-limited night ceiling would mask recovery).
        lib.generate(
            "night",
            Illumination::Dusk,
            Weather::Cloudy,
            0.9,
            vec![1.0, 1.0, 1.0],
        );
        lib
    }

    fn quick_config() -> StudentConfig {
        StudentConfig::new(16, 3, 1).quick()
    }

    #[test]
    fn pretraining_learns_the_source_domain() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(10);
        let eval = sample_domain_batch(lib.world(), lib.domain(0), 200, 100, &mut rng);
        let acc = student.evaluate(&eval);
        assert!(acc > 0.75, "source-domain accuracy {acc}");
    }

    #[test]
    fn data_drift_degrades_the_student() {
        // The core claim behind the whole paper: a lightweight model
        // pre-trained on one domain loses accuracy on a severe domain.
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(11);
        let source = sample_domain_batch(lib.world(), lib.domain(0), 300, 150, &mut rng);
        let drifted = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let acc_source = student.evaluate(&source);
        let acc_drifted = student.evaluate(&drifted);
        assert!(
            acc_drifted < acc_source - 0.10,
            "drift should hurt: source {acc_source}, drifted {acc_drifted}"
        );
    }

    #[test]
    fn fine_tuning_on_drifted_data_recovers_accuracy() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(12);
        let train = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let eval = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let before = student.evaluate(&eval);
        let train = Corpus::from_samples(&train);
        fit(student.net_mut(), &train, 10, 64, 0.03, 0, &mut rng);
        let after = student.evaluate(&eval);
        assert!(
            after > before + 0.04,
            "fine-tuning should recover accuracy: {before} -> {after}"
        );
    }

    /// The front layers' exported parameters (everything before the
    /// default replay layer), split into the trained part (Dense weights
    /// and biases, BatchRenorm γ/β) and the BatchRenorm running moments.
    fn front_params(student: &StudentDetector) -> (Vec<f32>, Vec<f32>) {
        let c = student.config();
        let mut segments = vec![(2 * c.feature_dim, true), (2 * c.feature_dim, false)];
        let mut in_dim = c.feature_dim;
        for &w in &c.widths {
            segments.extend([(in_dim * w + w, true), (2 * w, true), (2 * w, false)]);
            in_dim = w;
        }
        let weights = student.net().export_weights();
        let (mut trained, mut moments, mut at) = (Vec::new(), Vec::new(), 0);
        for (len, is_trained) in segments {
            let part = &weights[at..at + len];
            if is_trained {
                trained.extend_from_slice(part);
            } else {
                moments.extend_from_slice(part);
            }
            at += len;
        }
        (trained, moments)
    }

    #[test]
    fn head_specialization_keeps_the_backbone_weights() {
        let lib = library();
        let mut student = StudentDetector::new(quick_config());
        let mut rng = Rng::seed_from(14);
        student.pretrain_backbone(&lib, &mut rng);
        let (trained, moments) = front_params(&student);
        let all = student.net().export_weights();
        student.pretrain_head(&lib, 0, &mut rng);
        let (trained_after, moments_after) = front_params(&student);
        assert_eq!(trained, trained_after, "the frozen front must not move");
        assert_ne!(moments, moments_after, "BatchRenorm statistics still adapt");
        assert_ne!(all, student.net().export_weights(), "the head trains");
    }

    #[test]
    fn default_replay_layer_is_head_input() {
        let student = StudentDetector::new(quick_config());
        // Input BRN + 2 hidden blocks of 3 layers -> head input at index 7.
        assert_eq!(student.default_replay_layer(), 7);
        // Head: Dense -> ReLU -> Dense.
        assert_eq!(student.layer_count(), 10);
    }

    #[test]
    fn detect_drops_background_predictions() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(13);
        // A frame of pure background proposals should yield few detections.
        let mut features = vec![0.0; 20 * lib.world().feature_dim()];
        for row in features.chunks_exact_mut(lib.world().feature_dim()) {
            lib.domain(0).background_appearance_into(&mut rng, row);
        }
        let frame = Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "day".into(),
            ground_truth: Vec::new(),
            proposals: vec![
                shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.1, 0.1, 0.1, 0.1),
                    true_class: None,
                    track_id: None,
                };
                20
            ],
            features,
            feature_dim: 16,
            raw_bytes: 0,
            motion_magnitude: 0.0,
        };
        let detections = student.detect(&frame);
        assert!(
            detections.len() <= 6,
            "too many false positives on background: {}",
            detections.len()
        );
    }

    #[test]
    fn imported_weights_classify_like_the_exporter() {
        // The weights cover every eval input: Dense weights and biases, and
        // BatchRenorm's γ, β and running moments. A copy that imports them
        // classifies bit for bit like the exporter, also after the exporter
        // fine-tunes (which moves every one of them).
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut copy = StudentDetector::new(StudentConfig::new(16, 3, 99).quick());
        let mut rng = Rng::seed_from(14);
        let night = sample_domain_batch(lib.world(), lib.domain(1), 60, 30, &mut rng);
        let (x, _) = LabeledSample::to_batch(&night);
        let night = Corpus::from_samples(&night);
        for round in 0..2 {
            copy.net_mut()
                .import_weights(&student.net().export_weights())
                .expect("same shape");
            assert_eq!(copy.classify(&x), student.classify(&x), "round {round}");
            fit(student.net_mut(), &night, 1, 16, 0.05, 0, &mut rng);
        }
    }

    #[test]
    fn classify_on_empty_batch_is_empty() {
        let mut student = StudentDetector::new(quick_config());
        assert!(student.classify(&Matrix::zeros(0, 16)).is_empty());
    }

    #[test]
    fn weight_bytes_counts_parameters() {
        let student = StudentDetector::new(quick_config());
        assert_eq!(student.weight_bytes(), student.net().param_count() * 4);
    }
}
