//! Training-sample synthesis and the paper's pseudo-labeling rule.

use crate::background_class;
use shoggoth_tensor::{losses, Matrix, Mlp, Mode, SgdConfig};
use shoggoth_util::Rng;
use shoggoth_video::{ClassId, Domain, FeatureWorld, Frame};

/// One labeled training sample: a proposal's features and its class label
/// (foreground class index, or the background index).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Latent appearance features.
    pub features: Vec<f32>,
    /// Class label; `background_class(num_classes)` for negatives.
    pub label: usize,
}

impl LabeledSample {
    /// Stacks samples into a `(features, labels)` training batch.
    ///
    /// Returns an empty `0 × 1` matrix for an empty slice.
    pub fn to_batch(samples: &[LabeledSample]) -> (Matrix, Vec<usize>) {
        let dim = samples.first().map_or(1, |s| s.features.len());
        let mut m = Matrix::zeros(samples.len(), dim);
        let mut labels = Vec::with_capacity(samples.len());
        for (r, s) in samples.iter().enumerate() {
            m.row_mut(r).copy_from_slice(&s.features);
            labels.push(s.label);
        }
        (m, labels)
    }
}

/// Synthesizes a labeled batch directly from a domain: `n_objects` object
/// samples (classes drawn from the domain's mix) plus `n_background`
/// distractors, shuffled: one draw of the pre-training corpus generator,
/// split into samples.
pub fn sample_domain_batch(
    world: &FeatureWorld,
    domain: &Domain,
    n_objects: usize,
    n_background: usize,
    rng: &mut Rng,
) -> Vec<LabeledSample> {
    let mut corpus = Corpus::with_capacity(world.feature_dim(), n_objects + n_background);
    corpus.draw(world, domain, n_objects, n_background, rng);
    corpus
        .features
        .as_slice()
        .chunks_exact(corpus.features.cols())
        .zip(corpus.labels)
        .map(|(row, label)| LabeledSample {
            features: row.to_vec(),
            label,
        })
        .collect()
}

/// A contiguous labeled training set, drawn domain by domain: row `i` of
/// `features` is labeled `labels[i]`.
#[derive(Debug)]
pub(crate) struct Corpus {
    features: Matrix,
    labels: Vec<usize>,
    /// Draw scratch, reused across draws: an object's jitter and its
    /// noise-free appearance.
    jitter: Vec<f32>,
    base: Vec<f32>,
}

impl Corpus {
    /// An empty corpus of `dim`-wide samples with room for `samples` rows.
    pub(crate) fn with_capacity(dim: usize, samples: usize) -> Self {
        let data = Vec::with_capacity(dim * samples);
        Self {
            features: Matrix::from_vec(0, dim, data).expect("an empty buffer has zero rows"),
            labels: Vec::with_capacity(samples),
            jitter: vec![0.0; dim],
            base: vec![0.0; dim],
        }
    }

    /// A corpus holding `samples` in order.
    #[cfg(test)]
    pub(crate) fn from_samples(samples: &[LabeledSample]) -> Self {
        let dim = samples.first().map_or(1, |s| s.features.len());
        let (features, labels) = LabeledSample::to_batch(samples);
        Self {
            features,
            labels,
            ..Self::with_capacity(dim, 0)
        }
    }

    /// Appends `n_objects` object samples (classes drawn from the domain's
    /// mix) and `n_background` distractors, each row written in place: an
    /// object row is noise plus the appearance of a jittered prototype, a
    /// background row the domain's background appearance. The appended
    /// rows are then shuffled in place by [`Rng::shuffle_with`], with the
    /// draws shuffling the samples would take.
    ///
    /// # Panics
    ///
    /// Panics if the world's feature width differs from the corpus width.
    pub(crate) fn draw(
        &mut self,
        world: &FeatureWorld,
        domain: &Domain,
        n_objects: usize,
        n_background: usize,
        rng: &mut Rng,
    ) {
        let dim = world.feature_dim();
        let first = self.labels.len();
        let mut data = std::mem::replace(&mut self.features, Matrix::zeros(0, dim)).into_vec();
        data.resize((first + n_objects + n_background) * dim, 0.0);
        let mut rows = data[first * dim..].chunks_exact_mut(dim);
        for row in rows.by_ref().take(n_objects) {
            let class = domain.sample_class(rng);
            rng.fill_gaussian_f32(0.45, &mut self.jitter);
            domain.object_appearance_into(world, class, &self.jitter, &mut self.base);
            rng.fill_gaussian_f32(domain.noise_std(), row);
            for (f, &v) in row.iter_mut().zip(&self.base) {
                *f += v;
            }
            self.labels.push(class);
        }
        for row in rows {
            domain.background_appearance_into(rng, row);
            self.labels.push(background_class(world.num_classes()));
        }
        let drawn = &mut data[first * dim..];
        let labels = &mut self.labels[first..];
        rng.shuffle_with(labels.len(), |i, j| {
            if i != j {
                let (head, tail) = drawn.split_at_mut(i * dim);
                head[j * dim..(j + 1) * dim].swap_with_slice(&mut tail[..dim]);
                labels.swap(i, j);
            }
        });
        self.features = Matrix::from_vec(self.labels.len(), dim, data)
            .expect("world features match the corpus width");
    }
}

/// The optimizer of every training loop in the simulator, pre-training
/// and adaptive sessions alike: momentum SGD at `learning_rate`, with
/// momentum 0.9 and weight decay 1e-4.
pub fn sgd(learning_rate: f32) -> SgdConfig {
    SgdConfig::new(learning_rate)
        .with_momentum(0.9)
        .with_weight_decay(1e-4)
}

/// The pre-training loop of the student and the teacher: `epochs` passes of
/// [`sgd`] over shuffled mini-batches of `corpus`, training layers
/// `trainable_from..` only ([`Mlp::train_step`]). The frozen front still
/// runs forward with batch statistics ([`Mode::Stats`]), so its
/// normalization statistics keep updating, but records no backward cache. Buffers persist across steps, so after the first epoch
/// nothing is allocated.
///
/// # Panics
///
/// Panics if the corpus width disagrees with the network input or
/// `trainable_from` exceeds the layer count.
pub(crate) fn fit(
    net: &mut Mlp,
    corpus: &Corpus,
    epochs: usize,
    batch: usize,
    lr: f32,
    trainable_from: usize,
    rng: &mut Rng,
) {
    if corpus.labels.is_empty() {
        return;
    }
    let sgd = sgd(lr);
    let mut order: Vec<usize> = (0..corpus.labels.len()).collect();
    let mut x = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(batch);
    let mut grad = Matrix::zeros(0, 0);
    for _ in 0..epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch.max(1)) {
            corpus.features.select_rows_into(chunk, &mut x);
            labels.clear();
            labels.extend(chunk.iter().map(|&i| corpus.labels[i]));
            let front = (trainable_from > 0).then(|| {
                net.forward_range(0..trainable_from, &x, Mode::Stats)
                    .expect("corpus width matches the network")
            });
            net.train_step(
                trainable_from,
                front.as_ref().unwrap_or(&x),
                &labels,
                &sgd,
                &mut grad,
            )
            .expect("corpus shapes match the network");
            if let Some(front) = front {
                net.recycle(front);
            }
        }
    }
}

/// Classification accuracy of `net` over labeled samples (eval mode); 0 for
/// none.
///
/// # Panics
///
/// Panics if the sample feature width disagrees with the network input.
pub(crate) fn accuracy(net: &mut Mlp, samples: &[LabeledSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let (x, labels) = LabeledSample::to_batch(samples);
    let logits = net.forward(&x, Mode::Eval).expect("batch shape valid");
    losses::accuracy(&logits, &labels)
}

/// Labels a frame's proposals from a detector's predictions on them (one
/// `(class, confidence)` per proposal, as [`Detector::classify_frame`]
/// returns them), per the paper's Eq. (1): a proposal whose predicted
/// confidence clears `threshold` becomes a positive sample of the
/// predicted class (`y_i = 1` for the detector's class); everything else
/// becomes a background (negative) sample.
///
/// This is the cloud's **online labeling** step: the teacher never sees the
/// ground truth, so the labels inherit the teacher's own errors — exactly
/// the knowledge-distillation setting the paper studies. Taking the
/// predictions rather than the detector lets a caller that also needs the
/// detections classify each frame once.
///
/// [`Detector::classify_frame`]: crate::Detector::classify_frame
pub fn pseudo_label_from(
    predictions: &[(ClassId, f32)],
    frame: &Frame,
    num_classes: usize,
    threshold: f32,
) -> Vec<LabeledSample> {
    let bg = background_class(num_classes);
    predictions
        .iter()
        .take(frame.proposals.len())
        .enumerate()
        .map(|(i, &(class, confidence))| LabeledSample {
            features: frame.proposal_features(i).to_vec(),
            label: if class < bg && confidence >= threshold {
                class
            } else {
                bg
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use shoggoth_video::{DomainLibrary, Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 8, 2));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![1.0, 1.0, 1.0],
        );
        lib
    }

    #[test]
    fn domain_batch_has_requested_composition() {
        let lib = library();
        let mut rng = Rng::seed_from(0);
        let samples = sample_domain_batch(lib.world(), lib.domain(0), 20, 10, &mut rng);
        assert_eq!(samples.len(), 30);
        let bg = samples.iter().filter(|s| s.label == 3).count();
        assert_eq!(bg, 10);
        assert!(samples.iter().all(|s| s.features.len() == 8));
    }

    #[test]
    fn corpus_draw_matches_sample_domain_batch() {
        let lib = library();
        let (mut a, mut b) = (Rng::seed_from(3), Rng::seed_from(3));
        let samples = sample_domain_batch(lib.world(), lib.domain(0), 7, 4, &mut a);
        let mut corpus = Corpus::with_capacity(8, 11);
        corpus.draw(lib.world(), lib.domain(0), 7, 4, &mut b);
        let (features, labels) = LabeledSample::to_batch(&samples);
        assert_eq!(corpus.features, features);
        assert_eq!(corpus.labels, labels);
        assert_eq!(a, b, "same RNG stream consumed");
    }

    #[test]
    fn fit_allocates_nothing_after_the_first_epoch() {
        use shoggoth_tensor::{BatchRenorm, Dense, Relu};
        let lib = library();
        let mut rng = Rng::seed_from(2);
        let mut corpus = Corpus::with_capacity(8, 30);
        corpus.draw(lib.world(), lib.domain(0), 20, 10, &mut rng);
        let mut net = Mlp::new(vec![
            Box::new(BatchRenorm::new(8)),
            Box::new(Dense::new(8, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 4, &mut rng)),
        ]);
        // 30 rows in batches of 8: every epoch ends on a partial batch.
        fit(&mut net, &corpus, 1, 8, 0.05, 0, &mut rng);
        let warm = net.workspace_allocations();
        assert!(warm > 0);
        fit(&mut net, &corpus, 3, 8, 0.05, 0, &mut rng);
        fit(&mut net, &corpus, 2, 8, 0.05, 2, &mut rng);
        assert_eq!(net.workspace_allocations(), warm);
    }

    #[test]
    fn to_batch_shapes_match() {
        let lib = library();
        let mut rng = Rng::seed_from(1);
        let samples = sample_domain_batch(lib.world(), lib.domain(0), 5, 5, &mut rng);
        let (m, labels) = LabeledSample::to_batch(&samples);
        assert_eq!(m.rows(), 10);
        assert_eq!(labels.len(), 10);
        assert_eq!(m.row(3), samples[3].features.as_slice());
    }

    #[test]
    fn to_batch_of_nothing_is_empty() {
        let (m, labels) = LabeledSample::to_batch(&[]);
        assert_eq!(m.rows(), 0);
        assert!(labels.is_empty());
    }

    /// A detector stub that claims class 0 with fixed confidence.
    struct Fixed {
        confidence: f32,
    }

    impl Detector for Fixed {
        fn detect(&mut self, _frame: &Frame) -> Vec<crate::Detection> {
            Vec::new()
        }
        fn classify(&mut self, features: &Matrix) -> Vec<(usize, f32)> {
            vec![(0, self.confidence); features.rows()]
        }
    }

    fn tiny_frame() -> Frame {
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "t".into(),
            ground_truth: Vec::new(),
            proposals: vec![
                shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.0, 0.0, 0.1, 0.1),
                    true_class: Some(1),
                    track_id: Some(0),
                },
                shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.2, 0.2, 0.1, 0.1),
                    true_class: None,
                    track_id: None,
                },
            ],
            features: vec![1.0, 2.0, 3.0, 4.0],
            feature_dim: 2,
            raw_bytes: 100,
            motion_magnitude: 0.0,
        }
    }

    #[test]
    fn confident_predictions_become_positive_labels() {
        let mut det = Fixed { confidence: 0.9 };
        let labels = pseudo_label_from(&det.classify_frame(&tiny_frame()), &tiny_frame(), 3, 0.5);
        assert_eq!(labels.len(), 2);
        assert!(labels.iter().all(|s| s.label == 0));
        assert_eq!(labels[1].features, vec![3.0, 4.0], "row 1 of the block");
    }

    #[test]
    fn unconfident_predictions_become_background() {
        let mut det = Fixed { confidence: 0.3 };
        let labels = pseudo_label_from(&det.classify_frame(&tiny_frame()), &tiny_frame(), 3, 0.5);
        assert!(labels.iter().all(|s| s.label == 3));
    }

    #[test]
    fn empty_frame_yields_no_labels() {
        let mut det = Fixed { confidence: 0.9 };
        let mut frame = tiny_frame();
        frame.proposals.clear();
        frame.features.clear();
        assert!(pseudo_label_from(&det.classify_frame(&frame), &frame, 3, 0.5).is_empty());
    }
}
