//! Replay memory management — the paper's Algorithm 1, verbatim.
//!
//! The memory stores **activation volumes** at the replay layer (not raw
//! inputs), plus their labels. After each adaptive training run `i`, a
//! random `h = M_size / i` images from the fresh batch replace an equally
//! random subset of the memory; before the memory fills, everything is
//! memorized. This gives every historical batch an equal steady-state
//! probability of residing in memory — the property that prevents
//! forgetting.

use shoggoth_util::Rng;

/// One memorized sample: the activation volume captured at the replay
/// layer and its (pseudo-)label.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayItem {
    /// Activations at the replay layer.
    pub activation: Vec<f32>,
    /// Class label (foreground class or background index).
    pub label: usize,
    /// Training-run index at which the item was stored (for diagnostics
    /// and the uniformity tests).
    pub stored_at_run: usize,
}

/// The replay memory `M` of Algorithm 1.
///
/// # Examples
///
/// ```
/// use shoggoth::replay::{ReplayItem, ReplayMemory};
/// use shoggoth_util::Rng;
///
/// let mut memory = ReplayMemory::new(100);
/// let mut rng = Rng::seed_from(0);
/// let batch: Vec<ReplayItem> = (0..40)
///     .map(|i| ReplayItem { activation: vec![i as f32], label: 0, stored_at_run: 0 })
///     .collect();
/// memory.integrate(batch, &mut rng);
/// assert_eq!(memory.len(), 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMemory {
    capacity: usize,
    items: Vec<ReplayItem>,
    /// The adaptive-training counter `i` of Algorithm 1 (1-based after the
    /// first integration).
    runs: usize,
}

impl ReplayMemory {
    /// Creates an empty memory with the given capacity (`M_size`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay memory capacity must be positive");
        Self {
            capacity,
            items: Vec::new(),
            runs: 0,
        }
    }

    /// Capacity `M_size`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the memory is at capacity (`IsFull(M)`).
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Number of completed integrations (the counter `i`).
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The stored items.
    pub fn items(&self) -> &[ReplayItem] {
        &self.items
    }

    /// Integrates a fresh training batch `B` after a training run —
    /// Algorithm 1 lines 6–12.
    ///
    /// When full: `h = M_size / i` random batch items replace `h` random
    /// memory items. When not full: all available images are memorized
    /// (a random subset if the batch overflows the remaining space).
    ///
    /// The batch is taken by value so selected items (and their activation
    /// buffers) are *moved* into the memory — integration never copies an
    /// activation volume.
    pub fn integrate(&mut self, mut batch: Vec<ReplayItem>, rng: &mut Rng) {
        self.runs += 1;
        if batch.is_empty() {
            return;
        }
        if self.is_full() {
            let h = (self.capacity / self.runs).min(batch.len());
            if h == 0 {
                return;
            }
            let add_idx = rng.sample_indices(batch.len(), h);
            let replace_idx = rng.sample_indices(self.items.len(), h);
            for (&src, &dst) in add_idx.iter().zip(&replace_idx) {
                // `sample_indices` returns distinct indices, so each source
                // slot is moved out of at most once.
                let mut item = std::mem::replace(
                    &mut batch[src],
                    ReplayItem {
                        activation: Vec::new(),
                        label: 0,
                        stored_at_run: 0,
                    },
                );
                item.stored_at_run = self.runs;
                self.items[dst] = item;
            }
        } else {
            let space = self.capacity - self.items.len();
            let take = batch.len().min(space);
            if take == batch.len() {
                for mut item in batch {
                    item.stored_at_run = self.runs;
                    self.items.push(item);
                }
            } else {
                for &src in &rng.sample_indices(batch.len(), take) {
                    let mut item = std::mem::replace(
                        &mut batch[src],
                        ReplayItem {
                            activation: Vec::new(),
                            label: 0,
                            stored_at_run: 0,
                        },
                    );
                    item.stored_at_run = self.runs;
                    self.items.push(item);
                }
            }
        }
    }

    /// Samples `k` items uniformly (without replacement) for a mini-batch.
    /// Yields fewer than `k` when the memory holds fewer. The drawn
    /// indices go into `scratch` (its contents are replaced), so a caller
    /// that keeps it across mini-batches samples without allocating.
    pub fn sample<'a>(
        &'a self,
        k: usize,
        rng: &mut Rng,
        scratch: &'a mut Vec<usize>,
    ) -> impl ExactSizeIterator<Item = &'a ReplayItem> + 'a {
        rng.sample_indices_into(self.items.len(), k, scratch);
        scratch.iter().map(|&i| &self.items[i])
    }

    /// Clears the memory and the run counter.
    pub fn reset(&mut self) {
        self.items.clear();
        self.runs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, run_tag: usize) -> Vec<ReplayItem> {
        (0..n)
            .map(|i| ReplayItem {
                activation: vec![i as f32],
                label: run_tag,
                stored_at_run: 0,
            })
            .collect()
    }

    #[test]
    fn fills_before_replacing() {
        let mut m = ReplayMemory::new(50);
        let mut rng = Rng::seed_from(1);
        m.integrate(batch(30, 0), &mut rng);
        assert_eq!(m.len(), 30);
        assert!(!m.is_full());
        m.integrate(batch(30, 1), &mut rng);
        // Only 20 slots remained.
        assert_eq!(m.len(), 50);
        assert!(m.is_full());
    }

    #[test]
    fn replacement_keeps_size_constant() {
        let mut m = ReplayMemory::new(40);
        let mut rng = Rng::seed_from(2);
        for run in 0..10 {
            m.integrate(batch(40, run), &mut rng);
            assert!(m.len() <= 40);
        }
        assert_eq!(m.len(), 40);
    }

    #[test]
    fn h_shrinks_with_run_count() {
        // After many runs, h = M_size/i becomes small, so late batches
        // displace only a few items — old batches stay represented.
        let mut m = ReplayMemory::new(100);
        let mut rng = Rng::seed_from(3);
        for run in 0..50 {
            m.integrate(batch(100, run), &mut rng);
        }
        // Expected survivors from the first five batches ≈ 13 of 100 under
        // Algorithm 1's h = M_size/i decay; a plain FIFO would leave zero.
        let from_first_runs = m.items().iter().filter(|item| item.label < 5).count();
        assert!(
            from_first_runs >= 5,
            "early batches evicted too aggressively: {from_first_runs} left"
        );
    }

    #[test]
    fn steady_state_mixes_many_batches() {
        let mut m = ReplayMemory::new(100);
        let mut rng = Rng::seed_from(4);
        for run in 0..30 {
            m.integrate(batch(100, run), &mut rng);
        }
        let distinct: std::collections::BTreeSet<usize> =
            m.items().iter().map(|i| i.label).collect();
        assert!(
            distinct.len() >= 8,
            "memory should mix many batches, got {distinct:?}"
        );
    }

    #[test]
    fn empty_batch_only_ticks_counter() {
        let mut m = ReplayMemory::new(10);
        let mut rng = Rng::seed_from(5);
        m.integrate(Vec::new(), &mut rng);
        assert_eq!(m.runs(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn overflowing_first_batch_is_subsampled() {
        let mut m = ReplayMemory::new(10);
        let mut rng = Rng::seed_from(6);
        m.integrate(batch(25, 0), &mut rng);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn sample_returns_distinct_items() {
        let mut m = ReplayMemory::new(20);
        let mut rng = Rng::seed_from(7);
        m.integrate(batch(20, 0), &mut rng);
        let mut scratch = Vec::new();
        let s: Vec<&ReplayItem> = m.sample(8, &mut rng, &mut scratch).collect();
        assert_eq!(s.len(), 8);
        let mut values: Vec<f32> = s.iter().map(|item| item.activation[0]).collect();
        values.sort_by(f32::total_cmp);
        values.dedup();
        assert_eq!(values.len(), 8, "distinct items");
        assert_eq!(
            m.sample(100, &mut rng, &mut scratch).len(),
            20,
            "cannot sample more than stored"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = ReplayMemory::new(10);
        let mut rng = Rng::seed_from(8);
        m.integrate(batch(10, 0), &mut rng);
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.runs(), 0);
    }

    #[test]
    #[should_panic(expected = "replay memory capacity must be positive")]
    fn zero_capacity_rejected() {
        ReplayMemory::new(0);
    }
}
