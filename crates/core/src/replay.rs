//! Replay memory management — the paper's Algorithm 1, verbatim.
//!
//! The memory stores **activation volumes** at the replay layer (not raw
//! inputs), plus their labels. After each adaptive training run `i`, a
//! random `h = M_size / i` images from the fresh batch replace an equally
//! random subset of the memory; before the memory fills, everything is
//! memorized. This gives every historical batch an equal steady-state
//! probability of residing in memory — the property that prevents
//! forgetting.

use shoggoth_tensor::Matrix;
use shoggoth_util::Rng;

/// The replay memory `M` of Algorithm 1: one row of an activation matrix
/// per memorized item (the activation volume captured at the replay
/// layer), with its (pseudo-)label and the run that stored it beside it.
///
/// # Examples
///
/// ```
/// use shoggoth::replay::ReplayMemory;
/// use shoggoth_tensor::Matrix;
/// use shoggoth_util::Rng;
///
/// let mut memory = ReplayMemory::new(100);
/// let mut rng = Rng::seed_from(0);
/// let batch = Matrix::from_fn(40, 1, |r, _| r as f32);
/// memory.integrate(&batch, &[0; 40], &mut rng);
/// assert_eq!(memory.len(), 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMemory {
    capacity: usize,
    /// One row per item. Reserved for `capacity` rows by the first
    /// integration, so it never regrows.
    activations: Matrix,
    /// Class label (foreground class or background index) of each row.
    labels: Vec<usize>,
    /// Training-run index at which each row was stored (for diagnostics
    /// and the uniformity tests).
    stored_at_run: Vec<usize>,
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
            activations: Matrix::zeros(0, 0),
            labels: Vec::new(),
            stored_at_run: Vec::new(),
            runs: 0,
        }
    }

    /// Capacity `M_size`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Whether the memory is at capacity (`IsFull(M)`).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of completed integrations (the counter `i`).
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The stored activations, one row per item.
    pub fn activations(&self) -> &Matrix {
        &self.activations
    }

    /// The label of each stored row.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The run that stored each row.
    pub fn stored_at_run(&self) -> &[usize] {
        &self.stored_at_run
    }

    /// Integrates a fresh training batch `B` after a training run —
    /// Algorithm 1 lines 6–12. `batch` holds one activation row per item
    /// and `labels` its labels.
    ///
    /// When full: `h = M_size / i` random batch rows overwrite `h` random
    /// memory rows. When not full: all available rows are memorized (a
    /// random subset if the batch overflows the remaining space, with no
    /// draw when it fits).
    pub fn integrate(&mut self, batch: &Matrix, labels: &[usize], rng: &mut Rng) {
        self.runs += 1;
        let n = labels.len();
        if n == 0 {
            return;
        }
        if self.is_full() {
            let h = (self.capacity / self.runs).min(n);
            if h == 0 {
                return;
            }
            let add_idx = rng.sample_indices(n, h);
            let replace_idx = rng.sample_indices(self.len(), h);
            for (&src, &dst) in add_idx.iter().zip(&replace_idx) {
                self.activations
                    .row_mut(dst)
                    .copy_from_slice(batch.row(src));
                self.labels[dst] = labels[src];
                self.stored_at_run[dst] = self.runs;
            }
            return;
        }
        if self.is_empty() {
            self.activations = Matrix::with_capacity(self.capacity, batch.cols());
        }
        let space = self.capacity - self.len();
        let picked: Vec<usize> = if n <= space {
            (0..n).collect()
        } else {
            rng.sample_indices(n, space)
        };
        self.activations.append_rows(batch, &picked);
        self.labels.extend(picked.iter().map(|&src| labels[src]));
        self.stored_at_run.resize(self.len(), self.runs);
    }

    /// Samples `k` items uniformly (without replacement) for a mini-batch
    /// and appends their rows to `batch` and their labels to `labels`;
    /// returns how many it appended, fewer than `k` when the memory holds
    /// fewer. The draw shuffles the whole memory even for `k == 0`. The
    /// drawn indices go into `scratch` (its contents are replaced), so a
    /// caller that keeps it across mini-batches samples without
    /// allocating.
    pub fn sample_into(
        &self,
        k: usize,
        rng: &mut Rng,
        scratch: &mut Vec<usize>,
        batch: &mut Matrix,
        labels: &mut Vec<usize>,
    ) -> usize {
        rng.sample_indices_into(self.len(), k, scratch);
        batch.append_rows(&self.activations, scratch);
        labels.extend(scratch.iter().map(|&i| self.labels[i]));
        scratch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` one-wide rows `0, 1, …` and the label `run_tag` for each.
    fn batch(n: usize, run_tag: usize) -> (Matrix, Vec<usize>) {
        (Matrix::from_fn(n, 1, |r, _| r as f32), vec![run_tag; n])
    }

    fn integrate(m: &mut ReplayMemory, (rows, labels): (Matrix, Vec<usize>), rng: &mut Rng) {
        m.integrate(&rows, &labels, rng);
    }

    #[test]
    fn fills_before_replacing() {
        let mut m = ReplayMemory::new(50);
        let mut rng = Rng::seed_from(1);
        integrate(&mut m, batch(30, 0), &mut rng);
        assert_eq!(m.len(), 30);
        assert!(!m.is_full());
        integrate(&mut m, batch(30, 1), &mut rng);
        // Only 20 slots remained.
        assert_eq!(m.len(), 50);
        assert!(m.is_full());
        assert_eq!(m.activations().rows(), 50);
        assert_eq!(m.stored_at_run()[..30], [1; 30]);
        assert_eq!(m.stored_at_run()[30..], [2; 20]);
    }

    #[test]
    fn replacement_keeps_size_constant() {
        let mut m = ReplayMemory::new(40);
        let mut rng = Rng::seed_from(2);
        for run in 0..10 {
            integrate(&mut m, batch(40, run), &mut rng);
            assert!(m.len() <= 40);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.activations().rows(), 40);
    }

    #[test]
    fn h_shrinks_with_run_count() {
        // After many runs, h = M_size/i becomes small, so late batches
        // displace only a few items — old batches stay represented.
        let mut m = ReplayMemory::new(100);
        let mut rng = Rng::seed_from(3);
        for run in 0..50 {
            integrate(&mut m, batch(100, run), &mut rng);
        }
        // Expected survivors from the first five batches ≈ 13 of 100 under
        // Algorithm 1's h = M_size/i decay; a plain FIFO would leave zero.
        let from_first_runs = m.labels().iter().filter(|&&label| label < 5).count();
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
            integrate(&mut m, batch(100, run), &mut rng);
        }
        let distinct: std::collections::BTreeSet<usize> = m.labels().iter().copied().collect();
        assert!(
            distinct.len() >= 8,
            "memory should mix many batches, got {distinct:?}"
        );
    }

    #[test]
    fn empty_batch_only_ticks_counter() {
        let mut m = ReplayMemory::new(10);
        let mut rng = Rng::seed_from(5);
        let untouched = rng.clone();
        m.integrate(&Matrix::zeros(0, 0), &[], &mut rng);
        assert_eq!(m.runs(), 1);
        assert!(m.is_empty());
        assert_eq!(rng, untouched, "no draw");
    }

    #[test]
    fn overflowing_first_batch_is_subsampled() {
        let mut m = ReplayMemory::new(10);
        let mut rng = Rng::seed_from(6);
        integrate(&mut m, batch(25, 0), &mut rng);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn the_row_buffer_is_reserved_once() {
        let mut m = ReplayMemory::new(100);
        let mut rng = Rng::seed_from(9);
        let rows = Matrix::from_fn(30, 4, |r, c| (r * 4 + c) as f32);
        m.integrate(&rows, &[0; 30], &mut rng);
        let buffer = |m: &ReplayMemory| {
            let acts = m.activations();
            (acts.as_slice().as_ptr(), acts.capacity())
        };
        let first = buffer(&m);
        assert_eq!(first.1, 100 * 4, "room for every row");
        for _ in 0..10 {
            m.integrate(&rows, &[1; 30], &mut rng);
            assert_eq!(buffer(&m), first);
        }
        assert!(m.is_full());
    }

    #[test]
    fn sample_into_appends_distinct_rows_and_their_labels() {
        let mut m = ReplayMemory::new(20);
        let mut rng = Rng::seed_from(7);
        let (rows, _) = batch(20, 0);
        let labels: Vec<usize> = (100..120).collect();
        m.integrate(&rows, &labels, &mut rng);
        let mut scratch = Vec::new();
        let mut out = Matrix::from_fn(2, 1, |_, _| -1.0);
        let mut out_labels = vec![7, 7];
        assert_eq!(
            m.sample_into(8, &mut rng, &mut scratch, &mut out, &mut out_labels),
            8
        );
        assert_eq!((out.rows(), out_labels.len()), (10, 10));
        assert_eq!(out.as_slice()[..2], [-1.0, -1.0], "rows are appended");
        let mut values: Vec<f32> = out.as_slice()[2..].to_vec();
        for (&value, &label) in values.iter().zip(&out_labels[2..]) {
            assert_eq!(label, 100 + value as usize, "a row keeps its label");
        }
        values.sort_by(f32::total_cmp);
        values.dedup();
        assert_eq!(values.len(), 8, "distinct items");
        assert_eq!(
            m.sample_into(100, &mut rng, &mut scratch, &mut out, &mut out_labels),
            20,
            "cannot sample more than stored"
        );
    }

    #[test]
    #[should_panic(expected = "replay memory capacity must be positive")]
    fn zero_capacity_rejected() {
        ReplayMemory::new(0);
    }
}
