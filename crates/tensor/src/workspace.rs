//! Reusable scratch-matrix pool for allocation-free training.
//!
//! A [`Workspace`] owns a free list of `Vec<f32>` buffers. Layers take
//! their output matrices from the workspace ([`Workspace::take`]) and the
//! owning [`crate::Mlp`] gives intermediate activations back
//! ([`Workspace::give`]) as soon as the next layer has consumed them, so
//! a steady-state forward/backward/step cycle recycles the same handful
//! of buffers forever.
//!
//! Ownership rules (see DESIGN.md §Performance architecture):
//!
//! * the network owns the workspace; callers never construct one;
//! * matrices returned by `Mlp` forward/backward entry points carry
//!   workspace buffers — callers that loop should hand them back via
//!   [`crate::Mlp::recycle`] to keep the steady state allocation-free;
//! * dropping such a matrix is always safe; it merely costs the pool one
//!   buffer, which the next `take` re-allocates.
//!
//! The workspace also owns the matrix products' [`Scratch`], which the
//! `Matrix` wrappers reserve and lend to the kernels, so their narrow tile
//! and zero-skip allocate nothing once it has grown.
//!
//! [`Workspace::allocations`] counts every fresh heap allocation (new
//! buffer or capacity growth), which is what the workspace-reuse tests
//! assert goes flat after warm-up.

use crate::kernels::Scratch;
use crate::Matrix;

/// A pool of reusable `f32` buffers handed out as [`Matrix`] values.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Returned buffers, available for reuse.
    free: Vec<Vec<f32>>,
    /// Scratch the matrix-product kernels borrow.
    scratch: Scratch,
    /// Fresh heap allocations performed (buffer creations plus capacity
    /// growth on reuse).
    allocations: usize,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a `rows × cols` zero-filled matrix in a reused buffer: the
    /// smallest free one that fits, else the largest, grown. Counts toward
    /// [`Workspace::allocations`] only when fresh heap memory is needed
    /// (no free buffer, or none large enough).
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.pop_fitting(rows * cols);
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Matrix::from_parts(rows, cols, buf)
    }

    /// Takes a `rows × cols` matrix holding a copy of the row-major `data`
    /// (one copy, no zero fill) in a reused buffer, as
    /// [`Workspace::take`] does. Callers guarantee
    /// `data.len() == rows * cols`.
    pub(crate) fn take_copy(&mut self, rows: usize, cols: usize, data: &[f32]) -> Matrix {
        debug_assert_eq!(data.len(), rows * cols, "copied data must fill the matrix");
        let mut buf = self.pop_fitting(data.len());
        buf.clear();
        buf.extend_from_slice(data);
        Matrix::from_parts(rows, cols, buf)
    }

    /// Returns a matrix's buffer to the pool for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.free.push(m.into_vec());
    }

    /// The kernels' [`Scratch`], reserved for a product of `steps` steps
    /// (see [`Scratch::reserve`]). Growth counts toward
    /// [`Workspace::allocations`].
    pub(crate) fn scratch(&mut self, steps: usize) -> &mut Scratch {
        if self.scratch.reserve(steps) {
            self.allocations += 1;
        }
        &mut self.scratch
    }

    /// Fresh heap allocations performed so far. Flat across iterations ⇔
    /// the steady state is allocation-free.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Number of buffers currently available for reuse.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Removes and returns a free buffer for `len` values: the smallest
    /// one that holds them, else the largest (which then grows), else a
    /// new one. Best fit keeps the large buffers for the large requests,
    /// so once a pass has run at its largest shapes, passes at the same or
    /// smaller shapes find room for every take. Growth and new buffers
    /// count toward [`Workspace::allocations`].
    fn pop_fitting(&mut self, len: usize) -> Vec<f32> {
        let capacities = || self.free.iter().map(Vec::capacity).enumerate();
        let fitting = capacities()
            .filter(|&(_, capacity)| capacity >= len)
            .min_by_key(|&(_, capacity)| capacity);
        let chosen = fitting.or_else(|| capacities().max_by_key(|&(_, capacity)| capacity));
        match chosen {
            Some((i, _)) => {
                let buf = self.free.swap_remove(i);
                if buf.capacity() < len {
                    self.allocations += 1;
                }
                buf
            }
            None => {
                self.allocations += 1;
                Vec::with_capacity(len)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let m = ws.take(4, 4);
        assert_eq!(ws.allocations(), 1);
        ws.give(m);
        let m = ws.take(4, 4);
        assert_eq!(ws.allocations(), 1, "same-size reuse must not allocate");
        ws.give(m);
        let m = ws.take(2, 3);
        assert_eq!(ws.allocations(), 1, "smaller reuse must not allocate");
        assert_eq!((m.rows(), m.cols()), (2, 3));
    }

    #[test]
    fn growth_counts_as_allocation() {
        let mut ws = Workspace::new();
        let m = ws.take(2, 2);
        ws.give(m);
        let _big = ws.take(8, 8);
        assert_eq!(ws.allocations(), 2, "capacity growth is an allocation");
    }

    #[test]
    fn kernel_scratch_growth_counts_as_allocation() {
        let mut ws = Workspace::new();
        ws.scratch(64);
        assert_eq!(ws.allocations(), 1);
        ws.scratch(32);
        ws.scratch(64);
        assert_eq!(ws.allocations(), 1, "a reserved scratch must not grow");
        ws.scratch(128);
        assert_eq!(ws.allocations(), 2);
    }

    #[test]
    fn taken_matrices_are_zeroed() {
        let mut ws = Workspace::new();
        let mut m = ws.take(2, 2);
        m.as_mut_slice().fill(7.0);
        ws.give(m);
        let m = ws.take(2, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0)); // lint:allow(float-eq) exact zero fill
    }

    #[test]
    fn take_copy_copies_and_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let m = ws.take(3, 3);
        ws.give(m);
        let m = ws.take_copy(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ws.allocations(), 1, "a large enough free buffer is reused");
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        ws.give(m);
        let _grown = ws.take_copy(1, 16, &[0.5; 16]);
        assert_eq!(ws.allocations(), 2, "capacity growth is an allocation");
    }

    #[test]
    fn smallest_fitting_buffer_is_preferred() {
        let mut ws = Workspace::new();
        let small = ws.take(1, 2);
        let large = ws.take(10, 10);
        let mid = ws.take(5, 6);
        ws.give(small);
        ws.give(large);
        ws.give(mid);
        // A 25-value request takes the 30-capacity buffer, leaving the
        // 100-capacity one for a larger request.
        let m = ws.take(5, 5);
        let big = ws.take(9, 9);
        assert_eq!(ws.allocations(), 3);
        assert!(m.into_vec().capacity() < 100);
        ws.give(big);
        // With nothing large enough, the largest free buffer grows
        // rather than the smallest.
        let _huge = ws.take(20, 20);
        assert_eq!(ws.allocations(), 4);
        assert_eq!(ws.free_buffers(), 1);
    }
}
