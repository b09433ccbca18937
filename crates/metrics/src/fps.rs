//! Achieved inference frame-rate tracking (Figure 4).

use std::collections::BTreeMap;

/// Records the achieved inference FPS over time.
///
/// The simulation records one sample per processed frame: the wall-clock
/// time and the instantaneous rate the device could sustain at that moment
/// (30 fps when idle, less while adaptive training contends for the GPU).
/// The tracker reports the overall average (Fig. 4 left) and a one-second
/// time series (Fig. 4 right). It folds each sample into running totals
/// as it arrives and keeps no sample.
///
/// # Examples
///
/// ```
/// use shoggoth_metrics::FpsTracker;
///
/// let mut fps = FpsTracker::new();
/// fps.record(0.0, 30.0);
/// fps.record(1.0, 15.0);
/// assert!((fps.average() - 22.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FpsTracker {
    sum: f64,
    count: usize,
    /// Lowest sample so far; `0.0` before the first.
    min: f64,
    /// Per one-second bucket (keyed by `floor(t)`): fps sum and samples.
    buckets: BTreeMap<i64, (f64, usize)>,
}

impl FpsTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the achieved rate at time `t` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is negative or either value is non-finite.
    pub fn record(&mut self, t: f64, fps: f64) {
        assert!(
            t.is_finite() && fps.is_finite() && fps >= 0.0,
            "invalid sample"
        );
        self.min = if self.count == 0 {
            fps
        } else {
            self.min.min(fps)
        };
        self.sum += fps;
        self.count += 1;
        let bucket = self.buckets.entry(t.floor() as i64).or_insert((0.0, 0));
        bucket.0 += fps;
        bucket.1 += 1;
    }

    /// Overall average achieved FPS; `0.0` with no samples.
    pub fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum recorded FPS; `0.0` with no samples.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Time series in one-second buckets: one `(bucket_start, mean_fps)`
    /// point per non-empty bucket, in time order.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .map(|(&k, &(sum, n))| (k as f64, sum / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_empty_is_zero() {
        assert_eq!(FpsTracker::new().average(), 0.0);
        assert_eq!(FpsTracker::new().min(), 0.0);
        assert!(FpsTracker::new().series().is_empty());
    }

    #[test]
    fn series_buckets_and_averages() {
        let mut fps = FpsTracker::new();
        fps.record(0.1, 30.0);
        fps.record(0.9, 20.0);
        fps.record(2.5, 10.0);
        assert_eq!(fps.series(), vec![(0.0, 25.0), (2.0, 10.0)]);
    }

    #[test]
    fn min_tracks_training_dips() {
        let mut fps = FpsTracker::new();
        fps.record(0.0, 30.0);
        fps.record(1.0, 15.0);
        fps.record(2.0, 30.0);
        assert_eq!(fps.min(), 15.0);
    }

    #[test]
    fn streaming_totals_equal_the_sample_list() {
        // Out-of-order and negative times, revisited buckets, and rates
        // whose sums round: the running totals must equal folding the
        // full sample list in recording order, bit for bit.
        let samples = [
            (3.7, 29.9),
            (0.2, 0.1),
            (-1.5, 17.3),
            (3.1, 0.7),
            (0.9, 0.2),
            (12.0, 30.0),
            (0.0, 0.3),
            (-0.5, 14.6),
        ];
        let mut fps = FpsTracker::new();
        for &(t, f) in &samples {
            fps.record(t, f);
        }
        let average = samples.iter().map(|(_, f)| f).sum::<f64>() / samples.len() as f64;
        let min = samples
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::INFINITY, f64::min);
        let mut buckets: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
        for &(t, f) in &samples {
            let entry = buckets.entry((t / 1.0).floor() as i64).or_insert((0.0, 0));
            entry.0 += f;
            entry.1 += 1;
        }
        let series: Vec<(f64, f64)> = buckets
            .into_iter()
            .map(|(k, (sum, n))| (k as f64 * 1.0, sum / n as f64))
            .collect();
        assert_eq!(fps.average().to_bits(), average.to_bits());
        assert_eq!(fps.min().to_bits(), min.to_bits());
        assert_eq!(fps.series(), series);
        assert_eq!(fps.series().len(), 5);
    }

    #[test]
    #[should_panic(expected = "invalid sample")]
    fn negative_fps_rejected() {
        FpsTracker::new().record(0.0, -1.0);
    }
}
