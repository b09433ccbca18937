//! Uplink/downlink bandwidth accounting.

/// Accumulates transferred bytes and reports average rates in Kbps, the
/// unit of the paper's Tables I and III.
///
/// # Examples
///
/// ```
/// use shoggoth_metrics::BandwidthMeter;
///
/// let mut meter = BandwidthMeter::new();
/// meter.record_uplink(125_000); // 1 Mbit
/// meter.finish(10.0);           // over 10 seconds
/// assert!((meter.uplink_kbps() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthMeter {
    uplink_bytes: u64,
    downlink_bytes: u64,
    duration_secs: f64,
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records bytes sent edge → cloud.
    pub fn record_uplink(&mut self, bytes: u64) {
        self.uplink_bytes += bytes;
    }

    /// Records bytes sent cloud → edge.
    pub fn record_downlink(&mut self, bytes: u64) {
        self.downlink_bytes += bytes;
    }

    /// Sets the observation window length used by the rate getters.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs` is negative or non-finite.
    pub fn finish(&mut self, duration_secs: f64) {
        assert!(
            duration_secs.is_finite() && duration_secs >= 0.0,
            "duration must be non-negative and finite"
        );
        self.duration_secs = duration_secs;
    }

    /// Total uplink bytes.
    pub fn uplink_bytes(&self) -> u64 {
        self.uplink_bytes
    }

    /// Total downlink bytes.
    pub fn downlink_bytes(&self) -> u64 {
        self.downlink_bytes
    }

    /// Average uplink rate in kilobits per second; `0.0` before
    /// [`finish`](Self::finish) or for a zero-length window.
    pub fn uplink_kbps(&self) -> f64 {
        rate_kbps(self.uplink_bytes, self.duration_secs)
    }

    /// Average downlink rate in kilobits per second.
    pub fn downlink_kbps(&self) -> f64 {
        rate_kbps(self.downlink_bytes, self.duration_secs)
    }
}

fn rate_kbps(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 * 8.0 / 1000.0 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_zero_before_finish() {
        let mut m = BandwidthMeter::new();
        m.record_uplink(1000);
        assert_eq!(m.uplink_kbps(), 0.0);
    }

    #[test]
    fn kbps_hand_checked() {
        let mut m = BandwidthMeter::new();
        m.record_uplink(250_000); // 2 Mbit
        m.record_downlink(125_000); // 1 Mbit
        m.finish(4.0);
        assert!((m.uplink_kbps() - 500.0).abs() < 1e-9);
        assert!((m.downlink_kbps() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn accumulation_adds_up() {
        let mut m = BandwidthMeter::new();
        for _ in 0..10 {
            m.record_uplink(100);
        }
        assert_eq!(m.uplink_bytes(), 1000);
        assert_eq!(m.downlink_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "duration must be non-negative and finite")]
    fn negative_duration_rejected() {
        BandwidthMeter::new().finish(-1.0);
    }
}
