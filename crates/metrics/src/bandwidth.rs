//! Uplink/downlink bandwidth accounting.

/// Average rate in kilobits per second of `bytes` sent over `secs`
/// seconds, the unit of the paper's Tables I and III; `0.0` for an empty
/// window.
///
/// # Examples
///
/// ```
/// use shoggoth_metrics::kbps;
///
/// // 1 Mbit over 10 seconds.
/// assert!((kbps(125_000, 10.0) - 100.0).abs() < 1e-9);
/// ```
pub fn kbps(bytes: u64, secs: f64) -> f64 {
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
    fn kbps_hand_checked() {
        assert_eq!(kbps(250_000, 4.0), 500.0); // 2 Mbit over 4 s
        assert_eq!(kbps(125_000, 4.0), 250.0); // 1 Mbit over 4 s
    }

    #[test]
    fn empty_window_reports_zero() {
        assert_eq!(kbps(1000, 0.0), 0.0);
        assert_eq!(kbps(1000, -1.0), 0.0);
    }
}
