//! Sizes of everything that crosses the edge-cloud link.

/// Bytes to encode one label: class id (2) + confidence (4) + box (4 × 4)
/// + framing overhead (6).
const LABEL_BYTES: u64 = 28;

/// Bytes to encode one plain detection result (same layout as a label).
const DETECTION_BYTES: u64 = 28;

/// Fixed per-message protocol overhead (headers, framing).
const HEADER_BYTES: u64 = 64;

/// A typed unit of edge ↔ cloud traffic with a well-defined wire size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Message {
    /// A codec-encoded batch of sampled frames (edge → cloud).
    FrameBatch {
        /// Number of frames in the batch.
        frames: usize,
        /// Encoded payload size from [`crate::Codec::encode_group`].
        encoded_bytes: u64,
    },
    /// Online-labeling results for a batch (cloud → edge): per-sample
    /// class/confidence/box records.
    Labels {
        /// Number of labeled samples (proposals).
        samples: usize,
    },
    /// A full serialized student model (cloud → edge; the AMS downlink).
    ModelWeights {
        /// Serialized parameter bytes.
        bytes: u64,
    },
    /// Plain detection records for one frame (cloud → edge).
    Detections {
        /// Number of detections.
        count: usize,
    },
    /// Mask-bearing detection results for one frame, as produced by the
    /// golden Mask-R-CNN model (cloud → edge in Cloud-Only). Instance
    /// masks are image-sized, which is why the paper's Cloud-Only
    /// *downlink* slightly exceeds its uplink.
    MaskResults {
        /// Number of detections.
        count: usize,
        /// Encoded size of the frame the masks cover.
        frame_encoded_bytes: u64,
    },
    /// Resource-usage telemetry (edge → cloud, for the λ term).
    Telemetry,
}

impl Message {
    /// Wire size of the message in bytes, including protocol overhead.
    pub fn bytes(&self) -> u64 {
        HEADER_BYTES
            + match *self {
                Message::FrameBatch { encoded_bytes, .. } => encoded_bytes,
                Message::Labels { samples } => samples as u64 * LABEL_BYTES,
                Message::ModelWeights { bytes } => bytes,
                Message::Detections { count } => count as u64 * DETECTION_BYTES,
                Message::MaskResults {
                    count,
                    frame_encoded_bytes,
                } => {
                    // Binary instance masks compress well but still scale
                    // with both the image area and the instance count.
                    count as u64 * DETECTION_BYTES
                        + (frame_encoded_bytes as f64 * (1.0 + 0.02 * count as f64)) as u64
                }
                Message::Telemetry => 32,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_scale_with_sample_count() {
        let small = Message::Labels { samples: 10 }.bytes();
        let large = Message::Labels { samples: 100 }.bytes();
        assert_eq!(large - small, 90 * 28);
    }

    #[test]
    fn labels_are_tiny_compared_to_frames() {
        let labels = Message::Labels { samples: 300 }.bytes();
        let frames = Message::FrameBatch {
            frames: 300,
            encoded_bytes: 300 * 40_000,
        }
        .bytes();
        assert!(labels * 100 < frames);
    }

    #[test]
    fn mask_results_exceed_the_frame_they_cover() {
        let frame_bytes = 40_000;
        let masks = Message::MaskResults {
            count: 8,
            frame_encoded_bytes: frame_bytes,
        }
        .bytes();
        assert!(masks > frame_bytes, "masks {masks} <= frame {frame_bytes}");
    }

    #[test]
    fn every_message_has_header_overhead() {
        assert_eq!(Message::Telemetry.bytes(), 64 + 32);
        assert_eq!(Message::Detections { count: 0 }.bytes(), 64);
    }
}
