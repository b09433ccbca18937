//! H.264-like group-of-pictures compression model.
//!
//! The model has no settings: its ratios (20× intra, up to 300×
//! predicted), its 30-frame GOP and its similarity decays are constants,
//! since every experiment encodes with the same codec.

/// Per-frame statistics the codec model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameGroupStats {
    /// Uncompressed frame size in bytes.
    pub raw_bytes: u64,
    /// Scene motion at this frame (normalized image units per frame, from
    /// `shoggoth_video::Frame::motion_magnitude`).
    pub motion: f32,
}

impl FrameGroupStats {
    /// Creates frame statistics.
    pub fn new(raw_bytes: u64, motion: f32) -> Self {
        Self { raw_bytes, motion }
    }
}

/// Compression ratio of an intra-coded frame (JPEG-grade).
const I_FRAME_RATIO: f64 = 20.0;
/// Best-case compression ratio of a predicted frame (perfect temporal
/// redundancy).
const P_FRAME_RATIO: f64 = 300.0;
/// Group-of-pictures length: one I-frame every `GOP` frames.
const GOP: u64 = 30;
/// Similarity decay rate per second of inter-frame gap.
const TEMPORAL_DECAY: f64 = 0.9;
/// Similarity decay rate per unit of scene motion.
const MOTION_DECAY: f64 = 80.0;

/// An H.264-like codec model at surveillance quality: ~20× intra
/// compression, up to ~300× with full temporal redundancy, one I-frame
/// every 30 frames.
///
/// A group of buffered frames is encoded as one I-frame plus P-frames. The
/// P-frame compression ratio interpolates between the I-frame ratio (no
/// inter-frame redundancy left) and the best-case P ratio, driven by an
/// exponential similarity model: frames further apart in time, or with more
/// scene motion, are less similar and compress worse. This reproduces both
/// paper behaviours: 30 fps Cloud-Only streams compress extremely well,
/// while Shoggoth's sparsely-sampled buffers pay more bytes per frame —
/// yet far fewer bytes overall because there are few frames.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Codec;

/// Inter-frame similarity in `[0, 1]` for a gap of `gap_secs` seconds and
/// the given motion level.
fn similarity(gap_secs: f64, motion: f32) -> f64 {
    shoggoth_util::fmath::exp(-(TEMPORAL_DECAY * gap_secs + MOTION_DECAY * motion as f64))
}

/// Compression ratio of a predicted frame `gap_secs` after its predecessor
/// at the given motion level.
fn p_ratio(gap_secs: f64, motion: f32) -> f64 {
    let sim = similarity(gap_secs, motion);
    I_FRAME_RATIO + (P_FRAME_RATIO - I_FRAME_RATIO) * sim
}

impl Codec {
    /// The H.264-like codec.
    pub fn h264_like() -> Self {
        Self
    }

    /// Encoded size in bytes (at least 1) of frame `index` of a live
    /// stream whose frames are `gap_secs` apart, sent on its own: an
    /// I-frame at every GOP boundary, a P-frame otherwise.
    pub fn encode_frame(&self, index: u64, raw_bytes: u64, motion: f32, gap_secs: f64) -> u64 {
        let ratio = if index.is_multiple_of(GOP) {
            I_FRAME_RATIO
        } else {
            p_ratio(gap_secs, motion)
        };
        ((raw_bytes as f64 / ratio).ceil() as u64).max(1)
    }

    /// Encoded size in bytes of a buffered frame group whose frames are
    /// `gap_secs` apart (e.g. `1 / sampling_rate` for a sample buffer, or
    /// `1 / 30` for a live stream).
    ///
    /// Returns `0` for an empty group.
    pub fn encode_group(&self, frames: &[FrameGroupStats], gap_secs: f64) -> u64 {
        let mut total = 0.0f64;
        for (i, frame) in (0u64..).zip(frames) {
            let ratio = if i.is_multiple_of(GOP) {
                I_FRAME_RATIO
            } else {
                p_ratio(gap_secs, frame.motion)
            };
            total += frame.raw_bytes as f64 / ratio;
        }
        total.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize, motion: f32) -> Vec<FrameGroupStats> {
        vec![FrameGroupStats::new(786_432, motion); n]
    }

    #[test]
    fn similarity_decays_with_gap_and_motion() {
        assert!(similarity(0.0, 0.0) > 0.99);
        assert!(similarity(1.0, 0.0) < similarity(0.1, 0.0));
        assert!(similarity(0.1, 0.01) < similarity(0.1, 0.0));
    }

    #[test]
    fn dense_groups_compress_better_per_frame() {
        let c = Codec::h264_like();
        let dense = c.encode_group(&frames(30, 0.002), 1.0 / 30.0);
        let sparse = c.encode_group(&frames(30, 0.002), 2.0);
        assert!(dense < sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn high_motion_costs_bytes() {
        let c = Codec::h264_like();
        let calm = c.encode_group(&frames(30, 0.001), 0.5);
        let busy = c.encode_group(&frames(30, 0.02), 0.5);
        assert!(busy > calm);
    }

    #[test]
    fn compression_ratio_is_plausible() {
        let c = Codec::h264_like();
        // A 30 fps, low-motion group should land between the pure-I and
        // pure-best-P bounds.
        let group = frames(30, 0.002);
        let raw: u64 = group.iter().map(|f| f.raw_bytes).sum();
        let encoded = c.encode_group(&group, 1.0 / 30.0);
        let ratio = raw as f64 / encoded as f64;
        assert!(
            (20.0..300.0).contains(&ratio),
            "overall ratio {ratio} outside bounds"
        );
    }

    #[test]
    fn empty_group_is_zero_bytes() {
        assert_eq!(Codec::h264_like().encode_group(&[], 1.0), 0);
    }

    #[test]
    fn single_frame_is_intra_coded() {
        let c = Codec::h264_like();
        assert_eq!(
            c.encode_frame(0, 786_432, 0.0, 1.0),
            c.encode_group(&frames(1, 0.0), 1.0)
        );
    }

    #[test]
    fn live_frames_are_intra_coded_at_gop_boundaries() {
        let c = Codec::h264_like();
        let (raw, motion, gap) = (786_432, 0.002, 1.0 / 30.0);
        let intra = (raw as f64 / 20.0).ceil() as u64;
        let ratio = 20.0 + (300.0 - 20.0) * similarity(gap, motion);
        let predicted = (raw as f64 / ratio).ceil() as u64;
        assert!(predicted < intra);
        for (index, expected) in [
            (0, intra),
            (1, predicted),
            (29, predicted),
            (30, intra),
            (31, predicted),
            (60, intra),
        ] {
            assert_eq!(
                c.encode_frame(index, raw, motion, gap),
                expected,
                "frame {index}"
            );
        }
        // An empty frame still costs one byte.
        assert_eq!(c.encode_frame(0, 0, motion, gap), 1);
        assert_eq!(c.encode_frame(1, 0, motion, gap), 1);
    }

    #[test]
    fn buffered_groups_are_intra_coded_at_gop_boundaries() {
        let c = Codec::h264_like();
        let (motion, gap) = (0.002, 1.0 / 30.0);
        let intra = 786_432.0 / 20.0;
        let predicted = 786_432.0 / p_ratio(gap, motion);
        // Each group total rounds up once, so a frame's cost is within a
        // byte of its exact share.
        let cost = |n| {
            c.encode_group(&frames(n + 1, motion), gap) as f64
                - c.encode_group(&frames(n, motion), gap) as f64
        };
        for (n, expected) in [
            (1, predicted),
            (29, predicted),
            (30, intra),
            (31, predicted),
            (60, intra),
        ] {
            assert!((cost(n) - expected).abs() <= 1.0, "frame {n}: {}", cost(n));
        }
    }
}
