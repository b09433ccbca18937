//! H.264-like group-of-pictures compression model.

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

/// An H.264-like codec model.
///
/// A group of buffered frames is encoded as one I-frame plus P-frames. The
/// P-frame compression ratio interpolates between the I-frame ratio (no
/// inter-frame redundancy left) and the best-case P ratio, driven by an
/// exponential similarity model: frames further apart in time, or with more
/// scene motion, are less similar and compress worse. This reproduces both
/// paper behaviours: 30 fps Cloud-Only streams compress extremely well,
/// while Shoggoth's sparsely-sampled buffers pay more bytes per frame —
/// yet far fewer bytes overall because there are few frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Compression ratio of an intra-coded frame (JPEG-grade).
    pub i_frame_ratio: f64,
    /// Best-case compression ratio of a predicted frame (perfect temporal
    /// redundancy).
    pub p_frame_ratio: f64,
    /// Group-of-pictures length: one I-frame every `gop` frames.
    pub gop: usize,
    /// Similarity decay rate per second of inter-frame gap.
    pub temporal_decay: f64,
    /// Similarity decay rate per unit of scene motion.
    pub motion_decay: f64,
}

impl Codec {
    /// A codec tuned to H.264-like behaviour at surveillance quality:
    /// ~20× intra compression, up to ~300× with full temporal redundancy.
    pub fn h264_like() -> Self {
        Self {
            i_frame_ratio: 20.0,
            p_frame_ratio: 300.0,
            gop: 30,
            temporal_decay: 0.9,
            motion_decay: 80.0,
        }
    }

    /// Inter-frame similarity in `[0, 1]` for a gap of `gap_secs` seconds
    /// and the given motion level.
    fn similarity(&self, gap_secs: f64, motion: f32) -> f64 {
        (-(self.temporal_decay * gap_secs + self.motion_decay * motion as f64)).exp()
    }

    /// Compression ratio of a predicted frame `gap_secs` after its
    /// predecessor at the given motion level.
    fn p_ratio(&self, gap_secs: f64, motion: f32) -> f64 {
        let sim = self.similarity(gap_secs, motion);
        self.i_frame_ratio + (self.p_frame_ratio - self.i_frame_ratio) * sim
    }

    /// Encoded size in bytes (at least 1) of frame `index` of a live
    /// stream whose frames are `gap_secs` apart, sent on its own: an
    /// I-frame at every GOP boundary (every frame when `gop == 0`), a
    /// P-frame otherwise.
    pub fn encode_frame(&self, index: u64, raw_bytes: u64, motion: f32, gap_secs: f64) -> u64 {
        let ratio = if self.gop == 0 || index.is_multiple_of(self.gop as u64) {
            self.i_frame_ratio
        } else {
            self.p_ratio(gap_secs, motion)
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
        for (i, frame) in frames.iter().enumerate() {
            let is_i_frame = self.gop == 0 || i % self.gop == 0;
            let ratio = if is_i_frame {
                self.i_frame_ratio
            } else {
                self.p_ratio(gap_secs, frame.motion)
            };
            total += frame.raw_bytes as f64 / ratio;
        }
        total.ceil() as u64
    }
}

impl Default for Codec {
    fn default() -> Self {
        Self::h264_like()
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
        let c = Codec::h264_like();
        assert!(c.similarity(0.0, 0.0) > 0.99);
        assert!(c.similarity(1.0, 0.0) < c.similarity(0.1, 0.0));
        assert!(c.similarity(0.1, 0.01) < c.similarity(0.1, 0.0));
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
        let intra = (raw as f64 / c.i_frame_ratio).ceil() as u64;
        let ratio =
            c.i_frame_ratio + (c.p_frame_ratio - c.i_frame_ratio) * c.similarity(gap, motion);
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
        let all_intra = Codec { gop: 0, ..c };
        for index in [0, 1, 29, 31] {
            assert_eq!(
                all_intra.encode_frame(index, raw, motion, gap),
                intra,
                "frame {index}"
            );
        }
        // An empty frame still costs one byte.
        assert_eq!(c.encode_frame(0, 0, motion, gap), 1);
        assert_eq!(c.encode_frame(1, 0, motion, gap), 1);
    }

    #[test]
    fn gop_inserts_periodic_i_frames() {
        let c = Codec {
            gop: 10,
            ..Codec::h264_like()
        };
        let with_gop = c.encode_group(&frames(30, 0.0), 1.0 / 30.0);
        let no_gop = Codec {
            gop: 30,
            ..Codec::h264_like()
        }
        .encode_group(&frames(30, 0.0), 1.0 / 30.0);
        assert!(with_gop > no_gop, "more I-frames must cost more bytes");
    }
}
