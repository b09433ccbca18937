//! The strategies compared in the paper's evaluation (§IV-A).

/// An inference/adaptation strategy.
///
/// These are exactly the five strategies of the paper's Table I, plus the
/// fixed-rate family used by Table III's sensitivity study.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// The paper's system: edge inference, cloud labeling, edge adaptive
    /// training with latent replay, adaptive frame sampling.
    Shoggoth,
    /// The edge model without any video-specific customization.
    EdgeOnly,
    /// Every frame uploaded; the golden model infers in the cloud and
    /// ships results (with masks) back.
    CloudOnly,
    /// Shoggoth without adaptive sampling: a fixed 2 fps sampling rate
    /// (the paper's maximum), prompt and regular model adaptation.
    Prompt,
    /// Adaptive Model Streaming (Khani et al.): the entire distillation
    /// runs in the cloud on a shadow student, and every update ships the
    /// full student weights down to the edge. Adaptive sampling is kept,
    /// as in the paper's comparison.
    Ams,
    /// Shoggoth with a fixed sampling rate (Table III's sensitivity
    /// sweep).
    FixedRate(f64),
}

impl Strategy {
    /// Human-readable name, matching the paper's table headers.
    pub fn name(&self) -> String {
        match self {
            Strategy::Shoggoth => "Shoggoth".into(),
            Strategy::EdgeOnly => "Edge-Only".into(),
            Strategy::CloudOnly => "Cloud-Only".into(),
            Strategy::Prompt => "Prompt".into(),
            Strategy::Ams => "AMS".into(),
            Strategy::FixedRate(r) => format!("Fixed({r})"),
        }
    }

    /// Whether the edge device samples and uploads frames for labeling.
    pub fn uses_sampling(&self) -> bool {
        matches!(self.plan().0, Uplink::Sampled(_))
    }

    /// Where this strategy's frames go and where its student adapts: the
    /// one place a strategy is resolved into engine behaviour.
    pub(crate) fn plan(self) -> (Uplink, AdapterSite) {
        match self {
            Strategy::Shoggoth => (Uplink::Sampled(Rate::Controller), AdapterSite::Edge),
            Strategy::EdgeOnly => (Uplink::Off, AdapterSite::None),
            Strategy::CloudOnly => (Uplink::EveryFrame, AdapterSite::None),
            // The paper's maximum sampling rate.
            Strategy::Prompt => (Uplink::Sampled(Rate::Fixed(2.0)), AdapterSite::Edge),
            Strategy::Ams => (Uplink::Sampled(Rate::Controller), AdapterSite::CloudShadow),
            Strategy::FixedRate(r) => (Uplink::Sampled(Rate::Fixed(r)), AdapterSite::Edge),
        }
    }

    /// The five strategies of Table I, in column order.
    pub fn table_one() -> [Strategy; 5] {
        [
            Strategy::EdgeOnly,
            Strategy::CloudOnly,
            Strategy::Prompt,
            Strategy::Ams,
            Strategy::Shoggoth,
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Where a strategy sends its frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Uplink {
    /// No frame leaves the edge.
    Off,
    /// Every frame is uploaded; the cloud teacher's detections are the
    /// system's output.
    EveryFrame,
    /// Sampled frames are uploaded in chunks for labeling, at a rate
    /// set by the [`Rate`].
    Sampled(Rate),
}

/// Who sets a sampled uplink's rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Rate {
    /// The cloud controller (Eqs. 2–3), once per uploaded chunk.
    Controller,
    /// A fixed rate in fps.
    Fixed(f64),
}

/// Where a strategy adapts its student.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdapterSite {
    /// The student never adapts.
    None,
    /// On the edge device, contending with inference for the GPU.
    Edge,
    /// On a cloud-side shadow student whose weights stream to the edge.
    CloudShadow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_table_covers_every_strategy() {
        let controlled = Uplink::Sampled(Rate::Controller);
        let fixed = |r| Uplink::Sampled(Rate::Fixed(r));
        let table = [
            (Strategy::Shoggoth, controlled, AdapterSite::Edge),
            (Strategy::EdgeOnly, Uplink::Off, AdapterSite::None),
            (Strategy::CloudOnly, Uplink::EveryFrame, AdapterSite::None),
            (Strategy::Prompt, fixed(2.0), AdapterSite::Edge),
            (Strategy::Ams, controlled, AdapterSite::CloudShadow),
            (Strategy::FixedRate(0.4), fixed(0.4), AdapterSite::Edge),
        ];
        for (strategy, uplink, site) in table {
            assert_eq!(strategy.plan(), (uplink, site), "{strategy}");
            let sampled = matches!(uplink, Uplink::Sampled(_));
            assert_eq!(strategy.uses_sampling(), sampled, "{strategy}");
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Strategy::Ams.name(), "AMS");
        assert_eq!(Strategy::EdgeOnly.name(), "Edge-Only");
        assert_eq!(Strategy::FixedRate(0.8).to_string(), "Fixed(0.8)");
    }

    #[test]
    fn table_one_has_five_columns() {
        assert_eq!(Strategy::table_one().len(), 5);
    }
}
