//! **Figure 1(c)** (motivation): the class-distribution shift between the
//! day and night domains of the UA-DETRAC-like preset, plus the latent
//! appearance shift that makes night objects hard for the lightweight
//! model.

use crate::{experiment_seed, rule, write_json};
use shoggoth_util::json::{self, Obj};
use shoggoth_video::domain::class_histogram;
use shoggoth_video::presets;

/// Serializable result bundle.
#[derive(Debug)]
pub struct Fig1cResult {
    /// Experiment seed.
    pub seed: u64,
    /// (domain name, normalized class histogram).
    pub histograms: Vec<(String, Vec<f64>)>,
    /// (domain name, mean appearance distance of class prototypes from
    /// the source domain).
    pub appearance_shift: Vec<(String, f64)>,
}

impl Fig1cResult {
    /// The result as a JSON object; each tuple is an array.
    pub fn to_json(&self) -> String {
        let Self {
            seed,
            histograms,
            appearance_shift,
        } = self;
        let histograms = histograms
            .iter()
            .map(|(name, hist)| json::array([json::text(name), json::nums(hist)]));
        let appearance_shift = appearance_shift
            .iter()
            .map(|(name, mean)| json::array([json::text(name), json::num(*mean)]));
        Obj::new()
            .int("seed", *seed)
            .raw("histograms", &json::array(histograms))
            .raw("appearance_shift", &json::array(appearance_shift))
            .finish()
    }
}

/// Runs the Figure 1(c) analysis.
pub fn run() -> Fig1cResult {
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(6000);
    let library = &stream.library;
    let classes = library.world().num_classes();

    // Observed class histograms: play the stream and bucket ground truth
    // per domain.
    let mut per_domain: std::collections::BTreeMap<String, Vec<usize>> =
        std::collections::BTreeMap::new();
    for frame in stream.build() {
        let entry = per_domain.entry(frame.domain_name.to_string()).or_default();
        entry.extend(frame.ground_truth_classes());
    }

    println!("Figure 1(c) — class-distribution shift across domains");
    println!("(UA-DETRAC preset, seed {seed}; classes: car, bus, van, truck)\n");
    rule(66);
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "Domain", "car", "bus", "van", "truck"
    );
    rule(66);
    let mut histograms = Vec::new();
    for (name, observed) in &per_domain {
        if name.contains("->") {
            continue; // skip transition blends
        }
        let hist = class_histogram(observed, classes);
        println!(
            "{:<18} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            name,
            hist[0] * 100.0,
            hist[1] * 100.0,
            hist[2] * 100.0,
            hist[3] * 100.0
        );
        histograms.push((name.clone(), hist));
    }
    rule(66);

    // Appearance shift: distance of each domain's canonical class
    // appearance from the source domain's.
    let source = library.domain(0);
    let zeros = vec![0.0f32; library.world().feature_dim()];
    let (mut a, mut b) = (zeros.clone(), zeros.clone());
    println!("\nLatent appearance shift from the source domain (mean over classes):");
    let mut appearance_shift = Vec::new();
    for domain in library.domains() {
        let mut total = 0.0f64;
        for class in 0..classes {
            source.object_appearance_into(library.world(), class, &zeros, &mut a);
            domain.object_appearance_into(library.world(), class, &zeros, &mut b);
            let dist: f32 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt();
            total += dist as f64;
        }
        let mean = total / classes as f64;
        println!("  {:<18} {:>8.3}", domain.name, mean);
        appearance_shift.push((domain.name.clone(), mean));
    }

    let result = Fig1cResult {
        seed,
        histograms,
        appearance_shift,
    };
    write_json("fig1c", &result.to_json());
    result
}
