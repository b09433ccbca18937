//! A pin on pre-training that holds across commits: FNV-1a digests of the
//! quick student's and quick teacher's exported weights on two presets.
//!
//! Every other golden test compares two runs of the same build, so a change
//! that moves one pre-trained weight bit passes them all. These digests were
//! computed before pre-training moved to the shared fit loop and the
//! concurrent `pretrain_pair`; a refactor that keeps them is bit-identical.
//! Re-pin only for an intended behaviour change, and say why.
//!
//! The digests are per target architecture: the loss's `exp`/`ln` come
//! from the platform libm, so they are pinned on `x86_64` only. Elsewhere
//! the test still holds `Simulation::build_models` to the serial pair.

use shoggoth::sim::{SimConfig, Simulation};
use shoggoth_models::{StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
use shoggoth_video::{presets, StreamConfig};

/// 64-bit FNV-1a over the little-endian bytes of each weight's bit pattern.
fn digest(weights: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in weights.iter().flat_map(|w| w.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The quick models `Simulation::build_models` pre-trains for `stream`,
/// trained one after the other.
fn serial_pair(config: &SimConfig) -> (StudentDetector, TeacherDetector) {
    let library = &config.stream.library;
    let world = library.world();
    let (dim, classes) = (world.feature_dim(), world.num_classes());
    let student_cfg = StudentConfig::new(dim, classes, config.student_seed).quick();
    let teacher_cfg = TeacherConfig::new(dim, classes, config.teacher_seed).quick();
    (
        StudentDetector::pretrained_with(student_cfg, library, 0),
        TeacherDetector::pretrained_with(teacher_cfg, library),
    )
}

#[test]
fn quick_pretrained_weights_match_the_pins() {
    let cases: [(&str, StreamConfig, u64, u64); 2] = [
        (
            "detrac",
            presets::detrac(1),
            0xe2d8_f1f0_0873_72a9,
            0x559c_391d_4c48_66ca,
        ),
        (
            "kitti",
            presets::kitti(1),
            0x2312_f825_f3e1_30a2,
            0x54df_cb2c_b903_dc73,
        ),
    ];
    for (name, stream, student_pin, teacher_pin) in cases {
        let config = SimConfig::quick(stream);
        let (student, teacher) = Simulation::build_models(&config);
        let (serial_student, serial_teacher) = serial_pair(&config);
        let student_weights = student.net().export_weights();
        let teacher_weights = teacher.net().export_weights();
        assert_eq!(
            student_weights,
            serial_student.net().export_weights(),
            "{name}: concurrent student differs from the serial one"
        );
        assert_eq!(
            teacher_weights,
            serial_teacher.net().export_weights(),
            "{name}: concurrent teacher differs from the serial one"
        );
        if cfg!(target_arch = "x86_64") {
            assert_eq!(
                (digest(&student_weights), digest(&teacher_weights)),
                (student_pin, teacher_pin),
                "{name}: pre-trained weights moved (student, teacher digests)"
            );
        }
    }
}
