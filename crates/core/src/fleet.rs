//! Multi-device fleet analysis: how many edge devices one cloud GPU
//! supports.
//!
//! The paper argues (§IV-B, point 4) that because AMS "requires more
//! computing resources for training on the cloud, Shoggoth can support
//! more edge devices when several edge devices share the same GPU
//! server". This module quantifies that claim: it runs one simulation per
//! device (each with its own stream seed), accounts the cloud GPU seconds
//! each device demanded — teacher inference for labeling, plus cloud-side
//! training for AMS — and derives the per-device GPU utilization and the
//! supportable fleet size.

use crate::error::SimError;
use crate::sim::{SimConfig, SimReport, Simulation};
use shoggoth_compute::stack::mask_rcnn_x101;
use shoggoth_compute::V100;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_telemetry::{NoopRecorder, Record, Recorder, RingRecorder};
use shoggoth_util::json::{self, Obj};
use shoggoth_util::parallel_map;

/// Configuration of a fleet analysis.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Base simulation configuration; each device gets a reseeded copy of
    /// the same stream preset.
    pub base: SimConfig,
    /// Number of edge devices to simulate.
    pub devices: usize,
    /// Worker threads for the per-device simulations. `0` (the default)
    /// resolves to the machine's available parallelism; `1` forces the
    /// serial path. Device seeds and report order do not depend on this —
    /// every thread count produces bit-identical [`FleetReport`]s.
    pub threads: usize,
}

impl FleetConfig {
    /// Builds a fleet around a base config.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn new(base: SimConfig, devices: usize) -> Self {
        assert!(devices > 0, "fleet needs at least one device");
        Self {
            base,
            devices,
            threads: 0,
        }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Aggregate result of a fleet analysis.
///
/// `PartialEq` is derived so determinism tests can compare whole fleet
/// runs across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Strategy analyzed.
    pub strategy: String,
    /// Devices simulated.
    pub devices: usize,
    /// Per-device simulation reports.
    pub per_device: Vec<SimReport>,
    /// Mean mAP@0.5 across devices.
    pub mean_map50: f64,
    /// Total cloud GPU seconds consumed by the whole fleet (teacher
    /// inference + any cloud-side training).
    pub cloud_gpu_secs: f64,
    /// Stream duration in seconds (wall-clock of the analysis window).
    pub duration_secs: f64,
    /// Mean cloud GPU utilization demanded per device, in `[0, ..)`.
    pub gpu_utilization_per_device: f64,
    /// Devices one GPU can serve at full utilization (the paper's
    /// scalability headline).
    pub supported_devices_per_gpu: f64,
    /// Mean uplink Kbps per device.
    pub mean_uplink_kbps: f64,
}

impl FleetReport {
    /// The report as a JSON object with the per-device reports nested;
    /// an unlimited `supported_devices_per_gpu` is written as `null`.
    pub fn to_json(&self) -> String {
        let Self {
            strategy,
            devices,
            per_device,
            mean_map50,
            cloud_gpu_secs,
            duration_secs,
            gpu_utilization_per_device,
            supported_devices_per_gpu,
            mean_uplink_kbps,
        } = self;
        Obj::new()
            .text("strategy", strategy)
            .int("devices", *devices as u64)
            .raw(
                "per_device",
                &json::array(per_device.iter().map(SimReport::to_json)),
            )
            .num("mean_map50", *mean_map50)
            .num("cloud_gpu_secs", *cloud_gpu_secs)
            .num("duration_secs", *duration_secs)
            .num("gpu_utilization_per_device", *gpu_utilization_per_device)
            .num("supported_devices_per_gpu", *supported_devices_per_gpu)
            .num("mean_uplink_kbps", *mean_uplink_kbps)
            .finish()
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} fleet: {} devices over {:.1} s",
            self.strategy, self.devices, self.duration_secs
        )?;
        writeln!(f, "  accuracy   mean mAP@0.5 {:.3}", self.mean_map50)?;
        writeln!(
            f,
            "  cloud GPU  {:.1} s total, {:.3} utilization/device",
            self.cloud_gpu_secs, self.gpu_utilization_per_device
        )?;
        writeln!(
            f,
            "  capacity   {:.1} devices per GPU",
            self.supported_devices_per_gpu
        )?;
        write!(
            f,
            "  network    {:.1} Kbps mean uplink per device",
            self.mean_uplink_kbps
        )
    }
}

/// Runs the fleet analysis.
///
/// Each device replays the same stream *preset* with a distinct seed
/// (different traffic, same statistics) so the fleet represents `devices`
/// cameras of the same deployment. Models are pre-trained once and cloned
/// per device.
///
/// Devices are simulated on `config.threads` worker threads. Every device
/// is seeded up front from its index alone and the reports are merged back
/// in device order, so the result is bit-identical to a serial run.
///
/// # Errors
///
/// Returns the first [`SimError`] (in device order) a device run produced;
/// completed device reports are discarded (each device is cheap relative
/// to the sweep).
pub fn run_fleet(config: &FleetConfig) -> Result<FleetReport, SimError> {
    run_devices(config, || NoopRecorder).map(|(report, _)| report)
}

/// [`run_fleet`], but with a per-device [`RingRecorder`] (each keeping at
/// most `capacity` records). Returns the fleet report plus one event
/// trace per device, merged in device order — the merged streams are
/// identical for every thread count, because each device's recorder lives
/// entirely inside that device's pre-seeded job.
///
/// # Errors
///
/// Returns the first [`SimError`] (in device order) a device run produced;
/// completed device reports are discarded (each device is cheap relative
/// to the sweep).
pub fn run_fleet_traced(
    config: &FleetConfig,
    capacity: usize,
) -> Result<(FleetReport, Vec<Vec<Record>>), SimError> {
    let (report, mut recorders) = run_devices(config, || RingRecorder::new(capacity))?;
    let traces = recorders
        .iter_mut()
        .map(RingRecorder::drain_records)
        .collect();
    Ok((report, traces))
}

/// Plays every device on the fleet's worker threads, each into its own
/// fresh recorder, and aggregates the reports. Returns the recorders in
/// device order.
fn run_devices<R: Recorder + Send>(
    config: &FleetConfig,
    recorder: impl Fn() -> R + Sync,
) -> Result<(FleetReport, Vec<R>), SimError> {
    let (per_device, recorders): (Vec<SimReport>, Vec<R>) = parallel_map(
        device_jobs(config),
        config.threads,
        |_, (device_config, device_student, device_teacher)| {
            let mut recorder = recorder();
            Simulation::run_traced(
                &device_config,
                device_student,
                device_teacher,
                &mut recorder,
            )
            .map(|report| (report, recorder))
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok((aggregate(config, per_device), recorders))
}

/// Materializes the per-device work items (config + model clones) before
/// any fan-out, so worker scheduling cannot influence seeding.
fn device_jobs(config: &FleetConfig) -> Vec<(SimConfig, StudentDetector, TeacherDetector)> {
    let (student, teacher) = Simulation::build_models(&config.base);
    (0..config.devices)
        .map(|device| {
            let mut device_config = config.base.clone();
            device_config.stream = device_config
                .stream
                .with_seed(config.base.stream.seed.wrapping_add(device as u64 * 7919));
            device_config.sim_seed = config.base.sim_seed.wrapping_add(device as u64);
            (device_config, student.clone(), teacher.clone())
        })
        .collect()
}

/// Folds per-device reports into the fleet aggregate (shared by the traced
/// and untraced runners).
fn aggregate(config: &FleetConfig, per_device: Vec<SimReport>) -> FleetReport {
    let teacher_infer_secs = V100.secs_for(mask_rcnn_x101().total_forward_flops());
    let duration_secs = per_device
        .first()
        .map(|r| r.duration_secs)
        .unwrap_or_default();
    let cloud_gpu_secs: f64 = per_device
        .iter()
        .map(|r| r.teacher_frames as f64 * teacher_infer_secs + r.cloud_training_secs)
        .sum();
    let mean_map50 = per_device.iter().map(|r| r.map50).sum::<f64>() / config.devices as f64;
    let mean_uplink_kbps =
        per_device.iter().map(|r| r.uplink_kbps).sum::<f64>() / config.devices as f64;
    let per_device_util = cloud_gpu_secs / config.devices as f64 / duration_secs.max(1e-9);

    FleetReport {
        strategy: config.base.strategy.name(),
        devices: config.devices,
        mean_map50,
        cloud_gpu_secs,
        duration_secs,
        gpu_utilization_per_device: per_device_util,
        supported_devices_per_gpu: if per_device_util > 0.0 {
            1.0 / per_device_util
        } else {
            f64::INFINITY
        },
        mean_uplink_kbps,
        per_device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use shoggoth_video::presets;

    fn fleet(strategy: Strategy, devices: usize) -> FleetReport {
        let mut base = SimConfig::quick(presets::kitti(71).with_total_frames(1800));
        base.strategy = strategy;
        run_fleet(&FleetConfig::new(base, devices)).expect("fleet runs cleanly")
    }

    #[test]
    fn fleet_runs_one_report_per_device() {
        let report = fleet(Strategy::Shoggoth, 3);
        assert_eq!(report.per_device.len(), 3);
        assert_eq!(report.devices, 3);
        assert!(report.duration_secs > 0.0);
    }

    #[test]
    fn devices_see_different_streams() {
        let report = fleet(Strategy::Shoggoth, 2);
        assert_ne!(
            report.per_device[0].per_frame_map, report.per_device[1].per_frame_map,
            "devices must not replay identical traffic"
        );
    }

    #[test]
    fn cloud_only_demands_far_more_gpu_than_shoggoth() {
        let shoggoth = fleet(Strategy::Shoggoth, 2);
        let cloud = fleet(Strategy::CloudOnly, 2);
        assert!(
            cloud.cloud_gpu_secs > 10.0 * shoggoth.cloud_gpu_secs.max(1e-9),
            "cloud-only {} vs shoggoth {}",
            cloud.cloud_gpu_secs,
            shoggoth.cloud_gpu_secs
        );
        assert!(cloud.supported_devices_per_gpu < shoggoth.supported_devices_per_gpu);
    }

    #[test]
    fn ams_training_costs_cloud_gpu_time() {
        let shoggoth = fleet(Strategy::Shoggoth, 2);
        let ams = fleet(Strategy::Ams, 2);
        let ams_training: f64 = ams.per_device.iter().map(|r| r.cloud_training_secs).sum();
        let shoggoth_training: f64 = shoggoth
            .per_device
            .iter()
            .map(|r| r.cloud_training_secs)
            .sum();
        assert_eq!(shoggoth_training, 0.0, "Shoggoth trains on the edge");
        if ams.per_device.iter().any(|r| r.training_sessions > 0) {
            assert!(ams_training > 0.0, "AMS must bill cloud training time");
        }
    }

    #[test]
    fn edge_only_bills_no_cloud_gpu_secs() {
        let report = fleet(Strategy::EdgeOnly, 2);
        assert_eq!(report.cloud_gpu_secs, 0.0);
        assert!(report.supported_devices_per_gpu.is_infinite());
    }
}
