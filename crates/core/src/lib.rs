//! # Shoggoth — edge-cloud collaborative real-time video inference
//!
//! A from-scratch reproduction of *"Shoggoth: Towards Efficient Edge-Cloud
//! Collaborative Real-Time Video Inference via Adaptive Online Learning"*
//! (DAC 2023). The architecture decouples knowledge distillation: the
//! **cloud labels** sampled frames with an expensive golden model, the
//! **edge trains** its lightweight model on those labels — with latent
//! replay against catastrophic forgetting and an adaptive frame-sampling
//! controller that balances accuracy, scene change rate, and resource use.
//!
//! The crate is organized around the paper's sections:
//!
//! * [`replay`] — replay memory management, Algorithm 1 verbatim.
//! * [`trainer`] — adaptive training with latent replay, training control
//!   (constant original:replay mix, freeze policy, BRN), §III-B.
//! * [`controller`] — the φ/α/λ sampling-rate controller, Eqs. (2)–(3).
//! * [`cloud`] — the cloud server: online labeling and rate control.
//! * [`strategy`] — Shoggoth plus every baseline the paper compares
//!   against (Edge-Only, Cloud-Only, Prompt, AMS, fixed rates).
//! * [`sim`] — a deterministic, time-stepped simulation of the whole
//!   edge-cloud system at 30 fps, producing the measurements behind every
//!   table and figure ([`sim::SimReport`]).
//! * [`fleet`] — multi-device scalability analysis: cloud-GPU seconds per
//!   device and supportable devices per GPU (the paper's §IV-B point 4).
//! * [`resilience`] — the edge's failure management: upload timeouts,
//!   bounded retransmission with exponential backoff, and a circuit
//!   breaker that suspends the uplink during outages ([`sim::SimReport`]
//!   surfaces every transition and count).
//!
//! Every stage of the pipeline can additionally stream stamped telemetry
//! events into a `shoggoth-telemetry` recorder
//! ([`Simulation::run_traced`](sim::Simulation::run_traced),
//! [`fleet::run_fleet_traced`]) — observation-only by contract, so traced
//! and untraced runs measure bit-identical results.
//!
//! # Examples
//!
//! Run a short Shoggoth simulation end to end:
//!
//! ```
//! use shoggoth::sim::{SimConfig, Simulation};
//! use shoggoth::strategy::Strategy;
//! use shoggoth_video::presets;
//!
//! let mut config = SimConfig::quick(presets::kitti(5).with_total_frames(1500));
//! config.strategy = Strategy::Shoggoth;
//! let report = Simulation::run(&config)?;
//! assert!(report.map50 > 0.0);
//! assert!(report.training_sessions > 0);
//! assert!(report.uplink_kbps > 0.0);
//! # Ok::<(), shoggoth::error::SimError>(())
//! ```

pub mod cloud;
pub mod controller;
pub mod error;
pub mod fleet;
pub mod replay;
pub mod resilience;
pub mod sim;
pub mod strategy;
pub mod trainer;

pub use cloud::{CloudConfig, CloudFaultProfile, CloudServer, LabelFate};
pub use controller::{phi_score, ControllerConfig, RateDecision, SamplingRateController};
pub use error::{InvalidConfig, SimError, TrainError};
pub use fleet::{run_fleet, run_fleet_traced, FleetConfig, FleetReport};
pub use replay::ReplayMemory;
pub use resilience::{ResilienceConfig, ResilienceReport};
pub use sim::{SimConfig, SimReport, Simulation};
pub use strategy::Strategy;
pub use trainer::{AdaptiveTrainer, FreezePolicy, ReplayPlacement, SessionReport, TrainerConfig};
