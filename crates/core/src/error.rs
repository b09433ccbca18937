//! Typed errors for the training and simulation hot path.
//!
//! The trainer, the simulation engine, and the sampling-rate controller
//! form the hot path of every experiment sweep: a panic there aborts an
//! entire fleet run and loses every finished data point. These errors make
//! the failure modes explicit instead — a sweep can log the failed
//! configuration and keep going. The `xtask lint` panic audit (L2) holds
//! these modules to zero `unwrap`/`expect` calls.

use shoggoth_net::InvalidLink;
use shoggoth_tensor::TensorError;

/// A configuration whose fields are mutually inconsistent, rejected at
/// construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidConfig {
    /// The component that rejected the configuration.
    pub component: &'static str,
    /// What is inconsistent.
    pub reason: &'static str,
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} configuration: {}",
            self.component, self.reason
        )
    }
}

impl std::error::Error for InvalidConfig {}

/// Errors from one adaptive-training session
/// ([`crate::trainer::AdaptiveTrainer::train_session`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrainError {
    /// A tensor-engine operation failed mid-session. With the
    /// `finite-check` feature enabled this is also how a poisoned tensor
    /// ([`TensorError::NonFinite`]) surfaces from the training loop.
    Tensor {
        /// What the trainer was doing when the engine failed.
        context: &'static str,
        /// The underlying engine error.
        source: TensorError,
    },
}

impl TrainError {
    /// Adapter for `map_err`: wraps a [`TensorError`] with the trainer
    /// activity it interrupted.
    pub(crate) fn tensor(context: &'static str) -> impl FnOnce(TensorError) -> Self {
        move |source| Self::Tensor { context, source }
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Tensor { context, source } => {
                write!(f, "training failed during {context}: {source}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Tensor { source, .. } => Some(source),
        }
    }
}

/// Errors from a simulation run ([`crate::sim::Simulation::run`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The run was rejected before it started.
    Config(InvalidConfig),
    /// The link or fault-profile configuration was rejected (NaN rates,
    /// inverted outage windows, non-positive capacities).
    Link(InvalidLink),
    /// Adaptive training failed inside the run.
    Train(TrainError),
    /// A tensor operation outside a training session failed (e.g. the AMS
    /// model-weight transfer to the edge student).
    Tensor {
        /// What the engine was doing when the operation failed.
        context: &'static str,
        /// The underlying engine error.
        source: TensorError,
    },
}

impl From<InvalidConfig> for SimError {
    fn from(err: InvalidConfig) -> Self {
        SimError::Config(err)
    }
}

impl From<TrainError> for SimError {
    fn from(err: TrainError) -> Self {
        SimError::Train(err)
    }
}

impl From<InvalidLink> for SimError {
    fn from(err: InvalidLink) -> Self {
        SimError::Link(err)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(err) => write!(f, "{err}"),
            SimError::Link(err) => write!(f, "{err}"),
            SimError::Train(err) => write!(f, "{err}"),
            SimError::Tensor { context, source } => {
                write!(f, "simulation failed during {context}: {source}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(err) => Some(err),
            SimError::Link(err) => Some(err),
            SimError::Train(err) => Some(err),
            SimError::Tensor { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_name_the_failure_site() {
        let err = TrainError::Tensor {
            context: "tail forward pass",
            source: TensorError::MissingForwardCache { layer: "dense" },
        };
        let msg = err.to_string();
        assert!(msg.contains("tail forward pass"), "{msg}");
        assert!(msg.contains("dense"), "{msg}");
        let sim: SimError = err.into();
        assert!(sim.to_string().contains("tail forward pass"));
    }

    #[test]
    fn source_exposes_the_tensor_error() {
        use std::error::Error;
        let err = SimError::Tensor {
            context: "AMS weight import",
            source: TensorError::ParamCount {
                expected: 10,
                actual: 9,
            },
        };
        assert!(err.source().is_some());
    }

    #[test]
    fn invalid_config_display() {
        let err = InvalidConfig {
            component: "sampling-rate controller",
            reason: "r_min must not exceed r_max",
        };
        assert_eq!(
            err.to_string(),
            "invalid sampling-rate controller configuration: r_min must not exceed r_max"
        );
    }
}
