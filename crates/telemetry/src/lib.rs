//! # Shoggoth telemetry — deterministic sim-time tracing
//!
//! Observability for the edge-cloud pipeline without breaking its
//! bit-identical determinism. The rules, enforced by tests and the xtask
//! `telemetry-hygiene` lint:
//!
//! * **Sim-time stamping only.** Every [`Record`] carries simulation
//!   seconds and a frame index ([`Stamp`]); wall clocks
//!   (`Instant`/`SystemTime`) are banned in this crate.
//! * **Observation only.** Recorders never draw randomness and the engine
//!   never branches on recorder state, so a run's `SimReport` is
//!   bit-identical with recording on ([`RingRecorder`]) or off
//!   ([`NoopRecorder`]) — and serial vs. parallel fleet runs produce
//!   identical per-device event streams.
//! * **One accounting path.** The engine folds every event into an
//!   [`EventFold`] before any recorder sees it; the report's counters,
//!   breaker spans and [`TelemetrySummary`] all come from that fold.
//! * **Static dispatch.** The engine is generic over [`Recorder`], so the
//!   no-op's empty inlined `record` calls compile away entirely; hot
//!   tensor kernels take no recorder at all.
//!
//! The crate provides the event taxonomy ([`Event`]), the recorders, the
//! fold's counters and fixed-bucket histograms, a deterministic JSONL
//! exporter ([`export::to_jsonl`]) on `shoggoth_util::json`, and a
//! self-contained HTML/SVG timeline report ([`timeline::render_timeline`]).

pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod timeline;

pub use event::{BreakerPhase, Event, Record, Stamp};
pub use export::{record_to_json, to_jsonl};
pub use metrics::{
    EventFold, Histogram, HistogramSummary, RunTotals, TelemetryCounters, TelemetrySummary,
};
pub use recorder::{NoopRecorder, Recorder, RingRecorder};
pub use timeline::render_timeline;
