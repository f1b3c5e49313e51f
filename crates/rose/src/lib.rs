//! RoSÉ: hardware-software co-simulation for pre-silicon, full-stack
//! evaluation of robotics SoCs — the top-level crate of the reproduction.
//!
//! RoSÉ couples an environment simulator (the AirSim substitute in
//! `rose-envsim`), a cycle-level SoC simulator (the FireSim substitute in
//! `rose-socsim`), and a lockstep synchronizer (`rose-bridge`) to evaluate
//! robot UAV systems end to end: environment → sensors → DNN controller
//! running on simulated hardware → flight controller → actuation →
//! environment.
//!
//! # Quickstart
//!
//! ```
//! use rose::mission::{MissionConfig, run_mission};
//! use rose::app::ControllerChoice;
//! use rose_dnn::DnnModel;
//! use rose_envsim::WorldKind;
//! use rose_socsim::SocConfig;
//!
//! let config = MissionConfig {
//!     soc: SocConfig::config_a(),
//!     controller: ControllerChoice::Static(DnnModel::ResNet14),
//!     world: WorldKind::Tunnel,
//!     velocity: 3.0,
//!     initial_yaw_deg: 0.0,
//!     max_sim_seconds: 5.0, // short demo; real missions run to completion
//!     ..MissionConfig::default()
//! };
//! let report = run_mission(&config);
//! assert!(report.trajectory.len() > 0);
//! ```
//!
//! Modules:
//!
//! * [`message`] — the application-level data-packet codec carried over
//!   the RoSÉ bridge (image/depth requests, sensor responses, velocity
//!   commands).
//! * [`envside`] — [`envside::CoSimEnv`], the environment endpoint: decodes
//!   data packets into simulator API calls (Algorithm 1's
//!   `call_airsim_api`).
//! * [`rtlside`] — [`rtlside::SocRtl`], the RTL endpoint wrapping the
//!   simulated SoC and its bridge queues.
//! * [`app`] — the trail-navigation target programs: the static DNN
//!   controller of Sections 5.1–5.2 and the dynamic-runtime controller of
//!   Section 5.3.
//! * [`deadline`] — the deadline model of Equations 3–5.
//! * [`mission`] — the mission runner: configures, runs, and reports one
//!   closed-loop flight.
//! * [`audit`] — the cross-run determinism auditor: runs a config twice
//!   and compares FNV digests of trajectory, SoC counters, and trace
//!   ordering.
//! * [`snapshot`] — mission snapshot and resume: serialize the full
//!   co-simulation state at a quantum boundary, and warm-start sweeps by
//!   resuming one shared checkpoint once per branch.

#![deny(missing_docs)]

pub mod app;
pub mod audit;
pub mod deadline;
pub mod envside;
pub mod fusion;
pub mod message;
pub mod mission;
pub mod mpc;
pub mod rtlside;
pub mod snapshot;

pub use app::{AppMetrics, ControllerChoice};
pub use mission::{run_mission, MissionConfig, MissionReport};
pub use snapshot::{Mission, MissionSnapshot};
