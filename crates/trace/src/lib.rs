//! Simulated-time tracing and host-time profiling for the RoSÉ
//! co-simulation.
//!
//! The paper's evaluation is built from *visibility* into the HW/SW stack:
//! latency breakdowns, queue behaviour, and utilization curves recovered
//! from FireSim counters and synchronizer logs (§5–6). This crate is the
//! reproduction's equivalent instrumentation spine:
//!
//! - [`tracer::Tracer`] — a zero-cost-when-disabled event recorder keyed to
//!   **simulated time** (SoC cycles / environment frames, mapped onto one
//!   shared microsecond axis by [`clock::TraceClock`]), with an owned
//!   per-component buffer so the hot loop never takes a lock.
//! - [`chrome::TraceLog`] — merged events exported as Chrome
//!   trace-event JSON, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`, with env / sync / bridge / SoC-unit activity on
//!   parallel tracks.
//! - [`profiler::Profiler`] — host wall-clock self-attribution per
//!   co-simulation phase, the one sanctioned wall-time API (the DET001
//!   lint flags clock reads anywhere else).
//! - [`flight::FlightRecorder`] — an always-on bounded postmortem ring
//!   that dumps self-contained JSON on collision / deadline miss /
//!   transport fault, with span-walk attribution.
//! - [`json`] — a dependency-free JSON parser used to validate emitted
//!   traces in tests and CI (the workspace builds offline; serde here is a
//!   no-op stub).
//!
//! The crate keeps no counters of its own: the simulators' stats structs
//! hold them, and `rose::mission::MissionReport::metrics_csv` lists them
//! as one `metric,kind,value` table. Per-sample values live in the trace's
//! span args, the flight recorder's ring and the subsystems' own logs
//! (DESIGN.md §4f).
//!
//! Only `rose-sim-core` sits below this crate, so every simulator crate
//! (envsim, socsim, rose-bridge, rose) can depend on it without cycles.

#![deny(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod event;
pub mod flight;
pub mod json;
pub mod profiler;
pub mod tracer;

pub use chrome::TraceLog;
pub use clock::TraceClock;
pub use event::{intern, ArgValue, EventKind, TraceEvent, Track};
pub use flight::{FlightRecorder, FlightSample, TimingCacheCounts};
pub use profiler::{Phase, Profiler, Stopwatch};
pub use tracer::Tracer;
