//! The RoSÉ bridge protocol and synchronizer.
//!
//! This crate implements the co-simulation plumbing of Section 3.4:
//!
//! * [`packet`] — the wire protocol: packets consist of a header
//!   (packet type + byte count) and a serialized payload. **Synchronization
//!   packets** communicate simulation state (cycle grants and completions)
//!   with the RoSÉ BRIDGE but are never visible to the modeled SoC;
//!   **data packets** carry sensor/actuator data and are the only packets
//!   the simulated SoC can observe.
//! * [`transport`] — packet transports: an in-process channel pair and a
//!   TCP transport matching the paper's deployment (the synchronizer talks
//!   to FireSim through a TCP listener).
//! * [`sync`] — the lockstep synchronizer implementing Algorithm 1 over
//!   two abstract simulator interfaces ([`sync::EnvSide`] /
//!   [`sync::RtlSide`]), plus a remote RTL adapter that runs the RTL side
//!   of the protocol over any [`transport::Transport`], the server's
//!   packet handler, and a transport that runs that handler on the
//!   caller's thread ([`sync::InlineTransport`]).
//! * [`faults`] — a deterministic fault-injection engine: a seeded,
//!   sim-time-scheduled [`faults::FaultPlan`] and a
//!   [`faults::FaultyTransport`] decorator that perturbs any transport
//!   (drops, duplicates, reorders, corruption, stalls, transient
//!   disconnects) replayably.

#![deny(missing_docs)]

pub mod faults;
pub mod packet;
pub mod sync;
pub mod transport;

pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultStats, FaultyTransport};
pub use packet::{DecodeError, Packet};
pub use sync::{
    EnvSide, RecoveryPolicy, RecoveryStats, RtlSide, SyncConfig, SyncMode, SyncStats, Synchronizer,
};
pub use transport::{ChannelTransport, TcpTransport, Transport};
