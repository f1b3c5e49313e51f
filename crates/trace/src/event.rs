//! Trace events and the fixed track layout.
//!
//! Tracks mirror the co-simulation's components: each maps to one Chrome
//! trace-event thread inside a single `rose-cosim` process, so Perfetto
//! renders env, synchronizer, bridge, and per-SoC-unit activity as
//! parallel swimlanes sharing the simulated-time axis.

use rose_sim_core::lock;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Interns a string, returning a `'static` reference.
///
/// Event names and argument keys are `&'static str` so recording never
/// allocates; restoring a snapshot has to reconstruct those references
/// from serialized bytes. Interning leaks each *distinct* string once —
/// trace vocabularies are small and fixed (a few dozen literals across
/// the stack), so the leak is bounded and deduplicated across restores.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = lock(&INTERNED);
    if let Some(&existing) = set.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A display track (one Perfetto swimlane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Environment simulator frame steps and collision events.
    Env,
    /// Synchronizer quantum boundaries and grants.
    Sync,
    /// Bridge packet crossings and queue-depth counters.
    Bridge,
    /// SoC CPU activity: kernels, MMIO, stalls, sleeps.
    SocCpu,
    /// Gemmini accelerator tile executions.
    SocAccel,
    /// Memory-hierarchy counters (cache misses, idle cycles).
    SocMem,
}

impl Track {
    /// Every track, in display order.
    pub const ALL: [Track; 6] = [
        Track::Env,
        Track::Sync,
        Track::Bridge,
        Track::SocCpu,
        Track::SocAccel,
        Track::SocMem,
    ];

    /// The track's display name (the Perfetto thread name).
    pub fn name(self) -> &'static str {
        match self {
            Track::Env => "env",
            Track::Sync => "sync",
            Track::Bridge => "bridge",
            Track::SocCpu => "soc.cpu",
            Track::SocAccel => "soc.gemmini",
            Track::SocMem => "soc.mem",
        }
    }

    /// The trace-event thread id (stable, also the sort index).
    pub fn tid(self) -> u32 {
        match self {
            Track::Env => 1,
            Track::Sync => 2,
            Track::Bridge => 3,
            Track::SocCpu => 4,
            Track::SocAccel => 5,
            Track::SocMem => 6,
        }
    }

    /// The track with the given [`Track::tid`], if any (snapshot decode).
    pub fn from_tid(tid: u32) -> Option<Track> {
        Track::ALL.iter().copied().find(|t| t.tid() == tid)
    }
}

/// An event argument value (rendered into the `args` object).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned count.
    U64(u64),
    /// A real value.
    F64(f64),
    /// A static label (e.g. a direction tag).
    Str(&'static str),
}

/// The shape of a trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A span with a duration (`ph: "X"`).
    Complete {
        /// Span length in simulated microseconds.
        dur_us: f64,
    },
    /// The opening edge of a paired span (`ph: "B"`). Every `Begin` must
    /// be closed by an [`EventKind::End`] of the same name on the same
    /// track — the invariant `TraceLog::unpaired_spans` checks and the
    /// TRACE001 lint enforces at call sites.
    Begin,
    /// The closing edge of a paired span (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter {
        /// The counter's value at this timestamp.
        value: f64,
    },
}

/// One recorded trace event, timestamped in simulated microseconds.
///
/// Names are static so recording never allocates for the common case; the
/// only allocation is the (usually tiny) argument vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Display track.
    pub track: Track,
    /// Event name (Perfetto slice title).
    pub name: &'static str,
    /// Start timestamp in simulated microseconds.
    pub ts_us: f64,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Key-value details shown in the Perfetto side panel.
    pub args: Vec<(&'static str, ArgValue)>,
}

const KIND_COMPLETE: u8 = 0;
const KIND_BEGIN: u8 = 1;
const KIND_END: u8 = 2;
const KIND_INSTANT: u8 = 3;
const KIND_COUNTER: u8 = 4;

const ARG_U64: u8 = 0;
const ARG_F64: u8 = 1;
const ARG_STR: u8 = 2;

impl TraceEvent {
    /// Serializes the event (snapshot prefix-trace support).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let TraceEvent {
            track,
            name,
            ts_us,
            kind,
            args,
        } = self;
        w.u32(track.tid());
        w.str(name);
        w.f64(*ts_us);
        match kind {
            EventKind::Complete { dur_us } => {
                w.u8(KIND_COMPLETE);
                w.f64(*dur_us);
            }
            EventKind::Begin => w.u8(KIND_BEGIN),
            EventKind::End => w.u8(KIND_END),
            EventKind::Instant => w.u8(KIND_INSTANT),
            EventKind::Counter { value } => {
                w.u8(KIND_COUNTER);
                w.f64(*value);
            }
        }
        w.seq(args, |w, (key, value)| {
            w.str(key);
            match value {
                ArgValue::U64(v) => {
                    w.u8(ARG_U64);
                    w.u64(*v);
                }
                ArgValue::F64(v) => {
                    w.u8(ARG_F64);
                    w.f64(*v);
                }
                ArgValue::Str(s) => {
                    w.u8(ARG_STR);
                    w.str(s);
                }
            }
        });
    }

    /// Deserializes one event, interning names and string values.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on malformed input (unknown track tid or
    /// kind/arg tags included).
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<TraceEvent, SnapError> {
        let tid = r.u32()?;
        let track = Track::from_tid(tid).ok_or(SnapError::BadTag {
            context: "trace event track",
            tag: tid as u8,
        })?;
        let name = intern(&r.string()?);
        let ts_us = r.f64()?;
        let kind = match r.u8()? {
            KIND_COMPLETE => EventKind::Complete { dur_us: r.f64()? },
            KIND_BEGIN => EventKind::Begin,
            KIND_END => EventKind::End,
            KIND_INSTANT => EventKind::Instant,
            KIND_COUNTER => EventKind::Counter { value: r.f64()? },
            tag => {
                return Err(SnapError::BadTag {
                    context: "trace event kind",
                    tag,
                })
            }
        };
        let args = r.seq(|r| {
            let key = intern(&r.string()?);
            let value = match r.u8()? {
                ARG_U64 => ArgValue::U64(r.u64()?),
                ARG_F64 => ArgValue::F64(r.f64()?),
                ARG_STR => ArgValue::Str(intern(&r.string()?)),
                tag => {
                    return Err(SnapError::BadTag {
                        context: "trace arg value",
                        tag,
                    })
                }
            };
            Ok((key, value))
        })?;
        Ok(TraceEvent {
            track,
            name,
            ts_us,
            kind,
            args,
        })
    }
}
