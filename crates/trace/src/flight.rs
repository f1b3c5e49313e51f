//! The flight recorder: a bounded postmortem ring buffer.
//!
//! An aircraft flight recorder is cheap, always on, and only read after
//! something went wrong. This is the co-simulation's equivalent: a
//! fixed-capacity ring of per-quantum [`FlightSample`]s (metric deltas —
//! collisions, deadline misses, queue depth, wall-time split). On a
//! trigger — a collision, a deadline miss, or a latched transport fault —
//! it dumps a **self-contained postmortem JSON** with the ring, the tail
//! of the trace events recorded so far (when tracing is enabled), and a
//! deadline-miss **attribution** that walks those spans to name the
//! dominant time sink (compute vs `stall:rx-empty` vs bridge traffic).
//! When the mission has a timing cache, the dump also names its hits,
//! misses and entries. The event tail and the cache counters are read
//! only when a postmortem is written; quanta that trigger nothing copy no
//! events and take no lock.
//!
//! The recorder is telemetry: fixed memory, never part of a mission
//! snapshot, never an input to the determinism digest (DESIGN.md §4f).

use crate::chrome::{escape_into, write_f64};
use crate::event::{EventKind, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Schema tag stamped into every postmortem dump.
pub const POSTMORTEM_SCHEMA: &str = "rose-postmortem-v1";

/// Default ring capacity (samples retained before the trigger).
pub const DEFAULT_CAPACITY: usize = 256;

/// How many of the most recent trace events a postmortem embeds.
const EVENT_TAIL: usize = 64;

/// One per-quantum observation: absolute counters the recorder diffs to
/// detect rising edges, plus the quantum's wall-time split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlightSample {
    /// Synchronization periods executed so far.
    pub sync: u64,
    /// Simulated mission time, seconds.
    pub sim_time_s: f64,
    /// Cumulative collision count.
    pub collisions: u64,
    /// Cumulative control-deadline misses.
    pub deadline_misses: u64,
    /// Bridge receive-queue depth at the boundary.
    pub queue_depth: u64,
    /// Host wall time of the environment half of this quantum, µs.
    pub env_wall_us: f64,
    /// Host wall time of the RTL half of this quantum, µs.
    pub rtl_wall_us: f64,
    /// True once a transport fault has latched.
    pub fault: bool,
    /// Cumulative transport-recovery retries (grant re-attempts absorbed
    /// by the synchronizer's recovery policy).
    pub recovery_retries: u64,
    /// Host wall time spent in fault recovery this quantum, µs.
    pub recovery_us: f64,
}

/// A timing cache's host counters when a postmortem is written: the
/// expansions it replayed and missed, the entries it holds, and the size
/// of its file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingCacheCounts {
    /// Lookups that replayed an entry.
    pub hits: u64,
    /// Lookups that expanded cold.
    pub misses: u64,
    /// Recorded expansions.
    pub entries: usize,
    /// Bytes in the cache's file; `None` for a cache held in memory or a
    /// file not yet written.
    pub file_bytes: Option<u64>,
}

/// A per-trigger span-time attribution: where simulated time went in the
/// recent event window, by cost category.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The category with the largest share, or `"unknown"` when the
    /// window holds no attributable spans (e.g. tracing disabled).
    pub dominant: &'static str,
    /// Simulated-µs totals per category.
    pub breakdown_us: BTreeMap<&'static str, f64>,
}

/// Buckets a span name into an attribution category, or `None` for
/// enclosing spans that would double-count their contents.
fn categorize(name: &str) -> Option<&'static str> {
    if name.starts_with("kernel:") || name == "gemmini-tile" {
        Some("compute")
    } else if name == "stall:rx-empty" {
        Some("stall:rx-empty")
    } else if name.starts_with("mmio-") || name == "bridge-packet" {
        Some("bridge")
    } else if name == "sleep" {
        Some("sleep")
    } else {
        // Enclosing spans (sync-quantum / sync-grant / soc-grant) would
        // double-count their contents; unknown names stay unattributed.
        None
    }
}

/// Attributes the `Complete`-span time in `events` across categories.
pub fn attribute(events: &[TraceEvent]) -> Attribution {
    let mut breakdown_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    for event in events {
        if let EventKind::Complete { dur_us } = event.kind {
            if let Some(cat) = categorize(event.name) {
                *breakdown_us.entry(cat).or_insert(0.0) += dur_us;
            }
        }
    }
    let dominant = breakdown_us
        .iter()
        // BTreeMap order makes the max deterministic under ties.
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(cat, _)| *cat)
        .unwrap_or("unknown");
    Attribution {
        dominant,
        breakdown_us,
    }
}

/// The bounded always-on recorder; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<FlightSample>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` samples (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Samples currently retained.
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// Maximum samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &FlightSample> {
        self.ring.iter()
    }

    /// Records one quantum's sample, and returns a postmortem JSON if the
    /// sample crossed a trigger: a collision-count rise, a deadline-miss
    /// rise, or a transport fault latching. Multiple simultaneous triggers
    /// produce one postmortem whose `detail` lists them all. `recent` is
    /// the trace recorded so far and `timing_cache` reads the mission's
    /// cache counters, if it has a cache; both are read only when a
    /// trigger fires.
    pub fn record(
        &mut self,
        sample: FlightSample,
        recent: &[TraceEvent],
        timing_cache: impl FnOnce() -> Option<TimingCacheCounts>,
    ) -> Option<String> {
        let prev = self.ring.back().copied().unwrap_or_default();
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);

        let mut triggers: Vec<&'static str> = Vec::new();
        if sample.collisions > prev.collisions {
            triggers.push("collision");
        }
        if sample.deadline_misses > prev.deadline_misses {
            triggers.push("deadline-miss");
        }
        if sample.fault && !prev.fault {
            triggers.push("transport-fault");
        }
        if triggers.is_empty() {
            return None;
        }
        let detail = triggers.join(", ");
        Some(self.postmortem(triggers[0], &detail, recent, timing_cache()))
    }

    /// Renders a self-contained postmortem JSON from the current ring and
    /// the last `EVENT_TAIL` (64) events of `recent`, the trace recorded so
    /// far, plus `timing_cache`'s counters when there is one. `reason` is
    /// the primary trigger; `detail` is free-form context (all
    /// simultaneous triggers, a fault message, …).
    pub fn postmortem(
        &self,
        reason: &str,
        detail: &str,
        recent: &[TraceEvent],
        timing_cache: Option<TimingCacheCounts>,
    ) -> String {
        let at = self.ring.back().copied().unwrap_or_default();
        let tail = &recent[recent.len().saturating_sub(EVENT_TAIL)..];
        let attribution = attribute(tail);
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"");
        escape_into(&mut out, POSTMORTEM_SCHEMA);
        out.push_str("\",\"reason\":\"");
        escape_into(&mut out, reason);
        out.push_str("\",\"detail\":\"");
        escape_into(&mut out, detail);
        let _ = write!(out, "\",\"sync\":{},\"sim_time_s\":", at.sync);
        write_f64(&mut out, at.sim_time_s);
        out.push_str(",\"attribution\":{\"dominant\":\"");
        escape_into(&mut out, attribution.dominant);
        out.push_str("\",\"breakdown_us\":{");
        for (i, (cat, us)) in attribution.breakdown_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, cat);
            out.push_str("\":");
            write_f64(&mut out, *us);
        }
        out.push_str("}}");
        if let Some(cache) = timing_cache {
            let _ = write!(
                out,
                ",\"timing_cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}",
                cache.hits, cache.misses, cache.entries
            );
            if let Some(bytes) = cache.file_bytes {
                let _ = write!(out, ",\"file_bytes\":{bytes}");
            }
            out.push('}');
        }
        out.push_str(",\"ring\":[");
        for (i, s) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"sync\":{},\"collisions\":{},\"deadline_misses\":{},\"queue_depth\":{},\"fault\":{},\"recovery_retries\":{},",
                s.sync, s.collisions, s.deadline_misses, s.queue_depth, s.fault, s.recovery_retries
            );
            out.push_str("\"sim_time_s\":");
            write_f64(&mut out, s.sim_time_s);
            out.push_str(",\"env_wall_us\":");
            write_f64(&mut out, s.env_wall_us);
            out.push_str(",\"rtl_wall_us\":");
            write_f64(&mut out, s.rtl_wall_us);
            out.push_str(",\"recovery_us\":");
            write_f64(&mut out, s.recovery_us);
            out.push('}');
        }
        out.push_str("],\"recent_events\":[");
        for (i, e) in tail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"track\":\"");
            escape_into(&mut out, e.track.name());
            out.push_str("\",\"name\":\"");
            escape_into(&mut out, e.name);
            out.push_str("\",\"ts_us\":");
            write_f64(&mut out, e.ts_us);
            match e.kind {
                EventKind::Complete { dur_us } => {
                    out.push_str(",\"kind\":\"complete\",\"dur_us\":");
                    write_f64(&mut out, dur_us);
                }
                EventKind::Begin => out.push_str(",\"kind\":\"begin\""),
                EventKind::End => out.push_str(",\"kind\":\"end\""),
                EventKind::Instant => out.push_str(",\"kind\":\"instant\""),
                EventKind::Counter { value } => {
                    out.push_str(",\"kind\":\"counter\",\"value\":");
                    write_f64(&mut out, value);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;
    use crate::json;

    fn sample(sync: u64) -> FlightSample {
        FlightSample {
            sync,
            sim_time_s: sync as f64 / 60.0,
            ..FlightSample::default()
        }
    }

    fn span(name: &'static str, dur_us: f64) -> TraceEvent {
        TraceEvent {
            track: Track::SocCpu,
            name,
            ts_us: 0.0,
            kind: EventKind::Complete { dur_us },
            args: Vec::new(),
        }
    }

    #[test]
    fn ring_is_bounded_and_oldest_first() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10 {
            assert_eq!(fr.record(sample(i), &[], || None), None);
        }
        assert_eq!(fr.occupancy(), 4);
        assert_eq!(fr.capacity(), 4);
        let syncs: Vec<u64> = fr.samples().map(|s| s.sync).collect();
        assert_eq!(syncs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn rising_edges_trigger_once() {
        let mut fr = FlightRecorder::new(8);
        let mut s = sample(0);
        assert!(fr.record(s, &[], || None).is_none());
        s.sync = 1;
        s.collisions = 1;
        let pm = fr.record(s, &[], || None).expect("collision must trigger");
        let parsed = json::parse(&pm).expect("postmortem is valid JSON");
        assert_eq!(
            parsed.get("reason").and_then(|r| r.as_str()),
            Some("collision")
        );
        // Same count again: no re-trigger.
        s.sync = 2;
        assert!(fr.record(s, &[], || None).is_none());
    }

    #[test]
    fn simultaneous_triggers_merge_into_detail() {
        let mut fr = FlightRecorder::new(8);
        fr.record(sample(0), &[], || None);
        let s = FlightSample {
            sync: 1,
            collisions: 1,
            deadline_misses: 2,
            fault: true,
            ..sample(1)
        };
        let pm = fr.record(s, &[], || None).expect("triggers");
        let parsed = json::parse(&pm).unwrap();
        assert_eq!(
            parsed.get("detail").and_then(|d| d.as_str()),
            Some("collision, deadline-miss, transport-fault")
        );
        // fault already latched: no new trigger on the next sample.
        let s2 = FlightSample { sync: 2, ..s };
        assert!(fr.record(s2, &[], || None).is_none());
    }

    #[test]
    fn attribution_names_the_dominant_category() {
        let events = vec![
            span("kernel:matmul", 100.0),
            span("stall:rx-empty", 900.0),
            span("mmio-send", 50.0),
            span("sync-quantum", 5000.0), // enclosing: excluded
        ];
        let a = attribute(&events);
        assert_eq!(a.dominant, "stall:rx-empty");
        assert_eq!(a.breakdown_us["compute"], 100.0);
        assert_eq!(a.breakdown_us["bridge"], 50.0);
        assert!(!a.breakdown_us.contains_key("sync-quantum"));
    }

    #[test]
    fn attribution_without_spans_is_unknown() {
        assert_eq!(attribute(&[]).dominant, "unknown");
    }

    #[test]
    fn postmortem_embeds_ring_events_and_attribution() {
        let mut fr = FlightRecorder::new(8);
        let events = vec![span("kernel:conv", 300.0), span("sleep", 10.0)];
        // A quantum that triggers nothing never reads the cache counters.
        let untriggered = fr.record(sample(0), &events, || panic!("counters read per quantum"));
        assert_eq!(untriggered, None);
        let mut s = sample(1);
        s.deadline_misses = 1;
        let counts = TimingCacheCounts {
            hits: 45,
            misses: 2,
            entries: 23,
            file_bytes: Some(1_818_209),
        };
        let pm = fr
            .record(s, &events, || Some(counts))
            .expect("miss triggers");
        let parsed = json::parse(&pm).expect("valid JSON");
        let cache = parsed.get("timing_cache").expect("the mission's cache");
        let count = |key| cache.get(key).and_then(|v| v.as_f64());
        assert_eq!(
            (
                count("hits"),
                count("misses"),
                count("entries"),
                count("file_bytes")
            ),
            (Some(45.0), Some(2.0), Some(23.0), Some(1_818_209.0))
        );
        // A cache with no file written has no size to report.
        let fileless = TimingCacheCounts {
            file_bytes: None,
            ..counts
        };
        let fileless = json::parse(&fr.postmortem("probe", "", &events, Some(fileless))).unwrap();
        let fileless = fileless.get("timing_cache").expect("the cache's counters");
        assert!(fileless.get("entries").is_some() && fileless.get("file_bytes").is_none());
        // Without a cache the dump has no such field.
        let cacheless = json::parse(&fr.postmortem("probe", "", &events, None)).unwrap();
        assert!(cacheless.get("timing_cache").is_none());
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(
            parsed.get("reason").and_then(|v| v.as_str()),
            Some("deadline-miss")
        );
        let ring = parsed.get("ring").and_then(|r| r.as_array()).unwrap();
        assert_eq!(ring.len(), 2);
        assert!(
            ring[0].get("recovery_retries").is_some() && ring[0].get("recovery_us").is_some(),
            "ring entries carry the recovery split"
        );
        let recent = parsed
            .get("recent_events")
            .and_then(|r| r.as_array())
            .unwrap();
        assert_eq!(recent.len(), 2);
        assert_eq!(
            parsed
                .get("attribution")
                .and_then(|a| a.get("dominant"))
                .and_then(|d| d.as_str()),
            Some("compute")
        );
    }

    #[test]
    fn event_tail_is_capped() {
        let mut fr = FlightRecorder::new(2);
        let events: Vec<TraceEvent> = (0..200).map(|_| span("kernel:fill", 1.0)).collect();
        let mut s = sample(1);
        s.collisions = 1;
        let pm = fr.record(s, &events, || None).expect("trigger");
        let parsed = json::parse(&pm).unwrap();
        let recent = parsed
            .get("recent_events")
            .and_then(|r| r.as_array())
            .unwrap();
        assert_eq!(recent.len(), EVENT_TAIL);
    }
}
