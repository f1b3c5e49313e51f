//! Merged trace storage and the Chrome trace-event exporter.
//!
//! The export follows the Trace Event Format's JSON-object form:
//! `{"displayTimeUnit": ..., "traceEvents": [...]}` with `"X"` (complete),
//! `"i"` (instant), `"C"` (counter), and `"M"` (metadata) phases. One
//! `pid` represents the co-simulation; each [`Track`] is a named thread,
//! so Perfetto (`ui.perfetto.dev`) and `chrome://tracing` render the
//! components as parallel swimlanes over simulated time.

use crate::event::{ArgValue, EventKind, TraceEvent, Track};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// An ordered collection of trace events from every component.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Appends a component's drained events.
    pub fn extend(&mut self, events: Vec<TraceEvent>) {
        self.events.extend(events);
    }

    /// All events, in current order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts events by timestamp (then track) so merged per-component
    /// buffers interleave chronologically.
    pub fn sort_by_time(&mut self) {
        self.events.sort_by(|a, b| {
            a.ts_us
                .total_cmp(&b.ts_us)
                .then_with(|| a.track.tid().cmp(&b.track.tid()))
        });
    }

    /// How many events carry `name`.
    pub fn count_named(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Validates `Begin`/`End` span pairing per track, in the log's
    /// current order (call after [`sort_by_time`](TraceLog::sort_by_time)
    /// for merged logs).
    ///
    /// Chrome trace-event semantics: an `E` closes the most recently
    /// opened `B` on its track, so the check runs one stack per track —
    /// an `End` whose name differs from the innermost open `Begin`, an
    /// `End` with no open span, or a `Begin` still open when the log ends
    /// are all reported. Returns one description per defect; an empty
    /// vector means every span is balanced.
    pub fn unpaired_spans(&self) -> Vec<String> {
        let mut defects = Vec::new();
        let mut open: Vec<Vec<(&'static str, f64)>> =
            Track::ALL.iter().map(|_| Vec::new()).collect();
        let slot = |t: Track| Track::ALL.iter().position(|x| *x == t).unwrap_or(0);
        for event in &self.events {
            match event.kind {
                EventKind::Begin => open[slot(event.track)].push((event.name, event.ts_us)),
                EventKind::End => match open[slot(event.track)].pop() {
                    Some((name, _)) if name == event.name => {}
                    Some((name, ts)) => defects.push(format!(
                        "track {}: span_end({:?}) at {} us closes span_begin({:?}) opened at {} us",
                        event.track.name(),
                        event.name,
                        event.ts_us,
                        name,
                        ts,
                    )),
                    None => defects.push(format!(
                        "track {}: span_end({:?}) at {} us without a span_begin",
                        event.track.name(),
                        event.name,
                        event.ts_us,
                    )),
                },
                _ => {}
            }
        }
        for (track, stack) in Track::ALL.iter().zip(&open) {
            for (name, ts) in stack {
                defects.push(format!(
                    "track {}: span_begin({name:?}) at {ts} us never closed",
                    track.name(),
                ));
            }
        }
        defects
    }

    /// Serializes the log as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"rose-cosim\"}}",
        );
        for track in Track::ALL {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}\
                 ,\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}",
                tid = track.tid(),
                name = track.name(),
            );
        }
        for event in &self.events {
            out.push_str(",\n{\"name\":\"");
            escape_into(&mut out, event.name);
            let _ = write!(
                out,
                "\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":",
                event.track.name(),
                event.track.tid()
            );
            write_f64(&mut out, event.ts_us);
            match event.kind {
                EventKind::Complete { dur_us } => {
                    out.push_str(",\"ph\":\"X\",\"dur\":");
                    write_f64(&mut out, dur_us);
                }
                EventKind::Begin => out.push_str(",\"ph\":\"B\""),
                EventKind::End => out.push_str(",\"ph\":\"E\""),
                EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
                EventKind::Counter { value } => {
                    out.push_str(",\"ph\":\"C\"");
                    // Counter events carry their value as the only arg.
                    out.push_str(",\"args\":{\"value\":");
                    write_f64(&mut out, value);
                    out.push_str("}}");
                    continue;
                }
            }
            if !event.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in event.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, key);
                    out.push_str("\":");
                    match value {
                        ArgValue::U64(v) => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::F64(v) => write_f64(&mut out, *v),
                        ArgValue::Str(s) => {
                            out.push('"');
                            escape_into(&mut out, s);
                            out.push('"');
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome trace-event JSON to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_chrome_json<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(self.to_chrome_json().as_bytes())
    }
}

/// Writes an f64 as a JSON number (non-finite values clamp to 0 — JSON has
/// no NaN/Infinity and a poisoned timestamp must not corrupt the file).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Appends `s` with JSON string escaping.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TraceClock;
    use crate::json;
    use crate::tracer::Tracer;

    fn sample_log() -> TraceLog {
        let mut t = Tracer::enabled(TraceClock::default());
        t.complete_frames(Track::Env, "env-frame", 0, 1, Vec::new());
        t.instant_cycles(
            Track::Bridge,
            "bridge-packet",
            0,
            vec![
                ("dir", ArgValue::Str("to-env")),
                ("bytes", ArgValue::U64(12)),
            ],
        );
        t.counter_cycles(Track::SocMem, "l2-misses", 500, 3.0);
        t.complete_cycles(
            Track::SocAccel,
            "gemmini-tile",
            100,
            400,
            vec![("macs", ArgValue::U64(4096))],
        );
        let mut log = TraceLog::new();
        log.extend(t.take_events());
        log.sort_by_time();
        log
    }

    #[test]
    fn export_parses_as_json_with_expected_tracks() {
        let log = sample_log();
        let parsed = json::parse(&log.to_chrome_json()).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 1 process_name + 6 thread_name + 6 sort_index + 4 events.
        assert_eq!(events.len(), 17);
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for expected in ["env", "sync", "bridge", "soc.cpu", "soc.gemmini", "soc.mem"] {
            assert!(thread_names.contains(&expected), "missing track {expected}");
        }
    }

    #[test]
    fn events_sort_chronologically() {
        let log = sample_log();
        let times: Vec<f64> = log.events().iter().map(|e| e.ts_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(log.count_named("bridge-packet"), 1);
    }

    /// Replays the trace shape of a mission — per-grant `soc-grant`
    /// begin/end pairs interleaved with kernel spans and counters across
    /// several quanta — and asserts every `span_begin` is closed by a
    /// matching `span_end` on its track, surviving the merge + sort.
    #[test]
    fn replayed_mission_spans_pair_per_track() {
        let clock = TraceClock::default();
        let mut soc = Tracer::enabled(clock);
        let mut env = Tracer::enabled(clock);
        let cycles_per_grant = 16_666_666u64;
        for grant in 0..5u64 {
            let start = grant * cycles_per_grant;
            let end = start + cycles_per_grant;
            soc.span_begin_cycles(
                Track::SocCpu,
                "soc-grant",
                start,
                vec![("budget", ArgValue::U64(cycles_per_grant))],
            );
            soc.complete_cycles(
                Track::SocCpu,
                "kernel:matmul",
                start,
                start + 1000,
                Vec::new(),
            );
            soc.counter_cycles(Track::SocMem, "l2-misses", end, grant as f64);
            soc.span_end_cycles(Track::SocCpu, "soc-grant", end);
            env.complete_frames(Track::Env, "env-frame", grant, grant + 1, Vec::new());
        }
        let mut log = TraceLog::new();
        log.extend(env.take_events());
        log.extend(soc.take_events());
        log.sort_by_time();
        assert_eq!(log.unpaired_spans(), Vec::<String>::new());
        assert_eq!(log.count_named("soc-grant"), 10); // 5 begins + 5 ends

        // The export round-trips as JSON with B/E phases present.
        let parsed = json::parse(&log.to_chrome_json()).expect("valid JSON");
        let phases: Vec<&str> = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents")
            .iter()
            .filter_map(|e| e.get("ph")?.as_str())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 5);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 5);
    }

    #[test]
    fn unpaired_spans_are_reported() {
        // A begin that never closes.
        let mut t = Tracer::enabled(TraceClock::default());
        t.span_begin_cycles(Track::Sync, "sync-quantum", 0, Vec::new());
        let mut log = TraceLog::new();
        log.extend(t.take_events());
        let defects = log.unpaired_spans();
        assert_eq!(defects.len(), 1);
        assert!(defects[0].contains("never closed"), "{defects:?}");

        // An end with no begin.
        let mut t = Tracer::enabled(TraceClock::default());
        t.span_end_cycles(Track::Sync, "sync-quantum", 10);
        let mut log = TraceLog::new();
        log.extend(t.take_events());
        let defects = log.unpaired_spans();
        assert_eq!(defects.len(), 1);
        assert!(defects[0].contains("without a span_begin"), "{defects:?}");

        // A mismatched close (wrong innermost name).
        let mut t = Tracer::enabled(TraceClock::default());
        t.span_begin_cycles(Track::SocCpu, "outer", 0, Vec::new());
        t.span_begin_cycles(Track::SocCpu, "inner", 5, Vec::new());
        t.span_end_cycles(Track::SocCpu, "outer", 10);
        t.span_end_cycles(Track::SocCpu, "inner", 20);
        let mut log = TraceLog::new();
        log.extend(t.take_events());
        assert_eq!(log.unpaired_spans().len(), 2, "both crossed edges flagged");

        // Same names on *different* tracks do not pair with each other.
        let mut t = Tracer::enabled(TraceClock::default());
        t.span_begin_cycles(Track::SocCpu, "grant", 0, Vec::new());
        t.span_end_cycles(Track::Sync, "grant", 10);
        let mut log = TraceLog::new();
        log.extend(t.take_events());
        assert_eq!(log.unpaired_spans().len(), 2);
    }

    /// Span names and string args containing quotes, backslashes, and
    /// control characters must survive export → parse byte-for-byte (the
    /// exporter JSON-escapes them; the parser unescapes them back).
    #[test]
    fn hostile_names_and_args_round_trip_through_the_parser() {
        use crate::event::intern;
        let hostile_name = intern("kernel:\"ev\\il\"\n\t\u{1}<&>");
        let hostile_arg = intern("payload \\ \"quoted\" \r\n \u{7f} λ");
        let hostile_key = intern("key\"with\\escapes");
        let mut log = TraceLog::new();
        log.extend(vec![TraceEvent {
            track: Track::SocCpu,
            name: hostile_name,
            ts_us: 10.0,
            kind: EventKind::Complete { dur_us: 5.0 },
            args: vec![(hostile_key, ArgValue::Str(hostile_arg))],
        }]);
        let text = log.to_chrome_json();
        let parsed = json::parse(&text).expect("hostile names must still be valid JSON");
        let event = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents")
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("the complete event");
        assert_eq!(
            event.get("name").and_then(|n| n.as_str()),
            Some(hostile_name)
        );
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get(hostile_key))
                .and_then(|v| v.as_str()),
            Some(hostile_arg),
            "arg key and string value must round-trip exactly"
        );
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut log = TraceLog::new();
        log.extend(vec![TraceEvent {
            track: Track::Sync,
            name: "sync-quantum",
            ts_us: f64::NAN,
            kind: EventKind::Complete {
                dur_us: f64::INFINITY,
            },
            args: vec![("x", ArgValue::F64(f64::NEG_INFINITY))],
        }]);
        json::parse(&log.to_chrome_json()).expect("non-finite values must not corrupt the JSON");
    }
}
