//! The per-component event recorder.
//!
//! Every instrumented component (the synchronizer, the SoC, the UAV sim)
//! owns its own [`Tracer`]. A tracer is either **disabled** — the default,
//! a single null-pointer check on the hot path, no buffer, no allocation —
//! or **enabled**, appending to an owned, component-confined `Vec` (the
//! lock-free-per-thread buffer: no component shares its buffer, so no
//! synchronization exists to pay for). Buffers are collected and merged
//! into a [`TraceLog`](crate::chrome::TraceLog) at mission teardown.

use crate::clock::TraceClock;
use crate::event::{ArgValue, EventKind, TraceEvent, Track};
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

/// Buffer plus clock for one enabled tracer.
#[derive(Debug, Clone)]
struct TraceBuf {
    clock: TraceClock,
    events: Vec<TraceEvent>,
}

/// A simulated-time event recorder; see the [module docs](self).
///
/// The disabled state is the `TraceSink::Disabled` path: `Option<Box<_>>`
/// is one word, so every recording call starts with a single branch and
/// the instrumented hot loops pay nothing else when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Box<TraceBuf>>,
}

impl Tracer {
    /// A tracer that drops everything (the default).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer stamping events with `clock`.
    pub fn enabled(clock: TraceClock) -> Tracer {
        Tracer {
            inner: Some(Box::new(TraceBuf {
                clock,
                events: Vec::new(),
            })),
        }
    }

    /// True when events are being recorded. Instrumentation sites should
    /// check this before building argument vectors.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.events.len())
    }

    /// True if nothing has been recorded (or the tracer is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The clock of an enabled tracer.
    pub fn clock(&self) -> Option<TraceClock> {
        self.inner.as_ref().map(|b| b.clock)
    }

    /// Drains the recorded events, leaving the tracer enabled.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.inner
            .as_mut()
            .map_or_else(Vec::new, |b| std::mem::take(&mut b.events))
    }

    /// The recorded events, without draining (snapshot capture).
    pub fn events(&self) -> &[TraceEvent] {
        self.inner.as_ref().map_or(&[], |b| b.events.as_slice())
    }

    /// Serializes the buffered events. A mission snapshot carries each
    /// component's trace prefix so a resumed run's merged log — and its
    /// determinism digest — matches a straight run event for event.
    pub fn save_state(&self, w: &mut SnapWriter) {
        // The clock and enabled/disabled mode are structural: both are
        // re-derived from `MissionConfig` when the tracer is rebuilt.
        w.seq(self.events(), |w, event| event.save_state(w));
    }

    /// Restores buffered events into this tracer.
    ///
    /// The events are *read* unconditionally (keeping the reader aligned)
    /// but only retained if the tracer is enabled, mirroring how a
    /// disabled tracer drops events at record time.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on malformed input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let events = r.seq(TraceEvent::restore_state)?;
        if let Some(buf) = &mut self.inner {
            buf.events = events;
        }
        Ok(())
    }

    #[inline]
    fn push(
        &mut self,
        track: Track,
        name: &'static str,
        ts_us: f64,
        kind: EventKind,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &mut self.inner {
            buf.events.push(TraceEvent {
                track,
                name,
                ts_us,
                kind,
                args,
            });
        }
    }

    /// Records a span covering SoC cycles `[start, end)`.
    #[inline]
    pub fn complete_cycles(
        &mut self,
        track: Track,
        name: &'static str,
        start_cycle: u64,
        end_cycle: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.cycles_to_us(start_cycle);
            let dur = buf.clock.cycles_to_us(end_cycle) - ts;
            self.push(track, name, ts, EventKind::Complete { dur_us: dur }, args);
        }
    }

    /// Records a span covering environment frames `[start, end)`.
    #[inline]
    pub fn complete_frames(
        &mut self,
        track: Track,
        name: &'static str,
        start_frame: u64,
        end_frame: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.frames_to_us(start_frame);
            let dur = buf.clock.frames_to_us(end_frame) - ts;
            self.push(track, name, ts, EventKind::Complete { dur_us: dur }, args);
        }
    }

    /// Opens a paired span at SoC cycle `cycle`. Must be closed by a
    /// [`span_end_cycles`](Tracer::span_end_cycles) (or the frame-domain
    /// twin) with the same name on the same track; the TRACE001 lint
    /// checks call sites stay balanced and
    /// [`TraceLog::unpaired_spans`](crate::chrome::TraceLog::unpaired_spans)
    /// validates recorded logs.
    #[inline]
    pub fn span_begin_cycles(
        &mut self,
        track: Track,
        name: &'static str,
        cycle: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.cycles_to_us(cycle);
            self.push(track, name, ts, EventKind::Begin, args);
        }
    }

    /// Closes the paired span most recently opened under `name` on `track`,
    /// at SoC cycle `cycle`.
    #[inline]
    pub fn span_end_cycles(&mut self, track: Track, name: &'static str, cycle: u64) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.cycles_to_us(cycle);
            self.push(track, name, ts, EventKind::End, Vec::new());
        }
    }

    /// Records an instant at SoC cycle `cycle`.
    #[inline]
    pub fn instant_cycles(
        &mut self,
        track: Track,
        name: &'static str,
        cycle: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.cycles_to_us(cycle);
            self.push(track, name, ts, EventKind::Instant, args);
        }
    }

    /// Records an instant at environment frame `frame`.
    #[inline]
    pub fn instant_frames(
        &mut self,
        track: Track,
        name: &'static str,
        frame: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.frames_to_us(frame);
            self.push(track, name, ts, EventKind::Instant, args);
        }
    }

    /// Samples a counter value at SoC cycle `cycle`.
    #[inline]
    pub fn counter_cycles(&mut self, track: Track, name: &'static str, cycle: u64, value: f64) {
        if let Some(buf) = &self.inner {
            let ts = buf.clock.cycles_to_us(cycle);
            self.push(track, name, ts, EventKind::Counter { value }, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.complete_cycles(Track::SocCpu, "kernel:matmul", 0, 100, Vec::new());
        t.instant_frames(Track::Env, "collision", 3, Vec::new());
        t.counter_cycles(Track::SocMem, "l2-misses", 5, 1.0);
        assert!(t.is_empty());
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn enabled_tracer_stamps_simulated_time() {
        let mut t = Tracer::enabled(TraceClock::default());
        t.complete_cycles(
            Track::SocCpu,
            "kernel:matmul",
            1_000_000_000,
            2_000_000_000,
            Vec::new(),
        );
        t.instant_frames(Track::Env, "collision", 60, Vec::new());
        let events = t.take_events();
        assert_eq!(events.len(), 2);
        // Cycle 1e9 at 1 GHz and frame 60 at 60 fps are both 1 s = 1e6 µs.
        assert_eq!(events[0].ts_us, 1e6);
        assert_eq!(events[0].kind, EventKind::Complete { dur_us: 1e6 });
        assert_eq!(events[1].ts_us, 1e6);
        // Draining keeps the tracer live.
        assert!(t.is_enabled());
        assert!(t.is_empty());
    }
}
