//! Spans recorded from outside the simulator: transparent wrappers around
//! the co-simulation's layer traits, timed against one run-wide clock.
//!
//! [`Timed`] forwards every method of [`EnvSide`], [`RtlSide`] and
//! [`Transport`] — including the defaulted ones — to the wrapped layer,
//! and records a [`Span`] around each call that does work. It adds no
//! behaviour: a mission flown through the wrappers is bit-identical to one
//! flown without them (see the tests at the bottom).

use rose_bridge::packet::Packet;
use rose_bridge::sync::{EnvSide, RtlSide};
use rose_bridge::transport::{Transport, TransportError};
use rose_socsim::SharedTimingCache;
use rose_trace::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `Synchronizer::step_sync` call (recorded by the stepping loop).
    Step,
    /// `EnvSide::step_frames`.
    EnvStep,
    /// `EnvSide::handle_data`.
    EnvData,
    /// `EnvSide::poll_data`.
    EnvPoll,
    /// `RtlSide::grant_and_run`.
    Grant,
    /// `RtlSide::push_data`.
    Push,
    /// `RtlSide::drain_tx`.
    Drain,
    /// `Transport::send`.
    Send,
    /// `Transport::recv` (a blocking wait).
    Recv,
    /// `Transport::try_recv`.
    TryRecv,
    /// `Transport::reconnect`.
    Reconnect,
}

/// One timed call: nanosecond offsets from the run-wide clock, and the
/// quantum (index of the `step_sync` call in its mission) it ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// Start offset, ns.
    pub start: u64,
    /// End offset, ns.
    pub end: u64,
    /// Parent quantum.
    pub quantum: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The run-wide clock every span is stamped against, plus the quantum the
/// stepping loop is on. Clones share both.
#[derive(Debug, Clone)]
pub struct SpanClock {
    origin: Stopwatch,
    quantum: Arc<AtomicU64>,
}

impl SpanClock {
    /// Starts the clock.
    pub fn start() -> SpanClock {
        SpanClock {
            origin: Stopwatch::start(),
            quantum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Nanoseconds since the clock started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Labels the spans that follow with quantum `q`. The label publishes
    /// no other data, so a relaxed store suffices; self time clips every
    /// child to its parent's interval in any case.
    pub fn set_quantum(&self, q: u64) {
        self.quantum.store(q, Ordering::Relaxed);
    }

    fn quantum(&self) -> u64 {
        self.quantum.load(Ordering::Relaxed)
    }
}

/// What one wrapper saw: its spans and the work counted at its boundary.
#[derive(Debug, Default)]
pub struct Tally {
    /// Spans in call order.
    pub spans: Vec<Span>,
    /// SoC cycles granted.
    pub cycles: u64,
    /// Payloads or packets moved.
    pub packets: u64,
    /// Bytes moved (payload bytes at an RTL endpoint, framed packet bytes
    /// at a transport).
    pub bytes: u64,
    /// Transport operations that returned an error.
    pub errors: u64,
    /// Grants during which the timing cache's hit or miss counter moved.
    pub cost_grants: u64,
    /// Wall time the SoC spent in its cost model (expanding or replaying
    /// kernels and accelerator runs), as `take_cost_model_wall` reports
    /// it, ns.
    pub cost_ns: u64,
}

/// Everything one traced mission recorded, by role.
#[derive(Debug, Default)]
pub struct Trace {
    /// The stepping loop's `step_sync` spans.
    pub steps: Tally,
    /// The environment endpoint.
    pub env: Tally,
    /// The synchronizer's remote RTL proxy, when the SoC is remote.
    pub proxy: Option<Tally>,
    /// The transport under the proxy, when the SoC is remote.
    pub wire: Option<Tally>,
    /// The SoC endpoint, in process or on the server side.
    pub soc: Tally,
}

/// A transparent timing wrapper (see the module docs).
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    clock: SpanClock,
    /// The SoC's timing cache, read around each grant.
    cache: Option<SharedTimingCache>,
    /// Cost-model wall drained from the inner layer after each grant and
    /// not yet taken by the caller.
    cost_model_wall: Duration,
    tally: Tally,
}

impl<T> Timed<T> {
    /// Wraps an environment, a transport, or a remote RTL proxy.
    pub fn new(inner: T, clock: &SpanClock) -> Timed<T> {
        Timed {
            inner,
            clock: clock.clone(),
            cache: None,
            cost_model_wall: Duration::ZERO,
            tally: Tally::default(),
        }
    }

    /// Wraps the SoC endpoint; `cache` is the timing cache it consults.
    pub fn soc(inner: T, clock: &SpanClock, cache: Option<SharedTimingCache>) -> Timed<T> {
        Timed {
            cache,
            ..Timed::new(inner, clock)
        }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the layer and what the wrapper recorded.
    pub fn into_parts(self) -> (T, Tally) {
        (self.inner, self.tally)
    }

    fn time<R>(&mut self, layer: Layer, call: impl FnOnce(&mut T) -> R) -> R {
        let quantum = self.clock.quantum();
        let start = self.clock.now();
        let out = call(&mut self.inner);
        let end = self.clock.now();
        self.tally.spans.push(Span {
            layer,
            start,
            end,
            quantum,
        });
        out
    }

    fn cache_lookups(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| {
            let (hits, misses) = c.counters();
            hits + misses
        })
    }
}

impl<E: EnvSide> EnvSide for Timed<E> {
    fn step_frames(&mut self, frames: u64) {
        self.time(Layer::EnvStep, |env| env.step_frames(frames));
    }

    fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>> {
        self.time(Layer::EnvData, |env| env.handle_data(payload))
    }

    fn poll_data(&mut self) -> Vec<Vec<u8>> {
        self.time(Layer::EnvPoll, |env| env.poll_data())
    }
}

impl<R: RtlSide> RtlSide for Timed<R> {
    fn grant_and_run(&mut self, cycles: u64) {
        let before = self.cache_lookups();
        self.time(Layer::Grant, |rtl| rtl.grant_and_run(cycles));
        self.tally.cycles += cycles;
        if self.cache_lookups() != before {
            self.tally.cost_grants += 1;
        }
        // Drained here because nothing drains a server-side SoC; it is
        // handed on unchanged by `take_cost_model_wall` below.
        let wall = self.inner.take_cost_model_wall();
        self.cost_model_wall += wall;
        self.tally.cost_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    }

    fn push_data(&mut self, payload: Vec<u8>) {
        self.tally.packets += 1;
        self.tally.bytes += payload.len() as u64;
        self.time(Layer::Push, |rtl| rtl.push_data(payload));
    }

    fn drain_tx(&mut self) -> Vec<Vec<u8>> {
        let out = self.time(Layer::Drain, |rtl| rtl.drain_tx());
        self.tally.packets += out.len() as u64;
        self.tally.bytes += out.iter().map(|p| p.len() as u64).sum::<u64>();
        out
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn take_fault(&mut self) -> Option<TransportError> {
        self.inner.take_fault()
    }

    fn take_recovery_wall(&mut self) -> Duration {
        self.inner.take_recovery_wall()
    }

    fn take_cost_model_wall(&mut self) -> Duration {
        std::mem::take(&mut self.cost_model_wall) + self.inner.take_cost_model_wall()
    }
}

impl<T: Transport> Timed<T> {
    fn count<V>(&mut self, packet: Option<&Packet>, result: &Result<V, TransportError>) {
        match (result, packet) {
            (Err(_), _) => self.tally.errors += 1,
            (Ok(_), Some(p)) => {
                self.tally.packets += 1;
                self.tally.bytes += p.to_bytes().len() as u64;
            }
            (Ok(_), None) => {}
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        let result = self.time(Layer::Send, |t| t.send(packet));
        self.count(Some(packet), &result);
        result
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        let result = self.time(Layer::TryRecv, |t| t.try_recv());
        let packet = result.as_ref().ok().and_then(Option::as_ref).cloned();
        self.count(packet.as_ref(), &result);
        result
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        let result = self.time(Layer::Recv, |t| t.recv());
        let packet = result.as_ref().ok().cloned();
        self.count(packet.as_ref(), &result);
        result
    }

    fn reconnect(&mut self) -> Result<(), TransportError> {
        let result = self.time(Layer::Reconnect, |t| t.reconnect());
        self.count(None, &result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose::mission::{mission_parts, run_mission, MissionConfig};
    use rose_bridge::sync::{SyncMode, Synchronizer};

    /// A 1-s mission flown through the wrappers matches `run_mission`
    /// bit for bit, in both sync modes.
    #[test]
    fn wrappers_are_transparent() {
        for sync_mode in [SyncMode::Sequential, SyncMode::Parallel] {
            let cache = SharedTimingCache::in_memory();
            let config = MissionConfig {
                max_sim_seconds: 1.0,
                sync_mode,
                timing_cache: Some(cache.clone()),
                ..MissionConfig::default()
            };
            let plain = run_mission(&config);

            let clock = SpanClock::start();
            let (env, rtl, sync_config, _metrics) = mission_parts(&config);
            let mut sync = Synchronizer::new(
                sync_config,
                Timed::new(env, &clock),
                Timed::soc(rtl, &clock, Some(cache)),
            );
            let mut q = 0;
            while q < config.max_syncs()
                && !sync.rtl().halted()
                && !sync.env().inner().sim().mission_complete()
            {
                clock.set_quantum(q);
                sync.step_sync();
                q += 1;
            }
            let (env, rtl) = sync.into_parts();
            let (env, env_tally) = env.into_parts();
            let (rtl, rtl_tally) = rtl.into_parts();
            assert_eq!(
                env.sim().trajectory(),
                &plain.trajectory[..],
                "{sync_mode:?}"
            );
            assert_eq!(rtl.soc().stats(), plain.soc_stats, "{sync_mode:?}");
            assert_eq!(rtl_tally.cycles, plain.sync_stats.sim_cycles);
            let steps = env_tally
                .spans
                .iter()
                .filter(|s| s.layer == Layer::EnvStep)
                .count();
            assert_eq!(steps as u64, plain.sync_stats.syncs);
            assert!(rtl_tally.spans.iter().all(|s| s.end >= s.start));
        }
    }
}
