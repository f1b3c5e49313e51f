//! Deterministic fault injection for packet transports.
//!
//! A [`FaultPlan`] schedules fault events against the quantum timeline
//! (the count of `GrantCycles` packets that have crossed the wrapper — a
//! pure function of simulated progress, never of wall time), and a
//! [`FaultyTransport`] decorator injects them into any [`Transport`].
//! Every choice the injector makes flows from the plan and its seeded
//! [`SimRng`], so the same plan over the same traffic produces the same
//! faults byte-for-byte — missions under fault injection stay replayable
//! (DESIGN.md §4h).
//!
//! Two fault families exist, matching how real deployments fail:
//!
//! * **Silent data faults** ([`FaultKind::Drop`], [`FaultKind::Duplicate`],
//!   [`FaultKind::Reorder`], [`FaultKind::Corrupt`]) perturb only
//!   [`Packet::Data`] payloads on the send path. Synchronization packets
//!   are never silently dropped — swallowing a `GrantCycles` or
//!   `CyclesDone` would deadlock the blocking completion wait rather than
//!   model a lossy link. These faults are absorbed by the application
//!   layers (sequence-number dedupe, request timeouts, sensor fallback).
//! * **Connection faults** ([`FaultKind::Stall`],
//!   [`FaultKind::Disconnect`]) surface as [`TransportError`]s and
//!   exercise the synchronizer's retry/reconnect/resync recovery
//!   machinery. Both are bounded in *operations*, not wall time, so a
//!   sufficiently patient [`RecoveryPolicy`](crate::sync::RecoveryPolicy)
//!   always outlasts them.

use crate::packet::Packet;
use crate::transport::{Transport, TransportError};
use rose_sim_core::rng::SimRng;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use rose_trace::TraceEvent;
use std::io;
use std::time::Duration;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently swallow the next outbound data packet.
    Drop,
    /// Send the next outbound data packet twice (same sequence number —
    /// the receiver's dedupe must discard the copy).
    Duplicate,
    /// Hold the next outbound data packet and release it after the one
    /// that follows (a bounded, single-packet reorder). The hold flushes
    /// before any synchronization packet so framing is preserved.
    Reorder,
    /// Flip one deterministically chosen byte of the next outbound data
    /// payload (exercises the receiver's decode-error tolerance).
    Corrupt,
    /// The next `ops` receive operations fail with a timed-out I/O error
    /// (a latency spike: the link is alive but unresponsive).
    Stall {
        /// Receive operations that will time out.
        ops: u32,
    },
    /// The next `ops` transport operations (send, receive, or reconnect)
    /// fail with [`TransportError::Disconnected`], then the link heals.
    Disconnect {
        /// Operations that will fail before the link recovers.
        ops: u32,
    },
}

impl FaultKind {
    fn tag(self) -> u8 {
        match self {
            FaultKind::Drop => 0,
            FaultKind::Duplicate => 1,
            FaultKind::Reorder => 2,
            FaultKind::Corrupt => 3,
            FaultKind::Stall { .. } => 4,
            FaultKind::Disconnect { .. } => 5,
        }
    }

    fn ops(self) -> u32 {
        match self {
            FaultKind::Stall { ops } | FaultKind::Disconnect { ops } => ops,
            _ => 0,
        }
    }

    fn from_parts(tag: u8, ops: u32) -> Result<FaultKind, SnapError> {
        Ok(match tag {
            0 => FaultKind::Drop,
            1 => FaultKind::Duplicate,
            2 => FaultKind::Reorder,
            3 => FaultKind::Corrupt,
            4 => FaultKind::Stall { ops },
            5 => FaultKind::Disconnect { ops },
            t => {
                return Err(SnapError::BadTag {
                    context: "fault kind",
                    tag: t,
                })
            }
        })
    }

    /// A short static label (postmortems, reproducer dumps).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Disconnect { .. } => "disconnect",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The quantum index at which the fault arms: the event fires on the
    /// first transport operation after `at_quantum` cycle grants have
    /// crossed the wrapper.
    pub at_quantum: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// A seeded, sim-time-scheduled fault schedule.
///
/// Plans are data: construct one, hand it to
/// [`FaultyTransport::new`], and the same plan injects the same faults on
/// every run. Events are kept sorted by `at_quantum` (stable for ties) so
/// the arming order is part of the plan's identity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan with the given corruption-choice seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one event (builder style). Events may be added in any order;
    /// the plan keeps them sorted by quantum.
    #[must_use]
    pub fn with_event(mut self, at_quantum: u64, kind: FaultKind) -> FaultPlan {
        self.push(at_quantum, kind);
        self
    }

    /// Adds one event in place.
    pub fn push(&mut self, at_quantum: u64, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at_quantum <= at_quantum);
        self.events.insert(idx, FaultEvent { at_quantum, kind });
    }

    /// The schedule, sorted by quantum.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The seed for the injector's deterministic choices.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan schedules nothing — the wrapper then passes
    /// every operation straight through.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a random schedule of `count` events over quanta
    /// `[0, max_quantum)`, derived entirely from `seed` (the chaos-mission
    /// generator). Connection faults get small bounded windows so any
    /// reasonable recovery policy can outlast them.
    pub fn random(seed: u64, max_quantum: u64, count: usize) -> FaultPlan {
        let mut rng = SimRng::new(seed).split("fault-plan");
        let mut plan = FaultPlan::new(seed);
        for _ in 0..count {
            let at_quantum = rng.below(max_quantum.max(1));
            let kind = match rng.below(6) {
                0 => FaultKind::Drop,
                1 => FaultKind::Duplicate,
                2 => FaultKind::Reorder,
                3 => FaultKind::Corrupt,
                4 => FaultKind::Stall {
                    // rose-lint: allow(CAST001, below(3) fits in u32)
                    ops: 1 + rng.below(3) as u32,
                },
                _ => FaultKind::Disconnect {
                    // rose-lint: allow(CAST001, below(4) fits in u32)
                    ops: 1 + rng.below(4) as u32,
                },
            };
            plan.push(at_quantum, kind);
        }
        plan
    }

    /// Serializes the schedule itself (chaos-mission reproducer dumps).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.seed);
        w.seq(&self.events, |w, e| {
            w.u64(e.at_quantum);
            w.u8(e.kind.tag());
            w.u32(e.kind.ops());
        });
    }

    /// Deserializes a schedule written by [`save_state`](FaultPlan::save_state).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on truncation or an unknown fault tag.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<FaultPlan, SnapError> {
        let seed = r.u64()?;
        let mut events: Vec<FaultEvent> = r.seq(|r| {
            let at_quantum = r.u64()?;
            let tag = r.u8()?;
            let kind = FaultKind::from_parts(tag, r.u32()?)?;
            Ok(FaultEvent { at_quantum, kind })
        })?;
        // Stable, so same-quantum events keep their order, as `push` does.
        events.sort_by_key(|e| e.at_quantum);
        Ok(FaultPlan { seed, events })
    }
}

/// Per-kind injection counters — deterministic (they follow the plan), so
/// they can be asserted across runs of the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Data packets silently swallowed.
    pub dropped: u64,
    /// Data packets sent twice.
    pub duplicated: u64,
    /// Data packet pairs swapped.
    pub reordered: u64,
    /// Data payloads with a flipped byte.
    pub corrupted: u64,
    /// Receive operations failed with a timeout.
    pub stalled_ops: u64,
    /// Operations failed with a disconnect.
    pub disconnected_ops: u64,
}

impl FaultStats {
    /// Total injected perturbations across every kind.
    pub fn total(&self) -> u64 {
        let FaultStats {
            dropped,
            duplicated,
            reordered,
            corrupted,
            stalled_ops,
            disconnected_ops,
        } = self;
        dropped + duplicated + reordered + corrupted + stalled_ops + disconnected_ops
    }
}

/// A [`Transport`] decorator that injects the faults a [`FaultPlan`]
/// schedules, deterministically.
///
/// Wrap the *synchronizer's* transport: silent data faults apply to the
/// send direction (environment → SoC sensor traffic), connection faults
/// to every operation. The server side stays pristine — it only needs the
/// resync protocol, not an injector of its own.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    /// Next plan event not yet armed.
    cursor: usize,
    rng: SimRng,
    /// `GrantCycles` packets that have crossed the wrapper.
    quantum: u64,
    /// Armed silent faults (counts; multiple events may stack).
    drop_data: u32,
    dup_data: u32,
    corrupt_data: u32,
    reorder_data: u32,
    /// A data packet held back by an armed reorder.
    held: Option<Packet>,
    /// Remaining receive operations that fail with a timeout.
    stall_ops: u32,
    /// Remaining operations that fail with a disconnect.
    fail_ops: u32,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        let rng = SimRng::new(plan.seed()).split("fault-inject");
        FaultyTransport {
            inner,
            plan,
            cursor: 0,
            rng,
            quantum: 0,
            drop_data: 0,
            dup_data: 0,
            corrupt_data: 0,
            reorder_data: 0,
            held: None,
            stall_ops: 0,
            fail_ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The schedule driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Quanta observed so far (grants sent through the wrapper).
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Arms every plan event whose quantum has been reached.
    fn arm(&mut self) {
        while self.cursor < self.plan.events.len()
            && self.plan.events[self.cursor].at_quantum <= self.quantum
        {
            match self.plan.events[self.cursor].kind {
                FaultKind::Drop => self.drop_data += 1,
                FaultKind::Duplicate => self.dup_data += 1,
                FaultKind::Reorder => self.reorder_data += 1,
                FaultKind::Corrupt => self.corrupt_data += 1,
                FaultKind::Stall { ops } => self.stall_ops += ops,
                FaultKind::Disconnect { ops } => self.fail_ops += ops,
            }
            self.cursor += 1;
        }
    }

    /// Consumes one operation from the disconnect window, if open.
    fn disconnect_op(&mut self) -> Result<(), TransportError> {
        if self.fail_ops > 0 {
            self.fail_ops -= 1;
            self.stats.disconnected_ops += 1;
            return Err(TransportError::Disconnected);
        }
        Ok(())
    }

    /// Consumes one receive from the stall window, if open: the receive
    /// times out.
    fn stall_op(&mut self) -> Result<(), TransportError> {
        if self.stall_ops > 0 {
            self.stall_ops -= 1;
            self.stats.stalled_ops += 1;
            return Err(TransportError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected stall",
            )));
        }
        Ok(())
    }

    /// Sends any held (reordered) packet before a packet that must not
    /// overtake data.
    fn flush_held(&mut self) -> Result<(), TransportError> {
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        Ok(())
    }

    /// Applies armed silent faults to one outbound data packet. Returns
    /// `Ok(None)` when the packet was swallowed or held.
    fn filter_data(&mut self, packet: &Packet) -> Result<Option<Packet>, TransportError> {
        let Packet::Data { seq, payload } = packet else {
            return Ok(Some(packet.clone()));
        };
        if self.drop_data > 0 {
            self.drop_data -= 1;
            self.stats.dropped += 1;
            return Ok(None);
        }
        let mut out = Packet::Data {
            seq: *seq,
            payload: payload.clone(),
        };
        if self.corrupt_data > 0 {
            self.corrupt_data -= 1;
            if let Packet::Data { payload, .. } = &mut out {
                if !payload.is_empty() {
                    // rose-lint: allow(CAST001, below(len) is bounded by the payload length and fits usize)
                    let idx = self.rng.below(payload.len() as u64) as usize;
                    // rose-lint: allow(CAST001, deliberate truncation into a byte-flip mask)
                    let mask = (self.rng.next_u64() as u8) | 1;
                    payload[idx] ^= mask;
                    self.stats.corrupted += 1;
                }
            }
        }
        if self.dup_data > 0 {
            self.dup_data -= 1;
            self.stats.duplicated += 1;
            self.inner.send(&out)?;
        }
        if self.reorder_data > 0 {
            if let Some(earlier) = self.held.take() {
                // Partner arrived: emit the newer packet first, then the
                // held one — a single bounded swap.
                self.reorder_data -= 1;
                self.stats.reordered += 1;
                self.inner.send(&out)?;
                self.inner.send(&earlier)?;
                return Ok(None);
            }
            self.held = Some(out);
            return Ok(None);
        }
        Ok(Some(out))
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        self.arm();
        self.disconnect_op()?;
        match packet {
            Packet::Data { .. } => {
                if let Some(out) = self.filter_data(packet)? {
                    self.inner.send(&out)?;
                }
                Ok(())
            }
            sync_packet => {
                // Data must not overtake synchronization packets: flush any
                // held reorder before the boundary crosses.
                self.flush_held()?;
                self.inner.send(sync_packet)?;
                if matches!(sync_packet, Packet::GrantCycles { .. }) {
                    self.quantum += 1;
                }
                Ok(())
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        self.arm();
        self.disconnect_op()?;
        self.stall_op()?;
        self.inner.try_recv()
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        self.arm();
        self.disconnect_op()?;
        self.stall_op()?;
        self.inner.recv()
    }

    fn reconnect(&mut self) -> Result<(), TransportError> {
        self.arm();
        self.disconnect_op()?;
        self.inner.reconnect()
    }

    /// Forwarded untouched: it is bookkeeping, not an operation that can
    /// be faulted.
    fn take_cost_model_wall(&mut self) -> Duration {
        self.inner.take_cost_model_wall()
    }

    /// Forwarded untouched, like the cost-model wall.
    fn recent_events(&self) -> &[TraceEvent] {
        self.inner.recent_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;

    fn data(seq: u32, byte: u8) -> Packet {
        Packet::Data {
            seq,
            payload: vec![byte; 4],
        }
    }

    fn grant(quantum: u64) -> Packet {
        Packet::GrantCycles {
            cycles: 10,
            quantum,
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (a, mut b) = ChannelTransport::pair();
        let mut faulty = FaultyTransport::new(a, FaultPlan::new(1));
        faulty.send(&data(0, 1)).unwrap();
        faulty.send(&grant(0)).unwrap();
        assert_eq!(b.recv().unwrap(), data(0, 1));
        assert_eq!(b.recv().unwrap(), grant(0));
        b.send(&Packet::CyclesDone {
            cycles: 10,
            quantum: 0,
        })
        .unwrap();
        assert!(matches!(faulty.recv().unwrap(), Packet::CyclesDone { .. }));
        assert_eq!(faulty.stats().total(), 0);
        assert_eq!(faulty.quantum(), 1);
    }

    #[test]
    fn drop_swallows_only_data() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(2).with_event(0, FaultKind::Drop);
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(&data(0, 1)).unwrap(); // swallowed
        faulty.send(&data(1, 2)).unwrap(); // passes
        faulty.send(&grant(0)).unwrap(); // sync never dropped
        assert_eq!(b.recv().unwrap(), data(1, 2));
        assert_eq!(b.recv().unwrap(), grant(0));
        assert_eq!(faulty.stats().dropped, 1);
    }

    #[test]
    fn duplicate_sends_twice_with_same_seq() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(3).with_event(0, FaultKind::Duplicate);
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(&data(5, 9)).unwrap();
        assert_eq!(b.recv().unwrap(), data(5, 9));
        assert_eq!(b.recv().unwrap(), data(5, 9));
        assert_eq!(faulty.stats().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_data_and_flushes_before_sync() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(4).with_event(0, FaultKind::Reorder);
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(&data(0, 1)).unwrap(); // held
        faulty.send(&data(1, 2)).unwrap(); // emits 1 then 0
        assert_eq!(b.recv().unwrap(), data(1, 2));
        assert_eq!(b.recv().unwrap(), data(0, 1));
        assert_eq!(faulty.stats().reordered, 1);

        // A hold with no partner flushes before the next sync packet.
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(4).with_event(0, FaultKind::Reorder);
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(&data(0, 1)).unwrap(); // held
        faulty.send(&grant(0)).unwrap();
        assert_eq!(b.recv().unwrap(), data(0, 1));
        assert_eq!(b.recv().unwrap(), grant(0));
    }

    #[test]
    fn corrupt_flips_exactly_one_byte() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(5).with_event(0, FaultKind::Corrupt);
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(&data(0, 0x55)).unwrap();
        let got = b.recv().unwrap();
        let Packet::Data { seq, payload } = got else {
            panic!("expected data");
        };
        assert_eq!(seq, 0, "corruption must not touch the sequence number");
        let clean = vec![0x55u8; 4];
        let diffs = payload.iter().zip(&clean).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte flipped");
        assert_eq!(faulty.stats().corrupted, 1);
    }

    #[test]
    fn disconnect_window_is_bounded_in_operations() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(6).with_event(0, FaultKind::Disconnect { ops: 3 });
        let mut faulty = FaultyTransport::new(a, plan);
        for _ in 0..3 {
            assert!(matches!(
                faulty.send(&grant(0)),
                Err(TransportError::Disconnected)
            ));
        }
        // Window exhausted: the link heals.
        faulty.reconnect().unwrap();
        faulty.send(&grant(0)).unwrap();
        assert_eq!(b.recv().unwrap(), grant(0));
        assert_eq!(faulty.stats().disconnected_ops, 3);
    }

    #[test]
    fn stall_times_out_recvs_then_recovers() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(7).with_event(0, FaultKind::Stall { ops: 2 });
        let mut faulty = FaultyTransport::new(a, plan);
        b.send(&Packet::Shutdown).unwrap();
        for _ in 0..2 {
            match faulty.recv() {
                Err(TransportError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut)
                }
                other => panic!("expected stall, got {other:?}"),
            }
        }
        assert_eq!(faulty.recv().unwrap(), Packet::Shutdown);
        assert_eq!(faulty.stats().stalled_ops, 2);
    }

    #[test]
    fn events_arm_at_their_quantum() {
        let (a, mut b) = ChannelTransport::pair();
        let plan = FaultPlan::new(8).with_event(2, FaultKind::Drop);
        let mut faulty = FaultyTransport::new(a, plan);
        // Quanta 0 and 1: data passes untouched.
        faulty.send(&data(0, 1)).unwrap();
        faulty.send(&grant(0)).unwrap();
        faulty.send(&data(1, 2)).unwrap();
        faulty.send(&grant(1)).unwrap();
        // Quantum 2: the drop arms.
        faulty.send(&data(2, 3)).unwrap();
        faulty.send(&grant(2)).unwrap();
        assert_eq!(b.recv().unwrap(), data(0, 1));
        assert_eq!(b.recv().unwrap(), grant(0));
        assert_eq!(b.recv().unwrap(), data(1, 2));
        assert_eq!(b.recv().unwrap(), grant(1));
        assert_eq!(b.recv().unwrap(), grant(2), "quantum-2 data was dropped");
    }

    #[test]
    fn injection_is_deterministic_across_runs() {
        fn run() -> (Vec<Packet>, FaultStats) {
            let (a, mut b) = ChannelTransport::pair();
            let plan = FaultPlan::random(0xC0FFEE, 8, 6);
            let mut faulty = FaultyTransport::new(a, plan);
            let mut delivered = Vec::new();
            for q in 0..8u64 {
                for i in 0..3u32 {
                    // rose-lint: allow(CAST001, test sequence arithmetic)
                    let _ = faulty.send(&data(q as u32 * 3 + i, i as u8));
                }
                let _ = faulty.send(&grant(q));
                let _ = faulty.reconnect();
                while let Ok(Some(p)) = b.try_recv() {
                    delivered.push(p);
                }
            }
            (delivered, *faulty.stats())
        }
        let (d1, s1) = run();
        let (d2, s2) = run();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(s1.total() > 0, "the random plan must actually inject");
    }

    #[test]
    fn plan_serialization_roundtrips_every_kind() {
        let plan = FaultPlan::new(77)
            .with_event(0, FaultKind::Drop)
            .with_event(1, FaultKind::Duplicate)
            .with_event(2, FaultKind::Reorder)
            .with_event(3, FaultKind::Corrupt)
            .with_event(4, FaultKind::Stall { ops: 2 })
            .with_event(5, FaultKind::Disconnect { ops: 7 });
        let mut w = SnapWriter::new();
        plan.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = FaultPlan::restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn random_plans_are_sorted_and_seed_stable() {
        let p1 = FaultPlan::random(42, 100, 20);
        let p2 = FaultPlan::random(42, 100, 20);
        assert_eq!(p1, p2);
        assert!(p1
            .events()
            .windows(2)
            .all(|w| w[0].at_quantum <= w[1].at_quantum));
        assert_ne!(p1, FaultPlan::random(43, 100, 20));
    }
}
