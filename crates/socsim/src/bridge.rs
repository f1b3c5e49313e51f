//! The RoSÉ BRIDGE hardware device.
//!
//! "The bridge itself consists of hardware queues that buffer data being
//! sent to and from the SoC, as well as a control unit that can throttle
//! the execution of the RTL simulation" (Section 3.2). The queues are
//! exposed to the target SoC as memory-mapped I/O registers on the system
//! bus (Figure 4); the control unit holds the cycle budget programmed by
//! synchronization packets (`set_firesim_steps` in Algorithm 1).
//!
//! [`RoseBridgeHw`] has two faces:
//!
//! * the **host side** (driven by the synchronizer's bridge driver):
//!   [`RoseBridgeHw::host_push_rx`], [`RoseBridgeHw::host_drain_tx`],
//!   [`RoseBridgeHw::grant_cycles`];
//! * the **target side** (driven by the simulated SoC through MMIO):
//!   [`RoseBridgeHw::target_try_recv`], [`RoseBridgeHw::target_send`].

use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Capacity defaults for the bridge hardware queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeHwConfig {
    /// Maximum buffered messages per direction.
    pub queue_depth: usize,
    /// Maximum bytes buffered per direction.
    pub queue_bytes: usize,
}

/// Counters exposed by the bridge for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BridgeHwStats {
    /// Messages delivered SoC-ward.
    pub rx_msgs: u64,
    /// Bytes delivered SoC-ward.
    pub rx_bytes: u64,
    /// Messages sent host-ward.
    pub tx_msgs: u64,
    /// Bytes sent host-ward.
    pub tx_bytes: u64,
}

/// The bridge hardware: two message queues plus the throttle budget.
#[derive(Debug, Clone, Default)]
pub struct RoseBridgeHw {
    config: BridgeHwConfig,
    rx: VecDeque<Vec<u8>>,
    tx: VecDeque<Vec<u8>>,
    /// Cycles the control unit currently allows the SoC to advance.
    budget: u64,
    stats: BridgeHwStats,
}

impl Default for BridgeHwConfig {
    fn default() -> BridgeHwConfig {
        BridgeHwConfig {
            queue_depth: 64,
            queue_bytes: 1 << 20,
        }
    }
}

impl RoseBridgeHw {
    /// Creates an empty bridge.
    pub fn new(config: BridgeHwConfig) -> RoseBridgeHw {
        RoseBridgeHw {
            config,
            ..RoseBridgeHw::default()
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> BridgeHwStats {
        self.stats
    }

    /// Remaining cycle budget granted by the control unit.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Serializes queue occupancy (both directions, message payloads
    /// included), the remaining throttle budget, and traffic counters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let RoseBridgeHw {
            config: _,
            rx,
            tx,
            budget,
            stats,
        } = self;
        w.seq(rx, |w, msg| w.bytes(msg));
        w.seq(tx, |w, msg| w.bytes(msg));
        w.u64(*budget);
        w.u64(stats.rx_msgs);
        w.u64(stats.rx_bytes);
        w.u64(stats.tx_msgs);
        w.u64(stats.tx_bytes);
    }

    /// Restores queue occupancy, budget, and counters.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rx = r.seq(SnapReader::bytes)?;
        self.tx = r.seq(SnapReader::bytes)?;
        self.budget = r.u64()?;
        self.stats.rx_msgs = r.u64()?;
        self.stats.rx_bytes = r.u64()?;
        self.stats.tx_msgs = r.u64()?;
        self.stats.tx_bytes = r.u64()?;
        Ok(())
    }

    // --- Host (bridge driver) side -------------------------------------

    /// Grants the SoC `cycles` additional cycles of execution (the
    /// synchronizer's `allocate_rtl_frames`).
    pub fn grant_cycles(&mut self, cycles: u64) {
        self.budget += cycles;
    }

    /// Consumes up to `cycles` from the budget, returning how many were
    /// actually available.
    pub fn consume_budget(&mut self, cycles: u64) -> u64 {
        let take = cycles.min(self.budget);
        self.budget -= take;
        take
    }

    /// Enqueues a data packet towards the SoC.
    ///
    /// Returns `false` if the queue is full. The message is then dropped:
    /// no layer keeps it to retry.
    pub fn host_push_rx(&mut self, msg: Vec<u8>) -> bool {
        if !self.has_room(&self.rx, msg.len()) {
            return false;
        }
        self.rx.push_back(msg);
        true
    }

    /// Drains every message the SoC has produced.
    pub fn host_drain_tx(&mut self) -> Vec<Vec<u8>> {
        self.tx.drain(..).collect()
    }

    /// True when `queue` can take one more message of `len` bytes. Summing
    /// the queue is cheap: it holds at most `queue_depth` messages.
    fn has_room(&self, queue: &VecDeque<Vec<u8>>, len: usize) -> bool {
        queue.len() < self.config.queue_depth
            && queue.iter().map(Vec::len).sum::<usize>() + len <= self.config.queue_bytes
    }

    // --- Target (SoC) side ----------------------------------------------

    /// Number of messages waiting for the SoC.
    pub fn target_rx_depth(&self) -> usize {
        self.rx.len()
    }

    /// Pops the next SoC-bound message, if any.
    pub fn target_try_recv(&mut self) -> Option<Vec<u8>> {
        let msg = self.rx.pop_front()?;
        self.stats.rx_msgs += 1;
        self.stats.rx_bytes += msg.len() as u64;
        Some(msg)
    }

    /// Pushes a host-bound message from the SoC.
    ///
    /// Returns `false` if the TX queue is full (the SoC must stall).
    pub fn target_send(&mut self, msg: Vec<u8>) -> bool {
        if !self.has_room(&self.tx, msg.len()) {
            return false;
        }
        self.stats.tx_msgs += 1;
        self.stats.tx_bytes += msg.len() as u64;
        self.tx.push_back(msg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_grant_and_consume() {
        let mut b = RoseBridgeHw::new(BridgeHwConfig::default());
        b.grant_cycles(100);
        assert_eq!(b.budget(), 100);
        assert_eq!(b.consume_budget(30), 30);
        assert_eq!(b.consume_budget(200), 70);
        assert_eq!(b.consume_budget(10), 0);
    }

    #[test]
    fn rx_roundtrip() {
        let mut b = RoseBridgeHw::new(BridgeHwConfig::default());
        assert!(b.host_push_rx(vec![1, 2, 3]));
        assert_eq!(b.target_rx_depth(), 1);
        assert_eq!(b.target_try_recv(), Some(vec![1, 2, 3]));
        assert_eq!(b.target_try_recv(), None);
        assert_eq!(b.stats().rx_msgs, 1);
        assert_eq!(b.stats().rx_bytes, 3);
    }

    #[test]
    fn tx_roundtrip() {
        let mut b = RoseBridgeHw::new(BridgeHwConfig::default());
        assert!(b.target_send(vec![9]));
        assert!(b.target_send(vec![8, 7]));
        assert_eq!(b.host_drain_tx(), vec![vec![9], vec![8, 7]]);
        assert!(b.host_drain_tx().is_empty());
        assert_eq!(b.stats().tx_msgs, 2);
    }

    #[test]
    fn queue_depth_limit() {
        let mut b = RoseBridgeHw::new(BridgeHwConfig {
            queue_depth: 2,
            queue_bytes: 1024,
        });
        assert!(b.host_push_rx(vec![0]));
        assert!(b.host_push_rx(vec![0]));
        assert!(!b.host_push_rx(vec![0]), "third push should backpressure");
        b.target_try_recv();
        assert!(b.host_push_rx(vec![0]), "space after pop");
    }

    #[test]
    fn queue_byte_limit() {
        let mut b = RoseBridgeHw::new(BridgeHwConfig {
            queue_depth: 100,
            queue_bytes: 10,
        });
        assert!(b.target_send(vec![0; 8]));
        assert!(!b.target_send(vec![0; 8]));
        b.host_drain_tx();
        assert!(b.target_send(vec![0; 8]));
        // The SoC-bound queue frees its bytes as the SoC pops them.
        assert!(b.host_push_rx(vec![0; 8]));
        assert!(!b.host_push_rx(vec![0; 3]));
        assert!(b.host_push_rx(vec![0; 2]));
        b.target_try_recv();
        assert!(b.host_push_rx(vec![0; 8]));
    }
}
