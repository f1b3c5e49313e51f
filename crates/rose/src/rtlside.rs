//! The RTL endpoint: the simulated SoC behind the RoSÉ bridge.

use rose_bridge::sync::RtlSide;
use rose_socsim::Soc;

/// Wraps a [`Soc`] as the synchronizer's RTL endpoint.
///
/// Grants flow into the bridge control unit; data packets flow through the
/// bridge hardware queues exactly as the bridge driver does in FireSim.
#[derive(Debug)]
pub struct SocRtl {
    soc: Soc,
}

impl SocRtl {
    /// Wraps an SoC.
    pub fn new(soc: Soc) -> SocRtl {
        SocRtl { soc }
    }

    /// The wrapped SoC.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Unwraps the SoC.
    pub fn into_soc(self) -> Soc {
        self.soc
    }

    /// Serializes the endpoint (the wrapped SoC; the wrapper itself holds
    /// no state of its own).
    pub fn save_state(&self, w: &mut rose_sim_core::snap::SnapWriter) {
        let SocRtl { soc } = self;
        soc.save_state(w);
    }

    /// Restores the endpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`rose_sim_core::snap::SnapError`] on a malformed
    /// snapshot.
    pub fn restore_state(
        &mut self,
        r: &mut rose_sim_core::snap::SnapReader<'_>,
    ) -> Result<(), rose_sim_core::snap::SnapError> {
        self.soc.restore_state(r)
    }
}

impl RtlSide for SocRtl {
    fn grant_and_run(&mut self, cycles: u64) {
        self.soc.bridge_mut().grant_cycles(cycles);
        self.soc.run_granted();
    }

    fn push_data(&mut self, payload: Vec<u8>) {
        // Backpressure: a full queue drops the push; the synchronizer's
        // next period will retry via the environment's response path. In
        // practice the queues are sized far above the application's needs.
        let _ = self.soc.bridge_mut().host_push_rx(payload);
    }

    fn drain_tx(&mut self) -> Vec<Vec<u8>> {
        self.soc.bridge_mut().host_drain_tx()
    }

    fn halted(&self) -> bool {
        self.soc.halted()
    }

    fn take_cost_model_wall(&mut self) -> std::time::Duration {
        self.soc.take_cost_model_wall()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_bridge::sync::RtlSide;
    use rose_socsim::program::ScriptedProgram;
    use rose_socsim::{SocConfig, TargetOp};

    #[test]
    fn grants_advance_the_soc() {
        let program = ScriptedProgram::new(vec![TargetOp::Sleep(100), TargetOp::Send(vec![5])]);
        let mut rtl = SocRtl::new(Soc::new(SocConfig::config_a(), Box::new(program)));
        assert!(rtl.drain_tx().is_empty());
        rtl.grant_and_run(1_000_000);
        assert_eq!(rtl.soc().now(), 1_000_000);
        assert_eq!(rtl.drain_tx(), vec![vec![5]]);
        assert!(rtl.halted());
    }

    #[test]
    fn pushed_data_reaches_the_program() {
        let program = ScriptedProgram::new(vec![TargetOp::Recv, TargetOp::Send(vec![1])]);
        let mut rtl = SocRtl::new(Soc::new(SocConfig::config_a(), Box::new(program)));
        rtl.grant_and_run(10_000); // blocks on empty RX
        assert!(rtl.drain_tx().is_empty());
        rtl.push_data(vec![42]);
        rtl.grant_and_run(100_000);
        assert_eq!(rtl.drain_tx(), vec![vec![1]]);
    }
}
