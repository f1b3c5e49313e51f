//! A first-order SoC energy model.
//!
//! The paper motivates robotics SoCs by power efficiency (a fruit fly's
//! 120 nW against milliwatt-scale accelerators, §1) and argues that a
//! lower accelerator activity factor "frees system resources for other
//! applications and reduces energy consumption" (§5.3). This module makes
//! that claim measurable: event-count energy (per instruction, per MAC,
//! per DRAM byte) plus leakage integrated over mission time, in the style
//! of Wattch/McPAT-class architectural power models.
//!
//! Coefficients are representative of a 16 nm embedded SoC at 1 GHz and
//! are configuration knobs, not measurements; the reproduction targets
//! *relative* energy between configurations.

use crate::config::SocConfig;
use crate::soc::SocStats;
use crate::CoreKind;

/// Energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Core energy per dynamic instruction (pJ) — set per core kind.
    pub core_pj_per_instr: f64,
    /// Core leakage + clock power while powered (mW).
    pub core_static_mw: f64,
    /// Accelerator energy per MAC (pJ).
    pub accel_pj_per_mac: f64,
    /// Accelerator leakage while powered (mW).
    pub accel_static_mw: f64,
    /// DRAM + bus energy per byte moved (pJ).
    pub dram_pj_per_byte: f64,
    /// Rest-of-SoC static power (mW).
    pub soc_static_mw: f64,
}

impl EnergyModel {
    /// Coefficients for a core kind: the out-of-order core spends several
    /// times more energy per instruction (rename/issue/window overheads).
    pub fn for_config(config: &SocConfig) -> EnergyModel {
        let (core_pj, core_static) = match config.core {
            CoreKind::Rocket => (18.0, 12.0),
            CoreKind::Boom => (95.0, 55.0),
        };
        EnergyModel {
            core_pj_per_instr: core_pj,
            core_static_mw: core_static,
            accel_pj_per_mac: 1.6,
            accel_static_mw: if config.has_accelerator() { 18.0 } else { 0.0 },
            dram_pj_per_byte: 22.0,
            soc_static_mw: 40.0,
        }
    }
}

/// Energy broken down by component, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// CPU dynamic energy.
    pub core_mj: f64,
    /// Accelerator dynamic energy.
    pub accel_mj: f64,
    /// DRAM/bus transfer energy.
    pub dram_mj: f64,
    /// Leakage and clocking over the mission.
    pub static_mj: f64,
    /// Mission duration in seconds (on the SoC clock).
    pub seconds: f64,
}

impl EnergyReport {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.core_mj + self.accel_mj + self.dram_mj + self.static_mj
    }

    /// Average power draw in milliwatts.
    pub fn average_mw(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.total_mj() / self.seconds // mJ/s = mW
        }
    }
}

/// Computes the energy of an execution from its statistics.
pub fn energy_of(stats: &SocStats, config: &SocConfig) -> EnergyReport {
    let model = EnergyModel::for_config(config);
    let seconds = stats.cycles as f64 / config.clock.hz() as f64;
    // Bridge traffic is tiny next to kernel traffic; DMA bytes are folded
    // into the instruction/MAC counts' cache traffic via the L2 miss count.
    let dram_bytes =
        (stats.l2.misses + stats.l2.writebacks) as f64 * 64.0 + stats.accel_macs as f64 * 0.15; // amortized operand re-fetch per MAC
    EnergyReport {
        core_mj: stats.cpu.instrs as f64 * model.core_pj_per_instr * 1e-9,
        accel_mj: stats.accel_macs as f64 * model.accel_pj_per_mac * 1e-9,
        dram_mj: dram_bytes * model.dram_pj_per_byte * 1e-9,
        static_mj: (model.core_static_mw + model.accel_static_mw + model.soc_static_mw) * seconds,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuStats;
    use crate::mem::CacheStats;
    use crate::SocConfig;

    fn stats(cycles: u64, instrs: u64, macs: u64) -> SocStats {
        SocStats {
            cycles,
            idle_cycles: 0,
            accel_cycles: 0,
            accel_macs: macs,
            cpu: CpuStats {
                instrs,
                cycles,
                mispredicts: 0,
            },
            l1: CacheStats::default(),
            l2: CacheStats {
                hits: 0,
                misses: 1000,
                writebacks: 100,
            },
            bridge: Default::default(),
        }
    }

    #[test]
    fn components_add_up() {
        let config = SocConfig::config_a();
        let r = energy_of(&stats(1_000_000_000, 500_000_000, 1_000_000_000), &config);
        assert!(r.core_mj > 0.0 && r.accel_mj > 0.0 && r.dram_mj > 0.0);
        let sum = r.core_mj + r.accel_mj + r.dram_mj + r.static_mj;
        assert!((r.total_mj() - sum).abs() < 1e-12);
        assert!((r.seconds - 1.0).abs() < 1e-12);
        // Average power in a plausible embedded range (tens to hundreds
        // of mW).
        assert!(
            (50.0..2000.0).contains(&r.average_mw()),
            "power {} mW",
            r.average_mw()
        );
    }

    #[test]
    fn boom_costs_more_per_instruction_than_rocket() {
        let s = stats(1_000_000_000, 800_000_000, 0);
        let boom = energy_of(&s, &SocConfig::config_a());
        let rocket = energy_of(&s, &SocConfig::config_b());
        assert!(boom.core_mj > 3.0 * rocket.core_mj);
    }

    #[test]
    fn accelerator_less_soc_skips_accel_leakage() {
        let s = stats(1_000_000_000, 800_000_000, 0);
        let with = energy_of(&s, &SocConfig::config_a());
        let without = energy_of(&s, &SocConfig::config_c());
        assert!(with.static_mj > without.static_mj);
    }

    #[test]
    fn zero_time_means_zero_power() {
        let r = energy_of(&stats(0, 0, 0), &SocConfig::config_a());
        assert_eq!(r.average_mw(), 0.0);
    }
}
