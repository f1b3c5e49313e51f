//! SoC configurations, mirroring Chipyard generator configs.
//!
//! Table 2 of the paper evaluates three hardware configurations:
//!
//! | Configuration | A           | B       | C           |
//! |---------------|-------------|---------|-------------|
//! | CPU           | 3-wide BOOM | Rocket  | 3-wide BOOM |
//! | Accelerator   | Gemmini     | Gemmini | None        |
//!
//! [`SocConfig::config_a`] / [`SocConfig::config_b`] / [`SocConfig::config_c`]
//! reproduce them. Gemmini is configured as in Section 4.2.1: a 4×4 FP32
//! mesh (matching the 128-bit maximum memory bus width), weight-stationary
//! dataflow, 256 KiB scratchpad, 64 KiB accumulator.

use crate::cpu::CpuConfig;
use crate::gemmini::GemminiConfig;
use crate::mem::MemConfig;
use rose_sim_core::cycles::ClockSpec;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which CPU core generator instantiates the companion-computer core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreKind {
    /// 5-stage in-order scalar core (Rocket-class).
    Rocket,
    /// 3-wide superscalar out-of-order core (SonicBOOM-class).
    Boom,
}

rose_sim_core::snap_tag!(CoreKind { Rocket = 0, Boom = 1 });

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreKind::Rocket => write!(f, "Rocket"),
            CoreKind::Boom => write!(f, "BOOM"),
        }
    }
}

/// A full SoC configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocConfig {
    /// Human-readable configuration name ("A", "B", "C", or custom).
    pub name: String,
    /// Core generator selection.
    pub core: CoreKind,
    /// Accelerator configuration, or `None` for a CPU-only SoC.
    pub gemmini: Option<GemminiConfig>,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Target clock frequency.
    pub clock: ClockSpec,
}

impl SocConfig {
    /// Table 2 configuration A: 3-wide BOOM + Gemmini.
    pub fn config_a() -> SocConfig {
        SocConfig {
            name: "A".to_string(),
            core: CoreKind::Boom,
            gemmini: Some(GemminiConfig::default()),
            mem: MemConfig::default(),
            clock: ClockSpec::default(),
        }
    }

    /// Table 2 configuration B: Rocket + Gemmini.
    pub fn config_b() -> SocConfig {
        SocConfig {
            name: "B".to_string(),
            core: CoreKind::Rocket,
            ..SocConfig::config_a()
        }
    }

    /// Table 2 configuration C: 3-wide BOOM, no accelerator.
    pub fn config_c() -> SocConfig {
        SocConfig {
            name: "C".to_string(),
            gemmini: None,
            ..SocConfig::config_a()
        }
    }

    /// Returns a copy with a square systolic mesh of the given dimension
    /// (pre-silicon accelerator design-space exploration).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the SoC has no accelerator.
    pub fn with_mesh(&self, dim: usize) -> SocConfig {
        assert!(dim > 0, "mesh dimension must be nonzero");
        let mut config = self.clone();
        let gemmini = config
            .gemmini
            .as_mut()
            .expect("with_mesh on an accelerator-less SoC");
        gemmini.mesh_rows = dim;
        gemmini.mesh_cols = dim;
        config.name = format!("{}-mesh{dim}", self.name);
        config
    }

    /// Returns a copy with a different scratchpad capacity (bytes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or the SoC has no accelerator.
    pub fn with_scratchpad(&self, bytes: usize) -> SocConfig {
        assert!(bytes > 0, "scratchpad must be nonzero");
        let mut config = self.clone();
        let gemmini = config
            .gemmini
            .as_mut()
            .expect("with_scratchpad on an accelerator-less SoC");
        gemmini.scratchpad_bytes = bytes;
        config.name = format!("{}-spad{}k", self.name, bytes / 1024);
        config
    }

    /// The CPU timing-model parameters implied by the core kind.
    pub fn cpu_config(&self) -> CpuConfig {
        match self.core {
            CoreKind::Rocket => CpuConfig::rocket(),
            CoreKind::Boom => CpuConfig::boom(),
        }
    }

    /// True if this SoC carries a DNN accelerator.
    pub fn has_accelerator(&self) -> bool {
        self.gemmini.is_some()
    }

    /// Serializes the full configuration.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let SocConfig {
            name,
            core,
            gemmini,
            mem,
            clock,
        } = self;
        w.str(name);
        w.tag(core);
        w.opt(gemmini.as_ref(), |w, g| g.save_state(w));
        mem.save_state(w);
        w.u64(clock.hz());
    }

    /// Restores a configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot; a zero clock
    /// frequency is rejected as [`SnapError::BadTag`].
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<SocConfig, SnapError> {
        let name = r.string()?;
        let core = r.tag()?;
        let gemmini = r.opt(GemminiConfig::restore_state)?;
        let mem = MemConfig::restore_state(r)?;
        let hz = r.u64()?;
        if hz == 0 {
            return Err(SnapError::BadTag {
                context: "SocConfig.clock hz",
                tag: 0,
            });
        }
        Ok(SocConfig {
            name,
            core,
            gemmini,
            mem,
            clock: ClockSpec::from_hz(hz),
        })
    }
}

impl fmt::Display for SocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.gemmini {
            Some(_) => write!(f, "{} ({}+Gemmini)", self.name, self.core),
            None => write!(f, "{} ({} only)", self.name, self.core),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_configs() {
        let a = SocConfig::config_a();
        assert_eq!(a.core, CoreKind::Boom);
        assert!(a.has_accelerator());

        let b = SocConfig::config_b();
        assert_eq!(b.core, CoreKind::Rocket);
        assert!(b.has_accelerator());

        let c = SocConfig::config_c();
        assert_eq!(c.core, CoreKind::Boom);
        assert!(!c.has_accelerator());
    }

    #[test]
    fn display_names() {
        assert_eq!(SocConfig::config_a().to_string(), "A (BOOM+Gemmini)");
        assert_eq!(SocConfig::config_b().to_string(), "B (Rocket+Gemmini)");
        assert_eq!(SocConfig::config_c().to_string(), "C (BOOM only)");
    }

    #[test]
    fn default_clock_is_1ghz() {
        assert_eq!(SocConfig::config_a().clock.hz(), 1_000_000_000);
    }
}
