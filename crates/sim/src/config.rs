//! Whole-machine configuration.

use crate::Cycle;
use mosaic_chaos::FaultPlan;
use mosaic_mem::{DramConfig, LlcConfig};
use mosaic_mesh::MeshConfig;
use mosaic_model::Fidelity;

/// Everything needed to instantiate a [`Machine`](crate::Machine).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Mesh columns (cores per row).
    pub cols: u16,
    /// Mesh core rows.
    pub rows: u16,
    /// Ruche (express-link) factor in X; `0` disables.
    pub ruche_x: u16,
    /// Bytes of scratchpad per core (HammerBlade: 4 KB).
    pub spm_size: u32,
    /// LLC geometry. `llc.banks` must equal `2 * cols` so each bank has
    /// a mesh node in the north/south LLC rows.
    pub llc: LlcConfig,
    /// DRAM channel timing.
    pub dram: DramConfig,
    /// Maximum outstanding non-blocking stores per core.
    pub store_queue_depth: usize,
    /// Extra cycles charged per modeled call/return to emulate the
    /// 2-instruction software stack-overflow check ("Fib-S", paper
    /// §4.1/§4.4). `0` models the hardware co-design.
    pub sw_overflow_penalty: Cycle,
    /// Seed for all deterministic randomness (victim selection, inputs).
    pub seed: u64,
    /// Watchdog: abort the simulation (with a panic) if it passes this
    /// many cycles — catches accidental livelock in modeled programs.
    /// `0` disables.
    pub max_cycles: Cycle,
    /// Attach the `mosaic-san` memory-model sanitizer to every timed
    /// access. Host-side checking only: no simulated cycle changes, so
    /// all reported numbers are byte-identical either way.
    pub sanitize: bool,
    /// Attach the `mosaic-prof` cycle-attribution profiler. Host-side
    /// accounting only: no simulated cycle changes, so all reported
    /// numbers are byte-identical either way; the run's
    /// [`MachineProfile`](mosaic_prof::MachineProfile) is collected via
    /// [`Machine::take_profile`](crate::Machine::take_profile).
    pub profile: bool,
    /// Seeded fault-injection plan (`mosaic-chaos`). `None` (normal
    /// operation) is zero-cost: all timing and results are
    /// byte-identical to a build without the hooks. A timing-only plan
    /// changes cycle counts but must never change computed results; a
    /// plan with bit flips corrupts state on purpose and is expected
    /// to be caught by divergence checking.
    pub faults: Option<FaultPlan>,
    /// Which backend answers runs of this machine: the cycle-accurate
    /// engine (`Cycle`, the default — byte-identical goldens), the
    /// calibrated analytic model (`Analytic`), or per-family
    /// escalation (`Auto`). Selection only — the `Machine` itself
    /// always simulates cycle-accurately; harnesses route through
    /// [`Backend`](crate::backend::Backend) based on this field.
    pub fidelity: Fidelity,
    /// Checkpoint cadence in simulated cycles: the engine serializes
    /// the machine at the first event boundary at or past every
    /// multiple (see `crate::checkpoint`). `0` (the default) disables
    /// checkpointing. A host durability knob: excluded from job
    /// digests, and every simulated number is byte-identical whatever
    /// the cadence.
    pub checkpoint_every: Cycle,
    /// Directory checkpoint files are written into when
    /// `checkpoint_every > 0` (created on demand; default
    /// `results/checkpoints` when unset).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Verified-resume input: a checkpoint file from an earlier
    /// (interrupted) run of the *same* job. The engine re-executes
    /// deterministically from cycle zero and hard-fails with
    /// [`SimError::CheckpointDivergence`](crate::SimError) unless
    /// machine state at the recorded event boundary is byte-identical
    /// to the file — chaos seeds make resume verifiable.
    pub resume_from: Option<std::path::PathBuf>,
}

impl MachineConfig {
    /// The paper's evaluated machine: 16x8 = 128 cores, 4 KB SPMs,
    /// 32 LLC banks, one HBM2 channel.
    pub fn hammerblade_128() -> Self {
        MachineConfig::small(16, 8)
    }

    /// A Celerity-like tier (Davidson et al., IEEE Micro '18): the
    /// paper's conclusion argues its techniques carry to other PGAS
    /// manycores; this preset models Celerity's 496-core manycore tier
    /// (16x31 mesh of RV32IMAF cores with 4 KB SPMs).
    pub fn celerity_496() -> Self {
        MachineConfig::small(16, 31)
    }

    /// An Epiphany-like quadrant (Olofsson '16): 16x16 = 256 cores
    /// with larger (32 KB-class, here modeled 8 KB) local memories and
    /// no ruche links.
    pub fn epiphany_256() -> Self {
        let mut c = MachineConfig::small(16, 16);
        c.spm_size = 8192;
        c.ruche_x = 0;
        c
    }

    /// A machine of `cols x rows` cores with HammerBlade-class
    /// parameters, for tests and scaled-down experiments.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn small(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0);
        let llc = LlcConfig {
            banks: 2 * cols as u32,
            ..LlcConfig::default()
        };
        MachineConfig {
            cols,
            rows,
            ruche_x: 3,
            spm_size: 4096,
            llc,
            dram: DramConfig::default(),
            store_queue_depth: 4,
            sw_overflow_penalty: 0,
            seed: 0xC0FFEE,
            max_cycles: 0,
            sanitize: false,
            profile: false,
            faults: None,
            fidelity: Fidelity::Cycle,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
        }
    }

    /// Validate machine-level consistency. [`Machine`](crate::Machine)
    /// construction rejects invalid configurations with this error
    /// instead of silently mis-building the memory system.
    pub fn validate(&self) -> Result<(), String> {
        if self.cols == 0 || self.rows == 0 {
            return Err("machine config: mesh dimensions must be nonzero".into());
        }
        if self.spm_size == 0 || !self.spm_size.is_multiple_of(4) {
            return Err(format!(
                "machine config: spm_size {} must be a nonzero multiple of 4",
                self.spm_size
            ));
        }
        let slots = self.mesh_config().llc_count();
        if self.llc.banks as usize != slots {
            return Err(format!(
                "machine config: llc.banks {} must equal the mesh's {} LLC slots (2 * cols)",
                self.llc.banks, slots
            ));
        }
        Ok(())
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Build the matching mesh description.
    pub fn mesh_config(&self) -> MeshConfig {
        MeshConfig::new(self.cols, self.rows, self.ruche_x)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::hammerblade_128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hammerblade_has_128_cores_32_banks() {
        let c = MachineConfig::hammerblade_128();
        assert_eq!(c.core_count(), 128);
        assert_eq!(c.llc.banks, 32);
        assert_eq!(c.spm_size, 4096);
    }

    #[test]
    fn checkpointing_is_off_by_default() {
        let c = MachineConfig::small(4, 2);
        assert_eq!(c.checkpoint_every, 0);
        assert!(c.checkpoint_dir.is_none());
        assert!(c.resume_from.is_none());
    }

    #[test]
    fn cycle_fidelity_is_the_default() {
        assert_eq!(MachineConfig::small(4, 2).fidelity, Fidelity::Cycle);
        assert_eq!(MachineConfig::default().fidelity, Fidelity::Cycle);
    }

    #[test]
    fn llc_banks_match_mesh_slots() {
        let c = MachineConfig::small(5, 3);
        assert_eq!(c.llc.banks as usize, c.mesh_config().llc_count());
    }

    #[test]
    fn other_pgas_presets_are_consistent() {
        let c = MachineConfig::celerity_496();
        assert_eq!(c.core_count(), 496);
        let e = MachineConfig::epiphany_256();
        assert_eq!(e.core_count(), 256);
        assert_eq!(e.spm_size, 8192);
        assert_eq!(e.ruche_x, 0);
        assert_eq!(e.llc.banks as usize, e.mesh_config().llc_count());
    }
}
