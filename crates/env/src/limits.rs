//! Deterministic resource limits shared by both virtual machines.
//!
//! Real engines kill runaway guest code with wall-clock watchdogs and OS
//! OOM signals — both nondeterministic. The simulation instead expresses
//! every limit in terms of quantities the VMs already account for
//! deterministically:
//!
//! * **fuel** — retired virtual instructions (the step counter both VMs
//!   maintain for cost charging). Exhaustion is the simulation's
//!   "timeout": the same program with the same fuel always stops at the
//!   same instruction.
//! * **memory ceiling** — bytes of guest memory (Wasm linear memory /
//!   MiniJS heap). Checked at the same points memory is already
//!   accounted: `memory.grow` and the GC safe point.
//! * **call depth** — guest stack frames before a stack-overflow trap.
//!
//! **Determinism invariant:** limits are *checked* on existing
//! virtual-cost events; they never add charges of their own. A run that
//! stays under every limit is bit-identical to a run with no limits at
//! all, which is what keeps the committed goldens stable.

/// Resource ceilings for one VM run. The default is the unlimited
/// configuration the measurement grid uses (only the call-depth guard is
/// finite, mirroring real engines' fixed stack reserves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceLimits {
    /// Maximum retired virtual instructions before the run traps with a
    /// fuel-exhaustion error. `None` = unlimited.
    pub fuel: Option<u64>,
    /// Maximum guest memory in bytes (Wasm linear memory size / MiniJS
    /// heap live+external bytes). `None` = unlimited (the engine's own
    /// 4 GiB / declared-max caps still apply).
    pub max_memory_bytes: Option<u64>,
    /// Maximum guest call depth before a stack-overflow trap.
    pub max_call_depth: usize,
}

/// Default call depth, matching real engines' ~1 MiB stack reserve.
pub const DEFAULT_MAX_CALL_DEPTH: usize = 2_048;

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            fuel: None,
            max_memory_bytes: None,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
        }
    }
}

impl ResourceLimits {
    /// The unlimited grid configuration (same as `Default`).
    pub fn unlimited() -> Self {
        ResourceLimits::default()
    }

    /// Builder: cap retired instructions.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Builder: cap guest memory bytes.
    pub fn with_max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Builder: cap guest call depth.
    pub fn with_max_call_depth(mut self, depth: usize) -> Self {
        self.max_call_depth = depth;
        self
    }

    /// Fuel as a plain step budget (`u64::MAX` when unlimited) for hot
    /// loops that prefer a branchless compare.
    #[inline]
    pub fn fuel_budget(&self) -> u64 {
        self.fuel.unwrap_or(u64::MAX)
    }

    /// Memory ceiling as a plain byte budget (`u64::MAX` when unlimited).
    #[inline]
    pub fn memory_budget(&self) -> u64 {
        self.max_memory_bytes.unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited_except_depth() {
        let l = ResourceLimits::default();
        assert_eq!(l.fuel, None);
        assert_eq!(l.max_memory_bytes, None);
        assert_eq!(l.max_call_depth, DEFAULT_MAX_CALL_DEPTH);
        assert_eq!(l.fuel_budget(), u64::MAX);
        assert_eq!(l.memory_budget(), u64::MAX);
        assert_eq!(l, ResourceLimits::unlimited());
    }

    #[test]
    fn builders_compose() {
        let l = ResourceLimits::default()
            .with_fuel(10)
            .with_max_memory_bytes(4096)
            .with_max_call_depth(16);
        assert_eq!(l.fuel_budget(), 10);
        assert_eq!(l.memory_budget(), 4096);
        assert_eq!(l.max_call_depth, 16);
    }
}
