//! The directory layer of the engine.

use crate::{DirectorySpec, SystemConfig};
use ccd_common::{ConfigError, LineAddr};
use ccd_directory::sharded::{deinterleave, interleave};
use ccd_directory::{Directory, DirectoryOp, DirectoryStats, Outcome};

/// The distributed directory: one slice per tile plus the home-slice
/// routing between global and slice-local line addresses.
///
/// A block's home slice is selected by the low-order block-number bits and
/// the slice is handed the *slice-local* line (block number with the slice
/// bits divided out) so intra-slice indexing is not aliased by the
/// interleaving.  The complex owns only directory state; cache effects and
/// statistics routing stay with the simulator's other layers.
pub struct DirectoryComplex {
    slices: Vec<Box<dyn Directory>>,
    organization: String,
}

impl std::fmt::Debug for DirectoryComplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryComplex")
            .field("organization", &self.organization)
            .field("slices", &self.slices.len())
            .finish_non_exhaustive()
    }
}

impl DirectoryComplex {
    /// Builds one directory slice per tile of `system`, each described by
    /// `spec`.
    ///
    /// # Errors
    ///
    /// Propagates the organization's configuration errors.
    pub fn new(system: &SystemConfig, spec: &DirectorySpec) -> Result<Self, ConfigError> {
        let slices = (0..system.num_slices())
            .map(|_| spec.build_slice(system))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DirectoryComplex {
            slices,
            organization: spec.label(),
        })
    }

    /// The label of the organization the slices implement.
    #[must_use]
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Number of slices (= tiles).
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Splits a global line address into its home slice and the slice-local
    /// line handed to that slice's directory.
    #[must_use]
    pub fn home_of(&self, line: LineAddr) -> (usize, LineAddr) {
        interleave(self.slices.len(), line)
    }

    /// Reconstructs the global line address from a slice index and the
    /// slice-local line reported by that slice.
    #[must_use]
    pub fn global_line(&self, slice: usize, local: LineAddr) -> LineAddr {
        deinterleave(self.slices.len(), slice, local)
    }

    /// Applies `op` (already carrying a slice-local line) to `slice`.
    pub fn apply(&mut self, slice: usize, op: DirectoryOp, out: &mut Outcome) {
        self.slices[slice].apply(op, out);
    }

    /// Prefetches the home slice's candidate locations for the global line
    /// `line` (see [`Directory::prefetch_line`]).
    pub fn prefetch(&self, line: LineAddr) {
        let (slice, local) = self.home_of(line);
        self.slices[slice].prefetch_line(local);
    }

    /// Mean occupancy across all slices.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let sum: f64 = self.slices.iter().map(|s| s.occupancy()).sum();
        sum / self.slices.len() as f64
    }

    /// Total number of valid entries across all slices.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.slices.iter().map(|s| s.len()).sum()
    }

    /// Directory statistics merged across all slices.
    #[must_use]
    pub fn merged_stats(&self) -> DirectoryStats {
        let mut stats = DirectoryStats::new();
        for slice in &self.slices {
            stats.merge(slice.stats());
        }
        stats
    }

    /// Clears every slice's statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        for slice in &mut self.slices {
            slice.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::CacheId;

    fn complex() -> DirectoryComplex {
        let system = SystemConfig::shared_l2(4);
        DirectoryComplex::new(&system, &DirectorySpec::cuckoo(4, 1.0)).unwrap()
    }

    #[test]
    fn home_routing_round_trips() {
        let complex = complex();
        for block in [0u64, 1, 5, 1023, 0xFFFF_FFFF] {
            let line = LineAddr::from_block_number(block);
            let (slice, local) = complex.home_of(line);
            assert!(slice < complex.num_slices());
            assert_eq!(complex.global_line(slice, local), line);
        }
    }

    #[test]
    fn apply_and_stats_merge_across_slices() {
        let mut complex = complex();
        let mut out = Outcome::new();
        // One insertion per slice: global blocks 0..4 land on slices 0..4.
        for block in 0..4u64 {
            let line = LineAddr::from_block_number(block);
            let (slice, local) = complex.home_of(line);
            complex.apply(
                slice,
                DirectoryOp::AddSharer {
                    line: local,
                    cache: CacheId::new(0),
                },
                &mut out,
            );
            assert!(out.allocated_new_entry());
        }
        assert_eq!(complex.total_entries(), 4);
        assert_eq!(complex.merged_stats().insertions.get(), 4);
        assert!(complex.occupancy() > 0.0);
        complex.reset_stats();
        assert_eq!(complex.merged_stats().insertions.get(), 0);
        assert_eq!(complex.total_entries(), 4, "contents survive stat resets");
    }
}
