//! The simulator's own directory traffic, recorded so that `sim-oracle`'s
//! traced run can replay it through fresh slices of the simulator's own
//! directory organization.
//!
//! `CmpSimulator` does not hand out the operations it sends its directory,
//! so [`capture`] drives the same protocol through the simulator's public
//! engine layers ([`TileCaches`], [`DirectoryComplex`]) and records every
//! operation on its way to the home slice.  The recording is checked, not
//! trusted: its measured-phase directory statistics and cache totals must
//! equal those of a `CmpSimulator` run over the same references.

use ccd_cache::{AccessOutcome, CoherenceState};
use ccd_coherence::engine::{DirectoryComplex, TileCaches};
use ccd_coherence::{DirectorySpec, SystemConfig};
use ccd_common::{CacheId, LineAddr, MemRef};
use ccd_directory::{DirectoryOp, DirectoryStats, Outcome};

/// One directory operation as the simulator issues it: the home slice and
/// the operation carrying the slice-local line.
pub type SliceOp = (usize, DirectoryOp);

/// The operations of a warm-up and a measured phase, plus what the
/// measured phase must reproduce.
pub struct Captured {
    pub warmup: Vec<SliceOp>,
    pub measured: Vec<SliceOp>,
    /// Directory statistics merged across slices, measured phase only.
    pub stats: DirectoryStats,
    /// `(accesses, misses)` of the private caches, measured phase only.
    pub cache_totals: (u64, u64),
}

/// `CmpSimulator::process` through the public engine layers, recording
/// each directory operation.
struct Recorder {
    system: SystemConfig,
    tiles: TileCaches,
    directory: DirectoryComplex,
    out: Outcome,
    ops: Vec<SliceOp>,
}

impl Recorder {
    fn dispatch(&mut self, slice: usize, line: LineAddr, op: DirectoryOp) {
        self.ops.push((slice, op));
        self.directory.apply(slice, op, &mut self.out);
        for &target in self.out.invalidate() {
            self.tiles.invalidate(target, line);
        }
        for eviction in self.out.forced_evictions() {
            let victim = self.directory.global_line(slice, eviction.line);
            for &target in eviction.targets {
                self.tiles.invalidate(target, victim);
            }
        }
    }

    fn downgrade_writers(
        &mut self,
        slice: usize,
        local: LineAddr,
        line: LineAddr,
        requester: CacheId,
    ) {
        let op = DirectoryOp::Probe { line: local };
        self.ops.push((slice, op));
        self.directory.apply(slice, op, &mut self.out);
        for &sharer in self.out.sharers() {
            if sharer != requester
                && self.tiles.state_of(sharer, line) == Some(CoherenceState::Modified)
            {
                self.tiles.downgrade(sharer, line);
            }
        }
    }

    fn process(&mut self, r: MemRef) {
        let line = self.system.block.line_of(r.addr);
        let cache = self.tiles.cache_for(r.core, r.kind);
        let is_write = r.kind.is_write();
        match self.tiles.access(cache, line, is_write) {
            AccessOutcome::Hit => {}
            AccessOutcome::UpgradeMiss => {
                let (slice, local) = self.directory.home_of(line);
                self.dispatch(
                    slice,
                    line,
                    DirectoryOp::SetExclusive { line: local, cache },
                );
            }
            AccessOutcome::Miss { victim } => {
                if let Some(evicted) = victim {
                    let (vslice, vlocal) = self.directory.home_of(evicted.line);
                    let op = DirectoryOp::RemoveSharer {
                        line: vlocal,
                        cache,
                    };
                    self.dispatch(vslice, evicted.line, op);
                }
                let (slice, local) = self.directory.home_of(line);
                let op = if is_write {
                    DirectoryOp::SetExclusive { line: local, cache }
                } else {
                    self.downgrade_writers(slice, local, line, cache);
                    DirectoryOp::AddSharer { line: local, cache }
                };
                self.dispatch(slice, line, op);
            }
        }
    }
}

/// Runs `warmup` then `measure` references of `refs` through the
/// simulator's protocol, resetting statistics in between as the paper's
/// method does, and returns the directory operations of each phase.
pub fn capture(
    system: &SystemConfig,
    spec: &DirectorySpec,
    refs: &mut impl Iterator<Item = MemRef>,
    warmup: u64,
    measure: u64,
) -> Result<Captured, String> {
    let mut recorder = Recorder {
        system: system.clone(),
        tiles: TileCaches::new(system).map_err(|e| e.to_string())?,
        directory: DirectoryComplex::new(system, spec).map_err(|e| e.to_string())?,
        out: Outcome::new(),
        ops: Vec::new(),
    };
    for r in refs.by_ref().take(warmup as usize) {
        recorder.process(r);
    }
    let warmup = std::mem::take(&mut recorder.ops);
    recorder.directory.reset_stats();
    recorder.tiles.reset_stats();
    for r in refs.by_ref().take(measure as usize) {
        recorder.process(r);
    }
    Ok(Captured {
        warmup,
        stats: recorder.directory.merged_stats(),
        cache_totals: recorder.tiles.totals(),
        measured: recorder.ops,
    })
}
