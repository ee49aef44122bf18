//! The service's wire types: sequence-numbered requests and the per-shard
//! outcome digests used to verify bit-identity against serial application.

use ccd_directory::{DirectoryOp, Outcome};

/// One coherence request in flight inside the service.
///
/// The ingestion frontend stamps every operation with a global sequence
/// number (its position in the input stream) and pre-routes it: `shard` is
/// the *worker-local* shard index and the operation's line has already been
/// translated to the owning shard's local address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Position of this operation in the global input stream.
    pub seq: u64,
    /// Worker-local index of the owning shard.
    pub shard: u32,
    /// The operation, with its line in shard-local coordinates.
    pub op: DirectoryOp,
}

/// Running digests of what the requests applied to one shard observably
/// did, in the shard's input order.
///
/// Two 64-bit chains absorb each outcome as it is produced: the
/// **semantic** chain (sequence number, five flags, counts, semantic
/// invalidation targets, and each forced eviction's shard-local victim
/// line, target count and targets) and the **attempts** chain
/// (insertion-attempt counts, kept apart so [`OutcomeDigest::semantic`]
/// can mask them for live-resize equivalence).
///
/// Each word enters through `(h.rotate_left(23) ^ w) · K` with `K` odd:
/// for a fixed state the step is injective in the word, and for a fixed
/// word a bijection of the state, so streams that differ in a single word
/// leave different digests.  A shard sees exactly its own input-order
/// subsequence at any worker count and under journal replay, so its
/// chains are worker-count invariant; carrying the sequence number, they
/// pin what a sequence-ordered log of the same outcomes would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutcomeDigest {
    semantic: u64,
    attempts: u64,
}

impl OutcomeDigest {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The digest of an empty stream.
    #[must_use]
    pub const fn new() -> Self {
        OutcomeDigest {
            semantic: Self::SEED,
            attempts: Self::SEED,
        }
    }

    #[inline]
    fn step(h: u64, word: u64) -> u64 {
        (h.rotate_left(23) ^ word).wrapping_mul(Self::K)
    }

    /// Folds the outcome of request `seq` into the chains.  Eviction victim
    /// lines are folded as `out` holds them (shard-local on every path).
    #[inline]
    pub fn absorb(&mut self, seq: u64, out: &Outcome) {
        let flags = u64::from(out.hit())
            | u64::from(out.allocated_new_entry()) << 1
            | u64::from(out.insertion_failed()) << 2
            | u64::from(out.invalidated_all()) << 3
            | u64::from(out.removed_entry()) << 4;
        // Invalidation targets are distinct 32-bit cache ids, and one
        // request displaces at most a handful of entries, so the packing
        // is exact.
        let counts = flags
            | (out.forced_eviction_count() as u64) << 8
            | (out.invalidate().len() as u64) << 32;
        let mut h = Self::step(Self::step(self.semantic, seq), counts);
        for cache in out.invalidate() {
            h = Self::step(h, u64::from(cache.raw()));
        }
        for eviction in out.forced_evictions() {
            h = Self::step(h, eviction.line.block_number());
            h = Self::step(h, eviction.targets.len() as u64);
            for cache in eviction.targets {
                h = Self::step(h, u64::from(cache.raw()));
            }
        }
        self.semantic = h;
        self.attempts = Self::step(self.attempts, u64::from(out.insertion_attempts()));
    }

    /// Folds another shard's chains into this one, chain by chain.  Not
    /// commutative: merge shards in a fixed (global shard) order.
    pub fn merge(&mut self, other: &OutcomeDigest) {
        self.semantic = Self::step(self.semantic, other.semantic);
        self.attempts = Self::step(self.attempts, other.attempts);
    }

    /// The full digest: both chains.
    #[must_use]
    pub fn finish(&self) -> u64 {
        Self::step(self.semantic, self.attempts)
    }

    /// The semantic chain alone — [`OutcomeDigest::finish`] with every
    /// attempt count masked out.
    #[must_use]
    pub fn semantic(&self) -> u64 {
        self.semantic
    }
}

impl Default for OutcomeDigest {
    fn default() -> Self {
        OutcomeDigest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::{CacheId, LineAddr};
    use ccd_sharers::{FullBitVector, SharerSet};

    /// Allocated after 3 attempts, invalidating caches 2 and 5, and
    /// evicting each `(victim line, caches)` of `evictions`.
    fn outcome(evictions: &[(u64, &[u32])]) -> Outcome {
        let mut out = Outcome::new();
        out.record_allocation(3);
        out.push_invalidate(CacheId::new(2));
        out.push_invalidate(CacheId::new(5));
        for &(victim, caches) in evictions {
            let mut sharers = FullBitVector::new(16);
            for &cache in caches {
                sharers.add(CacheId::new(cache));
            }
            out.push_forced_eviction(LineAddr::from_block_number(victim), &sharers);
        }
        out
    }

    fn chain(stream: &[(u64, &Outcome)]) -> OutcomeDigest {
        let mut digest = OutcomeDigest::new();
        for &(seq, out) in stream {
            digest.absorb(seq, out);
        }
        digest
    }

    #[test]
    fn every_single_field_change_moves_the_digest() {
        let base = outcome(&[(9, &[1, 3]), (11, &[12])]);
        let edit = |f: fn(&mut Outcome)| {
            let mut out = base.clone();
            f(&mut out);
            out
        };
        let cases = [
            ("hit", edit(|o| o.set_hit(true))),
            ("failed", edit(Outcome::record_insertion_failure)),
            ("invalidated_all", edit(Outcome::record_invalidate_all)),
            ("removed_entry", edit(Outcome::record_removed_entry)),
            (
                "invalidations",
                edit(|o| o.push_invalidate(CacheId::new(6))),
            ),
            (
                "forced evictions",
                outcome(&[(9, &[1, 3]), (11, &[12]), (13, &[0])]),
            ),
            (
                "forced invalidations",
                outcome(&[(9, &[1, 3, 6]), (11, &[12])]),
            ),
            (
                "invalidation target",
                edit(|o| o.invalidate_buf()[1] = CacheId::new(6)),
            ),
            ("victim line", outcome(&[(9, &[1, 3]), (12, &[12])])),
            ("eviction target", outcome(&[(9, &[1, 6]), (11, &[12])])),
            // The same words as `base` but for the per-eviction counts.
            (
                "targets regrouped across evictions",
                outcome(&[(9, &[1]), (3, &[11, 12])]),
            ),
        ];
        let before = chain(&[(17, &base)]);
        // `allocated` cannot be cleared once set, so it flips from an
        // unallocated outcome instead.
        let mut allocated = Outcome::new();
        allocated.record_allocation(0);
        let mut pairs = vec![
            ("seq", before, chain(&[(18, &base)])),
            (
                "allocated",
                chain(&[(17, &Outcome::new())]),
                chain(&[(17, &allocated)]),
            ),
        ];
        pairs.extend(
            cases
                .iter()
                .map(|(field, out)| (*field, before, chain(&[(17, out)]))),
        );
        for (field, before, after) in pairs {
            assert_ne!(before.finish(), after.finish(), "{field}");
            assert_ne!(before.semantic(), after.semantic(), "{field}");
        }

        let cheaper = chain(&[(17, &edit(|o| o.record_allocation(1)))]);
        assert_ne!(before.finish(), cheaper.finish());
        assert_eq!(
            before.semantic(),
            cheaper.semantic(),
            "attempt counts must not enter the semantic view"
        );
    }

    #[test]
    fn digests_are_order_and_shard_sensitive() {
        let (a, mut b) = (outcome(&[(9, &[1, 3])]), Outcome::new());
        b.set_hit(true);
        let in_order = chain(&[(0, &a), (1, &b)]).finish();
        assert_eq!(in_order, chain(&[(0, &a), (1, &b)]).finish());
        // Requests swapped, outcomes swapped between them, one dropped.
        assert_ne!(in_order, chain(&[(1, &b), (0, &a)]).finish());
        assert_ne!(in_order, chain(&[(0, &b), (1, &a)]).finish());
        assert_ne!(in_order, chain(&[(0, &a)]).finish());

        // The same outcome on the first or the second of two shards.
        let (touched, empty) = (chain(&[(0, &a)]), OutcomeDigest::new());
        let merged = |shards: [&OutcomeDigest; 2]| {
            let mut digest = OutcomeDigest::new();
            shards.iter().for_each(|shard| digest.merge(shard));
            digest
        };
        let (first, second) = (merged([&touched, &empty]), merged([&empty, &touched]));
        assert_ne!(first.finish(), second.finish());
        assert_ne!(first.semantic(), second.semantic());
    }
}
