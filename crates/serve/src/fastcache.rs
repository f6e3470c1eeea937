//! Lock-free epoch-tagged result cache probed on the submit path.
//!
//! The per-shard [`LruCache`](crate::LruCache) lives *behind* the shard
//! worker: a hot node's repeat query still pays queue admission, a
//! cross-thread hop into the worker, and a wakeup back — the same
//! latency floor as a cold miss. [`FastCache`] removes that floor: a
//! fixed-capacity table of packed `AtomicU64`-pair slots (the
//! transposition-table idiom) that client threads probe in place, with
//! no lock, no allocation, and no cross-thread traffic on a hit.
//!
//! ## Slot format
//!
//! Each slot is two words, published and probed independently:
//!
//! ```text
//! key word    [ tag (low 32 bits) | node id (32 bits) ]
//! value word  [ tag low 16 | label (16 bits) | node id (32 bits) ]
//! ```
//!
//! `tag` is an engine-minted *install generation* — **not** the vault's
//! snapshot epoch. Epoch numbers are only unique within the process
//! that minted a snapshot, so keying by epoch alone could collide with
//! a foreign snapshot (the reason the worker-side LRU clears on every
//! install). Install generations are minted by this cache's own
//! monotonic counter, once per engine start or deploy, so a tag can
//! never repeat — which is what lets `deploy` invalidate the whole
//! table *by tag alone*: it simply advances the current tag and every
//! old entry stops matching. No flush pass, no pause, no per-slot work.
//!
//! ## Publish / probe protocol
//!
//! Writers (shard workers, on batch completion) store the value word,
//! then the key word with `Release`. Readers load the key word with
//! `Acquire`, compare it against the probe's expected
//! `(current tag, node)` key, then load and *re-validate* the value
//! word: its embedded node id must equal the probed node and its
//! embedded low 16 tag bits must match the probe tag. A racing writer
//! to the same slot can interleave the two stores (seqlock-style
//! tearing), but any torn combination fails the value word's
//! self-check and is treated as a miss — the miss path re-computes and
//! republishes, so correctness never depends on winning the race. The
//! residual false-hit window would require two publishes exactly 2^16
//! install generations apart to interleave with one probe's two loads
//! — i.e. 65 536 completed hot-swap deploys between two adjacent
//! atomic loads — which is not physically realizable.
//!
//! Entries whose node id exceeds 32 bits or whose label exceeds 16
//! bits are simply never published (the probe then misses and the
//! queued path answers) — the fast path is an optimization, never a
//! correctness dependency.

use std::sync::atomic::{AtomicU64, Ordering};
use tee::ClassLabel;

/// Largest node id a packed slot can carry (32 bits).
const MAX_NODE: usize = u32::MAX as usize;
/// Largest label value a packed slot can carry (16 bits).
const MAX_LABEL: usize = u16::MAX as usize;

/// One packed entry: key and value words, each a single atomic.
#[derive(Debug, Default)]
struct Slot {
    key: AtomicU64,
    value: AtomicU64,
}

/// Packs the probe/publish key word for `(tag, node)`.
///
/// Tags start at 1, so a zeroed (empty) slot can never match a probe.
pub(crate) fn encode_key(tag: u64, node: usize) -> u64 {
    ((tag & 0xffff_ffff) << 32) | node as u64
}

/// Packs the self-validating value word for `(tag, node, label)`.
pub(crate) fn encode_value(tag: u64, node: usize, label: ClassLabel) -> u64 {
    ((tag & 0xffff) << 48) | ((label.0 as u64 & 0xffff) << 32) | node as u64
}

/// Unpacks a value word into `(tag low 16, label, node)`.
pub(crate) fn decode_value(value: u64) -> (u64, ClassLabel, usize) {
    (
        value >> 48,
        ClassLabel(((value >> 32) & 0xffff) as usize),
        (value & 0xffff_ffff) as usize,
    )
}

/// SplitMix64 finalizer: spreads the packed key over the slot table.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sharded-engine-wide, fixed-capacity, lock-free result cache of
/// packed atomic slots, probed by client threads on the submit path
/// and published to by shard workers on batch completion. See the
/// module docs for the slot format and the publish/probe protocol.
///
/// # Examples
///
/// ```
/// use serve::FastCache;
/// use tee::ClassLabel;
///
/// let cache = FastCache::new(1024);
/// let tag = cache.mint_tag();
/// cache.set_current(tag);
/// assert_eq!(cache.probe(tag, 7), None, "cold cache misses");
///
/// cache.publish(tag, 7, ClassLabel(3));
/// assert_eq!(cache.probe(tag, 7), Some(ClassLabel(3)));
///
/// // A deploy invalidates by tag alone: old entries stop matching.
/// let next = cache.mint_tag();
/// cache.set_current(next);
/// assert_eq!(cache.probe(cache.current_tag(), 7), None);
/// ```
#[derive(Debug)]
pub struct FastCache {
    slots: Box<[Slot]>,
    mask: u64,
    /// The install generation probes must match; advanced (only
    /// forward) once every shard has installed a new model.
    current: AtomicU64,
    /// Mint source for install generations; starts at 1 so tag 0 (and
    /// therefore an all-zero empty slot) never matches anything.
    next_tag: AtomicU64,
}

impl FastCache {
    /// Builds a cache with `slots` packed entries, rounded up to a
    /// power of two (minimum 1). Each slot is 16 bytes, so 16 384
    /// slots cost 256 KiB. The engine builds none at its default
    /// [`ServeConfig::fast_cache_slots`](crate::ServeConfig::fast_cache_slots)
    /// of 0.
    pub fn new(slots: usize) -> Self {
        let capacity = slots.max(1).next_power_of_two();
        Self {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            mask: capacity as u64 - 1,
            current: AtomicU64::new(0),
            next_tag: AtomicU64::new(1),
        }
    }

    /// Number of packed slots (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Mints a fresh install generation. Tags are engine-unique and
    /// monotonically increasing; minting does *not* change the current
    /// tag — a deploy publishes under the minted tag first and flips
    /// [`set_current`](Self::set_current) only after every shard
    /// installed.
    pub fn mint_tag(&self) -> u64 {
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// The install generation probes currently match against.
    pub fn current_tag(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Advances the current tag to `tag` (monotonic: an older tag
    /// never overwrites a newer one, so racing deploys cannot regress
    /// the cache to a superseded generation).
    pub fn set_current(&self, tag: u64) {
        self.current.fetch_max(tag, Ordering::AcqRel);
    }

    /// Probes for `node` under install generation `tag`. Returns the
    /// published label, or `None` on an empty slot, a key mismatch
    /// (different node, evicted entry, or stale tag), or a torn
    /// concurrent write (detected by the value word's self-check).
    pub fn probe(&self, tag: u64, node: usize) -> Option<ClassLabel> {
        if node > MAX_NODE {
            return None;
        }
        let key = encode_key(tag, node);
        let slot = &self.slots[(mix(key) & self.mask) as usize];
        if slot.key.load(Ordering::Acquire) != key {
            return None;
        }
        let (value_tag, label, value_node) = decode_value(slot.value.load(Ordering::Acquire));
        if value_node != node || value_tag != (tag & 0xffff) {
            return None;
        }
        Some(label)
    }

    /// Publishes `label` for `node` under install generation `tag`,
    /// overwriting whatever the slot held (direct-mapped: collisions
    /// evict, they never chain). Out-of-range nodes or labels are
    /// silently not published — the queued path still answers them.
    pub fn publish(&self, tag: u64, node: usize, label: ClassLabel) {
        if node > MAX_NODE || label.0 > MAX_LABEL {
            return;
        }
        let key = encode_key(tag, node);
        let slot = &self.slots[(mix(key) & self.mask) as usize];
        // Value first, then the key that makes the slot probeable; the
        // value word's self-check catches any torn interleaving.
        slot.value
            .store(encode_value(tag, node, label), Ordering::Release);
        slot.key.store(key, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn probe_hits_only_the_published_tag_and_node() {
        let cache = FastCache::new(64);
        let tag = cache.mint_tag();
        cache.set_current(tag);
        cache.publish(tag, 5, ClassLabel(2));
        assert_eq!(cache.probe(tag, 5), Some(ClassLabel(2)));
        assert_eq!(cache.probe(tag, 6), None, "other nodes miss");
        assert_eq!(cache.probe(tag + 1, 5), None, "other tags miss");
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FastCache::new(0).capacity(), 1);
        assert_eq!(FastCache::new(1000).capacity(), 1024);
        assert_eq!(FastCache::new(4096).capacity(), 4096);
    }

    #[test]
    fn tags_are_monotone_and_never_regress() {
        let cache = FastCache::new(8);
        let first = cache.mint_tag();
        let second = cache.mint_tag();
        assert!(second > first);
        cache.set_current(second);
        cache.set_current(first); // a stale deploy racing in
        assert_eq!(cache.current_tag(), second, "current tag is monotone");
    }

    #[test]
    fn out_of_range_entries_are_never_published() {
        let cache = FastCache::new(8);
        let tag = cache.mint_tag();
        cache.publish(tag, usize::MAX, ClassLabel(1));
        cache.publish(tag, 1, ClassLabel(usize::MAX));
        assert_eq!(cache.probe(tag, usize::MAX), None);
        assert_eq!(cache.probe(tag, 1), None);
    }

    #[test]
    fn collisions_evict_instead_of_corrupting() {
        // One slot: every publish lands on it; the last writer wins and
        // every other key misses cleanly.
        let cache = FastCache::new(1);
        let tag = cache.mint_tag();
        cache.publish(tag, 1, ClassLabel(1));
        cache.publish(tag, 2, ClassLabel(2));
        assert_eq!(cache.probe(tag, 2), Some(ClassLabel(2)));
        assert_eq!(cache.probe(tag, 1), None, "evicted entry misses");
    }

    #[test]
    fn concurrent_publish_and_probe_never_return_a_wrong_label() {
        // Hammer one tiny (high-collision) table from writer threads
        // publishing label == node while readers probe; every hit must
        // satisfy the label-equals-node invariant.
        let cache = Arc::new(FastCache::new(16));
        let tag = cache.mint_tag();
        cache.set_current(tag);
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..20_000usize {
                        let node = (i * 7 + w * 13) % 64;
                        cache.publish(tag, node, ClassLabel(node));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..20_000usize {
                        let node = (i * 11 + r * 5) % 64;
                        if let Some(label) = cache.probe(tag, node) {
                            assert_eq!(label, ClassLabel(node), "torn read escaped");
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        let hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(hits > 0, "the storm must observe some hits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Satellite: packed-entry encode/decode round-trip over the
        // whole representable (tag, node, label) range — the verifier
        // bits a probe checks must reconstruct exactly what publish
        // packed, for every combination.
        #[test]
        fn packed_entry_round_trips(
            tag in any::<u64>(),
            raw in any::<u64>(),
        ) {
            // Draw (node, label) over their full representable ranges
            // from one 64-bit sample: node uses 32 bits, label 16.
            let node = (raw & 0xffff_ffff) as usize;
            let label = ((raw >> 32) & 0xffff) as usize;
            let value = encode_value(tag, node, ClassLabel(label));
            let (value_tag, decoded_label, decoded_node) = decode_value(value);
            prop_assert_eq!(value_tag, tag & 0xffff);
            prop_assert_eq!(decoded_label, ClassLabel(label));
            prop_assert_eq!(decoded_node, node);
            let key = encode_key(tag, node);
            prop_assert_eq!(key >> 32, tag & 0xffff_ffff);
            prop_assert_eq!(key & 0xffff_ffff, node as u64);
        }

        // Publish-then-probe round-trip through a real table: the probe
        // returns exactly the published label under the same tag and
        // never matches under a different tag.
        #[test]
        fn publish_probe_round_trips(
            slots in 1usize..512,
            raw in any::<u64>(),
            tag_step in 1u64..1_000,
        ) {
            let node = (raw & 0xffff_ffff) as usize;
            let label = ((raw >> 32) & 0xffff) as usize;
            let cache = FastCache::new(slots);
            let mut tag = 0;
            for _ in 0..tag_step.min(8) {
                tag = cache.mint_tag();
            }
            cache.publish(tag, node, ClassLabel(label));
            prop_assert_eq!(cache.probe(tag, node), Some(ClassLabel(label)));
            prop_assert_eq!(cache.probe(tag + 1, node), None);
        }
    }
}
