//! Fixed-capacity open-addressing map for in-flight command state.
//!
//! The collector's seek↔latency correlation (and the ESX device model's
//! in-flight command set) key pending state by a `u64` request id. A
//! `HashMap` works, but its SipHash hashing and amortized growth put heap
//! allocations and hash mixing on the per-command hot path. The guest queue
//! depth is architecturally bounded — the paper's outstanding-I/O layout
//! tops out at 64 — so an [`InflightTable`] preallocates a 128-slot probe
//! array for the first [`InflightTable::FAST_CAPACITY`] entries and only
//! touches the heap (a `BTreeMap` spill) beyond that. In the steady state
//! every insert/remove/lookup is a Fibonacci hash plus a short linear probe
//! with zero allocation.
//!
//! Semantics match `HashMap<u64, V>`: `insert` replaces an existing value
//! for the same key, `remove` of an absent key is `None`, and iteration
//! order is deliberately not offered (the previous users never iterated).
//! Deletion uses backward-shift compaction instead of tombstones so probe
//! chains never degrade under the issue/complete churn of a long run.

use std::collections::BTreeMap;

/// Number of slots in the fixed probe array (power of two).
const SLOTS: usize = 128;

/// A bounded open-addressing `u64 → V` map with graceful overflow.
#[derive(Debug, Clone)]
pub struct InflightTable<V> {
    /// Probe array; `None` marks an empty slot.
    slots: Box<[Option<(u64, V)>]>,
    /// Entries resident in `slots`.
    fast_len: usize,
    /// Overflow storage, used only while more than
    /// [`InflightTable::FAST_CAPACITY`] entries are in flight.
    spill: BTreeMap<u64, V>,
}

/// Fibonacci multiplicative hash → slot index.
#[inline]
fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize & (SLOTS - 1)
}

impl<V> InflightTable<V> {
    /// Entries kept in the fixed probe array before spilling; matches the
    /// top regular bin of the paper's outstanding-I/O layout.
    pub const FAST_CAPACITY: usize = 64;

    /// Creates an empty table with the probe array preallocated.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, || None);
        InflightTable {
            slots: slots.into_boxed_slice(),
            fast_len: 0,
            spill: BTreeMap::new(),
        }
    }

    /// Number of entries (fast + spilled).
    #[inline]
    pub fn len(&self) -> usize {
        self.fast_len + self.spill.len()
    }

    /// True when no entries are in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Position of `key` in the probe array, if resident there.
    fn find_slot(&self, key: u64) -> Option<usize> {
        let mut j = slot_of(key);
        loop {
            match &self.slots[j] {
                None => return None,
                Some((k, _)) if *k == key => return Some(j),
                Some(_) => j = (j + 1) & (SLOTS - 1),
            }
        }
    }

    /// Inserts or replaces; returns the previous value for `key` if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Replace in place wherever the key already lives.
        if let Some(j) = self.find_slot(key) {
            let (_, old) = self.slots[j].replace((key, value)).expect("occupied");
            return Some(old);
        }
        if let Some(old) = self.spill.remove(&key) {
            self.spill.insert(key, value);
            return Some(old);
        }
        // New key: fast array first, spill only at capacity.
        if self.fast_len < Self::FAST_CAPACITY {
            let mut j = slot_of(key);
            while self.slots[j].is_some() {
                j = (j + 1) & (SLOTS - 1);
            }
            self.slots[j] = Some((key, value));
            self.fast_len += 1;
        } else {
            self.spill.insert(key, value);
        }
        None
    }

    /// Borrows the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        if let Some(j) = self.find_slot(key) {
            return self.slots[j].as_ref().map(|(_, v)| v);
        }
        self.spill.get(&key)
    }

    /// Mutably borrows the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if let Some(j) = self.find_slot(key) {
            return self.slots[j].as_mut().map(|(_, v)| v);
        }
        self.spill.get_mut(&key)
    }

    /// Removes and returns the value for `key`, compacting the probe chain
    /// by backward shifting (no tombstones).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if let Some(j) = self.find_slot(key) {
            let (_, value) = self.slots[j].take().expect("occupied");
            self.fast_len -= 1;
            self.backward_shift(j);
            self.unspill_one();
            return Some(value);
        }
        self.spill.remove(&key)
    }

    /// Refills the freed fast slot from the spill. Without this, an
    /// overflow episode left entries stranded on the heap forever: removes
    /// that hit the fast array shrank `fast_len` below capacity while the
    /// spilled keys — and their `BTreeMap` nodes — stayed behind, so the
    /// table's load factor and heap footprint never recovered even after
    /// the queue drained back under [`Self::FAST_CAPACITY`].
    #[inline]
    fn unspill_one(&mut self) {
        if self.spill.is_empty() || self.fast_len >= Self::FAST_CAPACITY {
            return;
        }
        let (key, value) = self.spill.pop_first().expect("non-empty spill");
        let mut j = slot_of(key);
        while self.slots[j].is_some() {
            j = (j + 1) & (SLOTS - 1);
        }
        self.slots[j] = Some((key, value));
        self.fast_len += 1;
    }

    /// Backward-shift deletion: walk the chain after the hole and move back
    /// any entry whose ideal slot does not lie strictly between the hole and
    /// its current position (cyclically), preserving probe invariants.
    fn backward_shift(&mut self, hole: usize) {
        let mask = SLOTS - 1;
        let mut hole = hole;
        let mut j = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let ideal = slot_of(*k);
            // Distance from ideal to j vs from (hole+... ) — the entry may
            // move into the hole iff the hole lies within [ideal, j].
            if ((j.wrapping_sub(ideal)) & mask) >= ((j.wrapping_sub(hole)) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
    }

    /// Drops every entry. Keeps the probe array allocation.
    pub fn clear(&mut self) {
        for s in self.slots.iter_mut() {
            *s = None;
        }
        self.fast_len = 0;
        self.spill.clear();
    }

    /// Heap bytes held beyond `size_of::<Self>()` (probe array + spill
    /// nodes, approximately), for memory-footprint accounting.
    pub(crate) fn heap_footprint_bytes(&self) -> usize {
        SLOTS * std::mem::size_of::<Option<(u64, V)>>()
            + self.spill.len() * std::mem::size_of::<(u64, V)>()
    }

    /// Every `(key, value)` pair, sorted by key — the canonical export for
    /// serializers (the checkpoint plane). The table is a map, so sorted
    /// entries re-inserted in order rebuild an equivalent table regardless
    /// of the probe-chain shapes the original went through.
    pub(crate) fn entries(&self) -> Vec<(u64, V)>
    where
        V: Clone,
    {
        let mut out: Vec<(u64, V)> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v.clone())))
            .chain(self.spill.iter().map(|(k, v)| (*k, v.clone())))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
}

impl<V> Default for InflightTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get_remove() {
        let mut t = InflightTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(7, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&"b"));
        *t.get_mut(7).unwrap() = "c";
        assert_eq!(t.remove(7), Some("c"));
        assert_eq!(t.remove(7), None);
        assert!(t.is_empty());
    }

    #[test]
    fn colliding_keys_probe_and_compact() {
        // Keys crafted to collide: Fibonacci hash keeps only the top 7 bits
        // after multiplication, so find keys that share a slot.
        let mut t = InflightTable::new();
        let base = 1u64;
        let target = super::slot_of(base);
        let mut colliders = vec![base];
        let mut k = base + 1;
        while colliders.len() < 5 {
            if super::slot_of(k) == target {
                colliders.push(k);
            }
            k += 1;
        }
        for (i, &c) in colliders.iter().enumerate() {
            assert_eq!(t.insert(c, i), None);
        }
        // Remove from the middle of the chain; the rest must stay findable.
        assert_eq!(t.remove(colliders[2]), Some(2));
        for (i, &c) in colliders.iter().enumerate() {
            if i == 2 {
                assert_eq!(t.get(c), None);
            } else {
                assert_eq!(t.get(c), Some(&i));
            }
        }
    }

    #[test]
    fn spill_beyond_fast_capacity() {
        let mut t = InflightTable::new();
        let n = InflightTable::<u64>::FAST_CAPACITY as u64 + 40;
        for k in 0..n {
            assert_eq!(t.insert(k, k * 10), None);
        }
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            assert_eq!(t.get(k), Some(&(k * 10)));
        }
        // Remove everything in a scrambled order.
        for k in (0..n).rev() {
            assert_eq!(t.remove(k), Some(k * 10));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn spill_drains_back_into_fast_array() {
        // Regression: removes that hit the fast array used to leave
        // spilled keys stranded on the heap, so the load factor never
        // recovered after an overflow episode. The spill must drain as
        // the in-flight count falls back under FAST_CAPACITY.
        let cap = InflightTable::<u64>::FAST_CAPACITY as u64;
        let mut t = InflightTable::new();
        for k in 0..cap + 30 {
            t.insert(k, k);
        }
        assert_eq!(t.spill.len(), 30);
        let spilled_footprint = t.heap_footprint_bytes();
        // Remove 30 of the *original fast* keys (0..cap inserted first, so
        // they are the resident ones); each remove must pull one spilled
        // entry back in.
        for k in 0..30 {
            assert_eq!(t.remove(k), Some(k));
        }
        assert_eq!(t.len(), cap as usize);
        assert_eq!(t.spill.len(), 0, "spill must drain to empty");
        assert!(t.heap_footprint_bytes() < spilled_footprint);
        // Every surviving key is still reachable, wherever it now lives.
        for k in 30..cap + 30 {
            assert_eq!(t.get(k), Some(&k), "key {k} lost during unspill");
        }
    }

    #[test]
    fn spill_unspill_churn_matches_hashmap() {
        // Long alternating spill/unspill churn, mirrored against a
        // HashMap oracle with a deterministic mixed op stream.
        use std::collections::HashMap;
        let mut t = InflightTable::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut live: Vec<u64> = Vec::new();
        for round in 0..20_000u64 {
            let r = step();
            // Bias toward inserts while small, removes while large, so the
            // population repeatedly crosses the spill boundary.
            let grow = oracle.len() < InflightTable::<u64>::FAST_CAPACITY + 40;
            if live.is_empty() || (r % 100 < 55) == grow {
                let key = r % 512;
                assert_eq!(t.insert(key, round), oracle.insert(key, round));
                if !live.contains(&key) {
                    live.push(key);
                }
            } else {
                let key = live.swap_remove((r % live.len() as u64) as usize);
                assert_eq!(t.remove(key), oracle.remove(&key));
            }
            assert_eq!(t.len(), oracle.len());
            // The structural invariant behind the fix: the heap spill is
            // only ever occupied while the fast array is full.
            assert!(
                t.spill.is_empty()
                    || t.len() - t.spill.len() == InflightTable::<u64>::FAST_CAPACITY
            );
        }
        // Drain completely; the spill must be long gone before empty.
        for key in live {
            assert_eq!(t.remove(key), oracle.remove(&key));
        }
        assert!(t.is_empty());
        assert_eq!(t.spill.len(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut t = InflightTable::new();
        for k in 0..100u64 {
            t.insert(k, k);
        }
        t.clear();
        assert!(t.is_empty());
        for k in 0..100u64 {
            assert_eq!(t.get(k), None);
        }
        // Reusable after clear.
        t.insert(5, 50);
        assert_eq!(t.get(5), Some(&50));
    }
}
