//! Lock-striped delivery-tracker table (DESIGN.md §3f).
//!
//! The kernel used to funnel every in-flight raise through one
//! `Mutex<HashMap<u64, DeliveryTracker>>`: receipt resolution on one
//! delivery contended with raise registration on every other. This table
//! splits the map into [`SHARDS`] independently locked stripes keyed by
//! `delivery_id` (the same mix-and-stripe pattern as the location cache),
//! so two deliveries touch the same lock only when they hash to the same
//! shard — and the sweep can walk one shard at a time instead of stalling
//! the whole pipeline.
//!
//! The table also owns the shutdown handshake that used to be a race: once
//! [`ShardedTable::drain`] runs, every shard is marked draining and a
//! concurrent [`ShardedTable::insert`] is *refused*, handing the value
//! back as [`Insert::Draining`] so the caller resolves it as `Lost`
//! exactly once. Without that, a raiser thread could insert a tracker
//! after the drain pass had already emptied its shard, stranding the
//! raise forever. Single-winner resolution (a tracker leaves the map via
//! exactly one of `remove`/`drain`/refused-insert) is proved over every
//! 3-thread interleaving by the `sharded-table-drain` schedule model in
//! `crates/analyze`.

use doct_telemetry::Counter;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;

/// Number of lock stripes. Tuned like the location cache: enough that
/// concurrent raisers and the kernel loop rarely collide, few enough that
/// a full sweep stays cheap.
pub const SHARDS: usize = 16;

/// Stripe index for a delivery id (Fibonacci-mix then stripe, same
/// recipe as the location cache so ids allocated in sequence spread).
pub fn shard_of(id: u64) -> usize {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SHARDS
}

/// One lock stripe: the live trackers whose ids hash here, plus the
/// drain latch that refuses post-shutdown inserts.
pub struct Shard<V> {
    pub(crate) entries: HashMap<u64, V>,
    pub(crate) draining: bool,
}

/// Outcome of [`ShardedTable::insert`]: either the value is live in the
/// table, or the table is draining and the value is handed back so the
/// caller can resolve it (the table will never see it again).
#[must_use = "a Draining insert hands the value back; dropping it silently loses the delivery"]
pub enum Insert<V> {
    /// Stored; receipts/sweeps will find it.
    Admitted,
    /// The table is shutting down: the value was refused and returned.
    Draining(V),
}

/// A fixed-stripe concurrent map from `delivery_id` to tracker state.
pub struct ShardedTable<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// `kernel.shard_contention`: lock acquisitions that found the stripe
    /// already held (a try-lock miss before the blocking acquire).
    contention: Counter,
}

impl<V> ShardedTable<V> {
    /// Fresh table. `contention` should be the cluster's
    /// `kernel.shard_contention` counter (or a detached `Counter::new()`
    /// in models/tests).
    pub fn new(contention: Counter) -> Self {
        ShardedTable {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        draining: false,
                    })
                })
                .collect(),
            contention,
        }
    }

    /// Number of stripes (the kernel sweep walks them in index order).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lock stripe `idx`, counting contended acquisitions.
    pub(crate) fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard<V>> {
        match self.shards[idx].try_lock() {
            Some(guard) => guard,
            None => {
                self.contention.inc();
                self.shards[idx].lock()
            }
        }
    }

    /// Insert `value` under `id` — unless the table is draining, in which
    /// case the value is handed back for the caller to resolve as lost.
    pub fn insert(&self, id: u64, value: V) -> Insert<V> {
        let idx = shard_of(id);
        let mut shard = self.lock_shard(idx);
        if shard.draining {
            return Insert::Draining(value);
        }
        shard.entries.insert(id, value);
        Insert::Admitted
    }

    /// Remove and return the entry for `id`, if still live. Exactly one
    /// of `remove`/`drain` wins each entry.
    pub fn remove(&self, id: u64) -> Option<V> {
        let idx = shard_of(id);
        let mut shard = self.lock_shard(idx);
        shard.entries.remove(&id)
    }

    /// Run `f` on the live entry for `id`, if any.
    pub fn with_mut<R>(&self, id: u64, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let idx = shard_of(id);
        let mut shard = self.lock_shard(idx);
        shard.entries.get_mut(&id).map(f)
    }

    /// Mark every stripe draining and take all remaining entries. After
    /// this returns, concurrent `insert`s are refused ([`Insert::Draining`])
    /// and concurrent `remove`s find nothing — each in-flight tracker is
    /// resolved by exactly one party.
    pub fn drain(&self) -> Vec<V> {
        let mut out = Vec::new();
        for idx in 0..self.shards.len() {
            let mut shard = self.lock_shard(idx);
            shard.draining = true;
            out.extend(shard.entries.drain().map(|(_, v)| v));
        }
        out
    }

    /// Live entries across all stripes (diagnostics).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|idx| self.lock_shard(idx).entries.len())
            .sum()
    }

    /// True when no stripe holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_spread_across_shards() {
        let hit: std::collections::HashSet<usize> = (0..64u64).map(shard_of).collect();
        assert!(hit.len() > SHARDS / 2, "sequential ids must stripe");
    }

    #[test]
    fn insert_remove_roundtrip_and_len() {
        let t = ShardedTable::new(Counter::new());
        for id in 0..100 {
            assert!(matches!(t.insert(id, id * 2), Insert::Admitted));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.remove(7), Some(14));
        assert_eq!(t.remove(7), None, "single winner");
        assert_eq!(t.with_mut(8, |v| *v), Some(16));
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn drain_refuses_later_inserts() {
        let t = ShardedTable::new(Counter::new());
        let _ = t.insert(1, 10u32);
        let drained = t.drain();
        assert_eq!(drained, vec![10]);
        match t.insert(2, 20) {
            Insert::Draining(v) => assert_eq!(v, 20),
            Insert::Admitted => panic!("insert admitted after drain"),
        }
        assert!(t.is_empty());
        assert!(t.drain().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn contention_counter_counts_held_stripes() {
        let t: ShardedTable<u32> = ShardedTable::new(Counter::new());
        let idx = shard_of(5);
        std::thread::scope(|s| {
            let guard = t.lock_shard(idx);
            // The stripe is held for this thread's entire scope, so the
            // contender's try_lock must miss and count one contention.
            let contender = s.spawn(|| {
                let g = t.lock_shard(idx);
                drop(g);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(guard);
            contender.join().expect("contender");
        });
        assert_eq!(t.contention.get(), 1);
        let g = t.lock_shard(idx);
        drop(g);
        assert_eq!(t.contention.get(), 1, "uncontended locks count nothing");
    }
}
