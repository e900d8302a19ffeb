//! The sharded engine: the one copy of the cell, cut, retire and
//! lock-order protocols, under both [`crate::ShardedTree`] and
//! [`crate::DurableSharded`].
//!
//! The engine is generic over a cell's *writer-side state* `S` — a
//! bare [`PhTree`] in memory; the tree plus its migration backlog
//! when journaled to a log — and needs only one thing of it: the tree
//! to publish ([`CellState`]). What a store does to a locked state
//! (insert, journal, shed, rebuild) it says in a closure; *when* the
//! lock is taken, in which order, what happens if the cell was retired
//! meanwhile, and how the result becomes visible is decided here,
//! once.
//!
//! ## The protocols
//!
//! * **Cell.** Writers mutate `state` under its lock and then publish
//!   an O(1) structural clone of its tree through `published`;
//!   readers only ever touch `published` (lock-free). Every
//!   publication happens under the cell's lock and inside a
//!   write-clock bracket (see [`crate::snapshot`] for the cut
//!   protocol the bracket feeds).
//! * **Retire.** `retired` flips when a committed split moves the
//!   slot's data elsewhere, ordered **before** the successor routing
//!   state installs, both inside one bracket. A lock-free reader loads
//!   a published root and *then* checks `retired`, so a false reading
//!   proves no split has moved data off the cell — the loaded root
//!   holds every acknowledged write for its region. A writer that
//!   finds `retired` set after taking the lock re-routes. A retired
//!   cell keeps its last published root, so snapshots pinned before
//!   the split stay readable.
//! * **Lock order.** A thread holding one cell lock takes another only
//!   at a higher slot id ([`Routing::lock_ascending`] is the one place
//!   that takes several). Z-order stops being slot order at the first
//!   split, so "the order `live_slots` returns" is *not* it;
//!   [`crate::lockstat`] asserts the order in debug builds.

use crate::epoch::ShardMap;
use crate::error::ShardError;
use crate::lockstat::{DataGuard, DataMutex};
use crate::metrics::{OpInstruments, Probes};
use crate::sharded::SplitReport;
use crate::snapshot::{Published, Snapshot, WriteClock};
use crate::swap::Swap;
use phmetrics::Counter;
use phtree::PhTree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// How many optimistic attempts [`Engine::snapshot`] makes before
/// falling back to locking the cells.
const SNAPSHOT_SPIN: usize = 64;

/// A `(key, value)` pair as bulk loads and splits move them.
pub(crate) type Entry<V, const K: usize> = ([u64; K], V);

/// A cell's writer-side state: whatever a store keeps under the cell
/// lock, as long as it can show the tree to publish.
pub(crate) trait CellState<V, const K: usize> {
    /// The working tree, as of the last applied write.
    fn tree(&self) -> &PhTree<V, K>;
}

/// One shard's storage cell (see the module docs).
pub(crate) struct Cell<S, V, const K: usize> {
    retired: AtomicBool,
    state: DataMutex<S>,
    published: Swap<Published<V, K>>,
    /// `phshard_shard_ops_total{shard=<this slot>}`.
    routed: Counter,
}

impl<S: CellState<V, K>, V: Clone, const K: usize> Cell<S, V, K> {
    fn fresh(slot: usize, state: S, probes: &Probes) -> Arc<Self> {
        Arc::new(Cell {
            retired: AtomicBool::new(false),
            published: Swap::new(Published::now(state.tree().clone())),
            state: DataMutex::new(slot, state),
            routed: probes.shard_ops(slot),
        })
    }

    /// Publishes `state`'s tree as the cell's current version. Must be
    /// called under the cell's lock and inside a write-clock bracket.
    fn publish(&self, state: &S, probes: &Probes) {
        self.published.store(Published::now(state.tree().clone()));
        probes.swaps.root_swaps.inc();
    }
}

impl<S, V, const K: usize> Cell<S, V, K> {
    /// Locks the writer-side state *without* the retired check: for
    /// callers that hold the split gate (a split locking its source).
    pub(crate) fn lock(&self) -> DataGuard<'_, S> {
        self.state.lock()
    }
}

/// An immutable routing snapshot: the map plus the slot-indexed cell
/// table it addresses. Swapped wholesale (behind `Arc`) on every
/// committed split, so readers see map and cells move together.
pub(crate) struct Routing<S, V, const K: usize> {
    pub(crate) map: Arc<ShardMap<K>>,
    cells: Vec<Option<Arc<Cell<S, V, K>>>>,
}

impl<S, V, const K: usize> Routing<S, V, K> {
    fn cell(&self, slot: usize) -> &Arc<Cell<S, V, K>> {
        self.cells[slot]
            .as_ref()
            .expect("routing map addressed a missing cell")
    }

    /// Locks the cells of `slots` in ascending slot order — the
    /// crate's one multi-lock order, whoever asks. `None` if a split
    /// retired one of them since this routing state was loaded (the
    /// caller reloads and re-routes).
    fn lock_ascending(&self, mut slots: Vec<usize>) -> Option<Vec<(usize, DataGuard<'_, S>)>> {
        slots.sort_unstable();
        let mut locked = Vec::with_capacity(slots.len());
        for slot in slots {
            let cell = self.cell(slot);
            let guard = cell.state.lock();
            if cell.retired.load(Ordering::SeqCst) {
                return None;
            }
            locked.push((slot, guard));
        }
        Some(locked)
    }

    /// Every cell's current published root, slot-indexed.
    fn roots(&self) -> Vec<Option<Arc<Published<V, K>>>> {
        let root = |c: &Option<Arc<Cell<S, V, K>>>| c.as_ref().map(|c| c.published.load());
        self.cells.iter().map(root).collect()
    }
}

/// One locked partition of a run (see [`Engine::write_run`]).
pub(crate) struct Part<'a, S, T> {
    pub(crate) slot: usize,
    pub(crate) state: DataGuard<'a, S>,
    /// The run's items routed to `slot`, in run order.
    pub(crate) items: Vec<T>,
}

/// A split the engine has admitted: the gate is held (at most one
/// topology change in flight, so the map planned from is the map
/// installed over), the source is live, the successor map is derived.
pub(crate) struct SplitPlan<'a, S, V, const K: usize> {
    _gate: MutexGuard<'a, ()>,
    /// The routing state the split was planned against.
    pub(crate) routing: Arc<Routing<S, V, K>>,
    pub(crate) src: usize,
    pub(crate) cell: Arc<Cell<S, V, K>>,
    pub(crate) map2: ShardMap<K>,
    /// Child slots, in Z-order of their regions (consecutive ids).
    pub(crate) children: Vec<usize>,
}

impl<S, V: Clone, const K: usize> SplitPlan<'_, S, V, K> {
    /// `tree`'s entries partitioned by the successor map, one part per
    /// child, in child order.
    pub(crate) fn partition(&self, tree: &PhTree<V, K>) -> Vec<Vec<Entry<V, K>>> {
        let base = self.children[0];
        let mut parts: Vec<Vec<Entry<V, K>>> = self.children.iter().map(|_| Vec::new()).collect();
        for (k, v) in tree.iter() {
            parts[self.map2.route(&k) - base].push((k, v.clone()));
        }
        parts
    }
}

/// The engine (see the module docs).
pub(crate) struct Engine<S, V, const K: usize> {
    routing: Swap<Routing<S, V, K>>,
    /// Global write counter pair for the snapshot consistent-cut
    /// protocol (see [`crate::snapshot`]).
    clock: WriteClock,
    split_gate: Mutex<()>,
    pub(crate) probes: Arc<Probes>,
}

impl<S, V, const K: usize> Engine<S, V, K> {
    /// The current routing snapshot (shard ids, shard boxes, query
    /// pruning). A split installed after this call does not change the
    /// returned map — re-call to observe the new epoch.
    pub(crate) fn router(&self) -> Arc<ShardMap<K>> {
        Arc::clone(&self.routing.load().map)
    }

    /// Routes `key` to its current published version: the lock-free
    /// read primitive. Loads the routing state, the cell's published
    /// root, and then checks the cell wasn't retired by a split —
    /// `retired == false` *after* the root load proves the root holds
    /// every acknowledged write for the key. No lock is acquired
    /// anywhere on this path.
    fn published_for(&self, key: &[u64; K]) -> Arc<Published<V, K>> {
        loop {
            let routing = self.routing.load();
            let cell = routing.cell(routing.map.route(key));
            let published = cell.published.load();
            if !cell.retired.load(Ordering::SeqCst) {
                cell.routed.inc();
                return published;
            }
            // A split retired this cell; its successor state installs
            // within the same clock bracket — spin briefly and re-route.
            std::hint::spin_loop();
        }
    }

    /// Applies `f` to the value at `key` in the current published
    /// version — the zero-copy, zero-lock point read, never blocked by
    /// writers (a migrating shard still serves its fully current
    /// source).
    pub(crate) fn get_with<R>(&self, key: &[u64; K], f: impl FnOnce(&V) -> R) -> Option<R> {
        let t = self.probes.ops.get.start();
        let published = self.published_for(key);
        self.probes.swaps.note_root_age(&published.stamp);
        let out = published.tree.get(key).map(f);
        self.probes.ops.get.finish(t);
        out
    }

    /// Pins a consistent point-in-time view across all shards (see
    /// [`crate::snapshot`] for the cut protocol). Cheap: one pinned
    /// `Arc` per shard; versions share structure with the live trees
    /// copy-on-write.
    pub(crate) fn snapshot(&self) -> Snapshot<V, K> {
        // Optimistic: collect between two quiet observations of the
        // write clock. Never blocks writers.
        for _ in 0..SNAPSHOT_SPIN {
            let Some(begun) = self.clock.stable() else {
                std::hint::spin_loop();
                continue;
            };
            let routing = self.routing.load();
            let roots = routing.roots();
            if self.clock.begun() == begun {
                return Snapshot::new(Arc::clone(&routing.map), roots, Arc::clone(&self.probes));
            }
        }
        self.snapshot_locked()
    }

    /// The snapshot slow path, for when sustained write pressure
    /// starves the optimistic loop: freeze the cut by holding every
    /// live cell's lock (publications happen under these locks).
    fn snapshot_locked(&self) -> Snapshot<V, K> {
        self.with_all_locked(|routing, _| {
            let (map, probes) = (Arc::clone(&routing.map), Arc::clone(&self.probes));
            Snapshot::new(map, routing.roots(), probes)
        })
    }

    /// Runs `f` with every live cell locked in ascending slot order. A
    /// split mid-install shows up as a retired cell — re-route and
    /// re-lock.
    pub(crate) fn with_all_locked<R>(
        &self,
        f: impl FnOnce(&Routing<S, V, K>, &[(usize, DataGuard<'_, S>)]) -> R,
    ) -> R {
        loop {
            let routing = self.routing.load();
            let locked = routing.lock_ascending(routing.map.live_slots());
            if let Some(locked) = locked {
                return f(&routing, &locked);
            }
        }
    }

    /// Takes the split gate: at most one topology change in flight, and
    /// none beside a store-wide checkpoint.
    pub(crate) fn gate(&self) -> MutexGuard<'_, ()> {
        self.split_gate
            .lock()
            .expect("a split panicked holding the gate")
    }

    /// The split gate if no one holds it.
    pub(crate) fn try_gate(&self) -> Option<MutexGuard<'_, ()>> {
        match self.split_gate.try_lock() {
            Ok(gate) => Some(gate),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("a split panicked holding the gate"),
        }
    }
}

impl<S: CellState<V, K>, V: Clone, const K: usize> Engine<S, V, K> {
    /// An engine over `map` whose live slots start out holding
    /// `states` (one per live slot, in [`ShardMap::live_slots`] order).
    pub(crate) fn new(map: ShardMap<K>, states: Vec<S>, probes: Arc<Probes>) -> Self {
        let mut cells: Vec<_> = (0..map.slot_bound()).map(|_| None).collect();
        for (slot, state) in map.live_slots().into_iter().zip(states) {
            cells[slot] = Some(Cell::fresh(slot, state, &probes));
        }
        probes.reb.routing_epoch.set(map.epoch() as i64);
        Engine {
            routing: Swap::new(Arc::new(Routing {
                map: Arc::new(map),
                cells,
            })),
            clock: WriteClock::new(),
            split_gate: Mutex::new(()),
            probes,
        }
    }

    /// Routes `key` and runs `f` on its live cell's locked state,
    /// re-routing whenever the locked cell turns out to have been
    /// retired by a split commit while we waited. When `f` succeeds
    /// the new tree version is published (inside a write-clock
    /// bracket) before the lock releases, so lock-free readers see the
    /// write the moment it is acknowledged; a failed write (shed or
    /// store error) publishes nothing. Timed and counted as one `op`.
    pub(crate) fn with_cell_write<R, E>(
        &self,
        op: &OpInstruments,
        key: &[u64; K],
        f: impl FnOnce(usize, &mut S) -> Result<R, E>,
    ) -> Result<R, E> {
        let t = op.start();
        loop {
            let routing = self.routing.load();
            let slot = routing.map.route(key);
            let cell = routing.cell(slot);
            let mut state = cell.state.lock();
            if cell.retired.load(Ordering::SeqCst) {
                continue; // split committed while we waited for the lock
            }
            cell.routed.inc();
            let out = f(slot, &mut state);
            if out.is_ok() {
                self.clock.bracket(|| cell.publish(&state, &self.probes));
            }
            op.finish(t);
            return out;
        }
    }

    /// The multi-cell write: routes every item of a run by `key`,
    /// locks the involved cells in ascending slot order, partitions
    /// the run by slot (run order kept within a partition, so ops on
    /// one key keep their order) and hands the locked partitions to
    /// `f`, along with each item's index into them. If `f` reports a
    /// change, every involved cell publishes inside **one** write-clock
    /// bracket, so a snapshot observes none of the run or all of it.
    /// A cell retired between routing and locking restarts the lot.
    pub(crate) fn write_run<T, R>(
        &self,
        op: &OpInstruments,
        items: Vec<T>,
        key: impl Fn(&T) -> &[u64; K],
        f: impl FnOnce(&[usize], &mut [Part<'_, S, T>]) -> (bool, R),
    ) -> R {
        let t = op.start();
        loop {
            let routing = self.routing.load();
            let mut route: Vec<usize> = items.iter().map(|i| routing.map.route(key(i))).collect();
            let mut count = vec![0usize; routing.map.slot_bound()];
            route.iter().for_each(|&slot| count[slot] += 1);
            let involved = (0..count.len()).filter(|&slot| count[slot] > 0).collect();
            let Some(locked) = routing.lock_ascending(involved) else {
                continue;
            };
            let _fan = phtrace::span(phtrace::Phase::FanOut);
            phtrace::add(phtrace::PayloadCounter::Fanout, locked.len() as u64);
            let mut parts: Vec<Part<'_, S, T>> = Vec::with_capacity(locked.len());
            for (slot, state) in locked {
                routing.cell(slot).routed.add(count[slot] as u64);
                let items = Vec::with_capacity(count[slot]);
                // `count` now maps a slot to its partition's index.
                count[slot] = parts.len();
                parts.push(Part { slot, state, items });
            }
            for (item, slot) in items.into_iter().zip(route.iter_mut()) {
                *slot = count[*slot];
                parts[*slot].items.push(item);
            }
            let (changed, out) = f(&route, &mut parts);
            if changed {
                self.clock.bracket(|| {
                    for p in &parts {
                        routing.cell(p.slot).publish(&p.state, &self.probes);
                    }
                });
            }
            op.finish(t);
            return out;
        }
    }

    /// Admits a split of live slot `slot` into `2^bits` children:
    /// takes the split gate and derives the successor map.
    pub(crate) fn plan_split(
        &self,
        slot: usize,
        bits: u32,
    ) -> Result<SplitPlan<'_, S, V, K>, ShardError> {
        let gate = self.gate();
        let routing = self.routing.load();
        let cell = routing.cells.get(slot).and_then(|c| c.clone());
        let planned = cell
            .filter(|c| !c.retired.load(Ordering::SeqCst))
            .ok_or(ShardError::UnknownSlot { slot })
            .and_then(|cell| Ok((cell, routing.map.split(slot, bits)?)));
        match planned {
            Ok((cell, (map2, children))) => Ok(SplitPlan {
                _gate: gate,
                routing,
                src: slot,
                cell,
                map2,
                children,
            }),
            Err(e) => {
                self.probes.reb.split_failures.inc();
                Err(e)
            }
        }
    }

    /// Commits `plan` in memory: retire the source, then install the
    /// successor routing state holding one fresh cell per child — in
    /// that order, inside **one** write-clock bracket, under the
    /// source's lock (`source`). Lock-free readers check `retired`
    /// after loading a published root, so they either read the
    /// source's complete pre-split version or re-route to a child —
    /// never a gap; snapshots see `begun != done` and wait the bracket
    /// out, so none captures a half-split topology; writers queued on
    /// the source re-route the moment `source` drops. Each child's
    /// first publication counts as a root swap, and its routed-keys
    /// counter is registered here.
    pub(crate) fn install_split(
        &self,
        plan: SplitPlan<'_, S, V, K>,
        source: DataGuard<'_, S>,
        children: Vec<S>,
        migrated: usize,
        backlog_drained: usize,
    ) -> SplitReport {
        let mut cells = plan.routing.cells.clone();
        cells.resize(plan.map2.slot_bound(), None);
        cells[plan.src] = None;
        for (&slot, state) in plan.children.iter().zip(children) {
            cells[slot] = Some(Cell::fresh(slot, state, &self.probes));
            self.probes.swaps.root_swaps.inc();
        }
        let epoch = plan.map2.epoch();
        self.clock.bracket(|| {
            plan.cell.retired.store(true, Ordering::SeqCst);
            self.routing.store(Arc::new(Routing {
                map: Arc::new(plan.map2),
                cells,
            }));
        });
        drop(source);

        let reb = &self.probes.reb;
        reb.migration_inflight.add(-1);
        reb.splits.inc();
        reb.migrated_entries.add(migrated as u64);
        reb.backlog_drained.add(backlog_drained as u64);
        reb.routing_epoch.set(epoch as i64);
        SplitReport {
            src: plan.src,
            children: plan.children,
            migrated,
            backlog_drained,
            epoch,
        }
    }
}

/// The lock-order test PR 15's hang never got: after a split, Z-order
/// and slot order differ, and every multi-cell acquisition — the
/// snapshot slow path (driven directly: no spin-exhaustion race), a
/// multi-shard run, a bulk load, a store-wide checkpoint — must still
/// satisfy the rank assertion in [`crate::lockstat`], on both stores;
/// an acquisition in Z-order, or of a cell under the durable store's
/// log, must trip it.
#[cfg(all(test, debug_assertions))]
mod tests {
    use crate::{DurableSharded, ShardedTree};
    use phstore::vfs::MemVfs;
    use phtree::Op;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// One key in each quarter of the 2-D space, twice over.
    fn items() -> Vec<([u64; 2], u32)> {
        (0..8u64)
            .map(|i| ([((i & 1) << 63) | i, (((i >> 1) & 1) << 63) | i], i as u32))
            .collect()
    }

    #[test]
    fn multi_cell_paths_lock_in_slot_order_after_a_split() {
        let mem: ShardedTree<u32, 2> = ShardedTree::new(4);
        mem.bulk_load(items());
        let children = mem.split_shard(0, 1).unwrap().children;
        let z_order = mem.router().live_slots();
        assert_eq!(z_order, [children[0], children[1], 1, 2, 3]);
        assert_eq!(mem.engine.snapshot_locked().len(), 8);
        assert_eq!(mem.bulk_load(items()), 0);

        let vfs = Arc::new(MemVfs::new());
        let dur: DurableSharded<u32, 2> =
            DurableSharded::open_with(vfs, "/db".as_ref(), 4, Default::default()).unwrap();
        dur.bulk_load(items()).unwrap();
        dur.split_shard(0, 1).unwrap();
        assert_eq!(dur.router().live_slots(), z_order);
        assert_eq!(dur.engine.snapshot_locked().len(), 8);
        assert_eq!(dur.bulk_load(items()).unwrap(), 0);
        let run = items().into_iter().map(|(key, _)| Op::Remove { key });
        assert_eq!(dur.apply_run(run.collect()).unwrap().len(), 8);
        assert_eq!(dur.checkpoint_all().unwrap().len(), z_order.len());

        // The order PR 15 removed from one copy and left in the other.
        let routing = mem.engine.routing.load();
        let in_z_order = catch_unwind(AssertUnwindSafe(|| {
            let cells = z_order.iter().map(|&s| routing.cell(s));
            cells.map(|c| c.lock()).collect::<Vec<_>>().len()
        }));
        assert!(in_z_order.is_err(), "locking in Z-order must assert");

        // The log ranks above every cell: journaling happens inside
        // the cell locks, never the other way round.
        let routing = dur.engine.routing.load();
        let under_log = catch_unwind(AssertUnwindSafe(|| {
            let _log = dur.log.lock();
            drop(routing.cell(z_order[0]).lock());
        }));
        assert!(
            under_log.is_err(),
            "a cell locked under the log must assert"
        );
    }
}
