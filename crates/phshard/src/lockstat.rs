//! Debug-mode accounting of data-path lock acquisitions and their
//! order.
//!
//! The MVCC-lite read path claims `get`/`query`/`knn`/`snapshot` take
//! **zero** locks on shard state: readers load published tree versions
//! through the lock-free [`crate::swap::Swap`] cell and traverse pure
//! data. That claim is pinned by a test, not a comment: every lock
//! guarding shard *data* in this crate is acquired through
//! [`DataMutex`], which (under `debug_assertions` only) bumps a global
//! counter. The `read_lockfree` integration test asserts the counter
//! does not move across reads.
//!
//! The same wrapper pins the crate's one lock order. Every
//! [`DataMutex`] carries a rank — its cell's slot id — and a thread
//! that already holds data locks may only acquire a higher rank.
//! Debug builds keep the held ranks in a thread-local and assert on
//! every `lock()`, so an acquisition in any other order (Z-order stops
//! being slot order at the first split) fails the first time it runs,
//! on one thread, instead of deadlocking one run in six.
//!
//! Scope: shard cell locks — the locks whose absence on the read path
//! is the point — and the durable store's log, ranked above every cell.
//! `Swap`'s internal writer mutex (write path only — `load` takes no
//! lock) and the split gate (always taken first) are not counted.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(debug_assertions)]
static DATA_LOCK_ACQS: AtomicU64 = AtomicU64::new(0);

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks of the data locks this thread holds.
    static HELD: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Data-path lock acquisitions since process start (debug builds
/// only). Sample before and after an operation to count what it took;
/// a lock-free read path leaves the value unchanged.
#[cfg(debug_assertions)]
pub fn data_lock_acquisitions() -> u64 {
    DATA_LOCK_ACQS.load(Ordering::SeqCst)
}

/// A `Mutex` guarding shard data, instrumented so debug builds can
/// prove which paths acquire it and in which order. Poisoning is
/// swallowed (`lock` on a poisoned mutex panics, matching the
/// `.unwrap()` idiom it replaces).
pub(crate) struct DataMutex<T> {
    #[cfg(debug_assertions)]
    rank: usize,
    inner: Mutex<T>,
}

/// A held [`DataMutex`]; releases its rank with the lock.
pub(crate) struct DataGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: usize,
}

impl<T> DataMutex<T> {
    /// A lock of rank `rank` (the owning cell's slot id).
    pub(crate) fn new(rank: usize, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        DataMutex {
            #[cfg(debug_assertions)]
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Locks. Debug builds count the acquisition and assert that
    /// `rank` exceeds every rank the thread already holds.
    pub(crate) fn lock(&self) -> DataGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            DATA_LOCK_ACQS.fetch_add(1, Ordering::SeqCst);
            HELD.with_borrow(|held| {
                assert!(
                    held.iter().all(|&h| h < self.rank),
                    "data locks must be taken in ascending slot order: \
                     locking {} while holding {held:?}",
                    self.rank
                );
            });
        }
        let guard = self.inner.lock().unwrap();
        #[cfg(debug_assertions)]
        HELD.with_borrow_mut(|held| held.push(self.rank));
        DataGuard {
            guard,
            #[cfg(debug_assertions)]
            rank: self.rank,
        }
    }
}

impl<T> Deref for DataGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for DataGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for DataGuard<'_, T> {
    fn drop(&mut self) {
        // Guards need not drop in LIFO order (a `Vec` of them drops
        // front to back).
        HELD.with_borrow_mut(|held| {
            let at = held.iter().rposition(|&h| h == self.rank);
            held.swap_remove(at.expect("dropped a data lock that was never recorded"));
        });
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn lock_bumps_the_counter() {
        let m = DataMutex::new(0, 7u32);
        let before = data_lock_acquisitions();
        assert_eq!(*m.lock(), 7);
        assert!(data_lock_acquisitions() > before);
    }

    #[test]
    fn descending_acquisition_is_refused() {
        let (lo, hi) = (DataMutex::new(1, ()), DataMutex::new(4, ()));
        {
            let _a = lo.lock();
            let _b = hi.lock();
        }
        let held = hi.lock();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(lo.lock())));
        assert!(refused.is_err(), "rank 1 under rank 4 must assert");
        drop(held);
        drop(lo.lock()); // nothing held any more: fine again
    }
}
