//! Rank-ordered locks with a dynamic inversion checker.
//!
//! The static half of deadlock defense lives in `voyager-analyze`
//! (lock-acquisition graph extraction + cycle detection over the whole
//! workspace). This module is the dynamic half: every lock in the
//! runtime is an [`OrderedMutex`] carrying a [`LockRank`], and under
//! `debug_assertions` each thread tracks the ranks it currently holds.
//! Acquiring a lock whose rank is not strictly greater than the
//! highest rank already held panics immediately with both lock names —
//! turning a once-in-a-blue-moon deadlock into a deterministic test
//! failure on the *first* inverted acquisition, whether or not the
//! schedule would actually have deadlocked.
//!
//! Release builds compile the checker away; an [`OrderedMutex`] is
//! then exactly a [`std::sync::Mutex`] plus two words of metadata.
//!
//! Ranks are assigned once, centrally (see [`ranks`]), so the global
//! acquisition order is documented in one place.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A total order over runtime locks. Locks must be acquired in
/// strictly increasing rank order within a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank(pub u16);

/// The runtime's global lock order. Add new locks here, in the order
/// they may be nested (outermost first); never reuse a rank.
pub mod ranks {
    use super::LockRank;

    /// Model-registry shard map (publish / resolve / recover). Outermost:
    /// a publisher may hold it while writing checkpoints, and a shard
    /// adopting a new version resolves before touching server state.
    pub const MODEL_REGISTRY: LockRank = LockRank(5);
    /// Checkpoint-manager directory state (reserved; the manager is
    /// currently single-threaded).
    pub const CHECKPOINT_DIR: LockRank = LockRank(20);
}

#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (and names) of locks this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<(LockRank, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn push(rank: LockRank, name: &'static str) {
        HELD.with(|h| {
            let h = h.borrow();
            if let Some(&(top_rank, top_name)) = h.last() {
                assert!(
                    rank > top_rank,
                    "lock order inversion: acquiring `{name}` (rank {}) while holding \
                     `{top_name}` (rank {}); locks must be taken in increasing rank order \
                     (see voyager_runtime::lockorder::ranks)",
                    rank.0,
                    top_rank.0,
                );
            }
            drop(h);
        });
        HELD.with(|h| h.borrow_mut().push((rank, name)));
    }

    pub(super) fn pop(rank: LockRank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            // Guards usually drop LIFO, but `drop(a); drop(b)` out of
            // order is legal: remove the most recent entry with this
            // rank.
            if let Some(pos) = h.iter().rposition(|&(r, _)| r == rank) {
                h.remove(pos);
            }
        });
    }
}

/// A [`Mutex`] with a [`LockRank`] and a name, enforcing the global
/// acquisition order under `debug_assertions`.
///
/// Poisoning is absorbed: a panic while holding the lock leaves the
/// protected value in its last consistent state rather than making
/// every later acquisition return an error (the runtime's locks guard
/// monotonic counters, where this is always safe).
#[derive(Debug)]
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` with the given rank and diagnostic name.
    pub fn new(name: &'static str, rank: LockRank, value: T) -> Self {
        OrderedMutex {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// The diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The rank in the global order.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, blocking like [`Mutex::lock`].
    ///
    /// # Panics
    ///
    /// Under `debug_assertions`, panics if this thread already holds a
    /// lock of equal or higher rank (an ordering inversion).
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::push(self.rank, self.name);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedGuard {
            guard,
            rank: self.rank,
        }
    }
}

/// Guard returned by [`OrderedMutex::lock`]; releases the lock (and
/// pops the rank from the thread's held set) on drop.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    rank: LockRank,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.rank);
        #[cfg(not(debug_assertions))]
        let _ = self.rank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_locks() -> (OrderedMutex<u32>, OrderedMutex<u32>) {
        (
            OrderedMutex::new("low", LockRank(1), 0),
            OrderedMutex::new("high", LockRank(2), 0),
        )
    }

    #[test]
    fn increasing_rank_order_is_allowed() {
        let (low, high) = two_locks();
        let a = low.lock();
        let b = high.lock();
        drop(b);
        drop(a);
        // And again: the held set is properly unwound.
        let _a = low.lock();
        let _b = high.lock();
    }

    #[test]
    fn release_resets_the_order() {
        let (low, high) = two_locks();
        drop(high.lock());
        // `high` released: taking `low` afterwards is fine.
        let _a = low.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order inversion")]
    fn inversion_panics_under_debug_assertions() {
        let (low, high) = two_locks();
        let _b = high.lock();
        let _a = low.lock(); // rank 1 while holding rank 2: inversion
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order inversion")]
    fn same_rank_reentry_panics() {
        let a = OrderedMutex::new("a", LockRank(5), 0);
        let b = OrderedMutex::new("b", LockRank(5), 0);
        let _ga = a.lock();
        let _gb = b.lock(); // equal rank is also an inversion
    }

    #[test]
    fn out_of_order_guard_drops_are_tracked() {
        let (low, high) = two_locks();
        let a = low.lock();
        let b = high.lock();
        drop(a); // dropped before b: rposition removes the right entry
        let _c = high.rank(); // silence unused warnings deterministically
        drop(b);
        let _a = low.lock();
        let _b = high.lock();
    }

    #[test]
    fn ranks_are_orderable_and_threads_are_independent() {
        assert!(ranks::MODEL_REGISTRY < ranks::CHECKPOINT_DIR);
        let (low, high) = two_locks();
        let _b = high.lock();
        // Another thread's held set is its own: taking `low` there is
        // legal even while this thread holds `high`.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _a = low.lock();
            });
        });
    }

    #[test]
    fn poisoned_lock_recovers_last_value() {
        let m = std::sync::Arc::new(OrderedMutex::new("p", LockRank(9), 7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 8;
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 8);
    }
}
