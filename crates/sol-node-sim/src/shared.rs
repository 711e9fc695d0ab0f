//! Shared handles to simulated nodes.
//!
//! An agent's `Model` and `Actuator` both need access to the same node (one
//! reads counters, the other changes hardware settings), and the SOL runtime
//! needs to advance the node's simulated time. [`Shared`] wraps a node so all
//! three can hold handles, whichever thread advances the node.
//!
//! # Locking model
//!
//! A plain mutex pays its full acquire/release cost on every access, yet
//! during a simulation segment a node is owned by exactly one worker thread:
//! the runtime advances the environment and steps every agent from the same
//! thread, so the ~5 lock round-trips per event are pure overhead. `Shared`
//! therefore layers an owner fast path over a spin lock:
//!
//! * [`Shared::scope`] acquires the lock once and returns an [`EnvGuard`]
//!   that keeps it held, tagged with the calling thread. The guard is a plain
//!   value (it holds its own handle to the node), so an environment such as
//!   [`MultiNode`](crate::multi_node::MultiNode) can open scopes on its
//!   substrates in [`Environment::begin_batch`] and store them until
//!   [`Environment::end_batch`].
//! * While a scope is open, [`Shared::with`] and [`Shared::lock`] from the
//!   owning thread skip the lock entirely: one relaxed atomic load plus a
//!   borrow flag that turns aliasing into a panic (the old design deadlocked
//!   on re-entrant access; the panic is strictly more debuggable).
//! * Without a scope — tests, fleet barriers — every access acquires and
//!   releases the lock as before.
//!
//! Dropping an [`EnvGuard`] while a borrow from [`lock`](Shared::lock) is
//! still outstanding panics: releasing the lock under a live borrow would
//! hand another thread aliased access.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sol_core::runtime::placement::{NodePlacement, PlacementError, WorkloadId, WorkloadUnit};
use sol_core::runtime::Environment;
use sol_core::time::Timestamp;
use sol_ml::footprint::MemoryFootprint;

/// A stable, non-zero identifier for the current thread (the address of a
/// thread-local), used to tag lock ownership.
fn thread_key() -> usize {
    thread_local! {
        static KEY: u8 = const { 0 };
    }
    KEY.with(|k| k as *const u8 as usize)
}

/// The lock word + value cell shared by every handle to one node.
struct SharedInner<T> {
    /// 0 when unlocked, otherwise the [`thread_key`] of the holder.
    state: AtomicUsize,
    /// Whether a `&mut T` borrow is currently handed out. Only ever touched
    /// by the thread named in `state`, so relaxed ordering suffices.
    borrowed: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the value is only reachable through the lock/borrow protocol below,
// which hands out at most one `&mut T` at a time, so sharing the inner cell
// across threads requires exactly what a mutex would: `T: Send`.
unsafe impl<T: Send> Send for SharedInner<T> {}
unsafe impl<T: Send> Sync for SharedInner<T> {}

impl<T> SharedInner<T> {
    /// Spins until the lock transitions unlocked → owned by `key`.
    fn acquire(&self, key: usize) {
        let mut spins = 0u32;
        while self
            .state
            .compare_exchange_weak(0, key, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // Contention is rare (cross-thread access only happens at
                // fleet barriers); be a good citizen.
                std::thread::yield_now();
            }
        }
    }

    /// Flags the single outstanding `&mut T` borrow.
    ///
    /// # Panics
    ///
    /// Panics if a borrow is already live — the re-entrant access that used
    /// to deadlock on the old mutex.
    fn enter_borrow(&self) {
        // Load + store, not an atomic RMW: only the thread named in `state`
        // reaches this, so there is no race to defend against and the flag
        // costs two plain memory ops on the fast path.
        if self.borrowed.load(Ordering::Relaxed) {
            panic!("Shared: node already borrowed on this thread (re-entrant lock/with)");
        }
        self.borrowed.store(true, Ordering::Relaxed);
    }
}

/// A cloneable, thread-safe handle to a simulated node.
///
/// # Examples
///
/// ```
/// use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
/// use sol_node_sim::shared::Shared;
/// use sol_node_sim::workload::OverclockWorkloadKind;
///
/// let node = CpuNode::new(OverclockWorkloadKind::Synthetic.build(8), CpuNodeConfig::default());
/// let shared = Shared::new(node);
/// let other = shared.clone();
/// shared.lock().set_frequency_ghz(1.9);
/// assert_eq!(other.lock().frequency_ghz(), 1.9);
/// ```
pub struct Shared<T> {
    inner: Arc<SharedInner<T>>,
}

impl<T> Shared<T> {
    /// Wraps a node in a shared handle.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(SharedInner {
                state: AtomicUsize::new(0),
                borrowed: AtomicBool::new(false),
                value: UnsafeCell::new(value),
            }),
        }
    }

    /// Locks the node for exclusive access.
    ///
    /// Inside an open [`scope`](Self::scope) on the same thread this is a
    /// borrow-flag check, not a lock acquisition.
    ///
    /// # Panics
    ///
    /// Panics on re-entrant locking from the same thread (two live guards
    /// would alias the node).
    pub fn lock(&self) -> SharedGuard<'_, T> {
        let key = thread_key();
        if self.inner.state.load(Ordering::Relaxed) == key {
            // This thread already holds the lock (an open scope, or a bug —
            // the borrow flag distinguishes them).
            self.inner.enter_borrow();
            SharedGuard { inner: &self.inner, owns_lock: false, _not_send: PhantomData }
        } else {
            self.inner.acquire(key);
            self.inner.borrowed.store(true, Ordering::Relaxed);
            SharedGuard { inner: &self.inner, owns_lock: true, _not_send: PhantomData }
        }
    }

    /// Runs a closure with exclusive access to the node and returns its
    /// result.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock())
    }

    /// Acquires the lock for a whole simulation segment and returns a guard
    /// that keeps it held. While the guard lives, every
    /// [`with`](Self::with)/[`lock`](Self::lock) from this thread takes the
    /// borrow-flag fast path. The guard owns its own handle to the node, so
    /// it can be stored (e.g. by a composite environment between
    /// `begin_batch` and `end_batch`).
    ///
    /// # Panics
    ///
    /// Panics if this thread already holds the lock (nested scopes have no
    /// meaningful owner to return to).
    pub fn scope(&self) -> EnvGuard<T> {
        let key = thread_key();
        assert!(
            self.inner.state.load(Ordering::Relaxed) != key,
            "Shared: scope() while this thread already holds the lock"
        );
        self.inner.acquire(key);
        EnvGuard { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Reading the value requires the lock; don't block (or panic) inside
        // Debug. Report what can be read without touching the value.
        let state = self.inner.state.load(Ordering::Relaxed);
        f.debug_struct("Shared")
            .field("locked", &(state != 0))
            .field("handles", &Arc::strong_count(&self.inner))
            .finish_non_exhaustive()
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared { inner: Arc::clone(&self.inner) }
    }
}

/// Exclusive access to the node behind a [`Shared`] handle (see
/// [`Shared::lock`]).
pub struct SharedGuard<'a, T> {
    inner: &'a SharedInner<T>,
    /// Whether dropping this guard releases the lock word (false when the
    /// guard rides an enclosing [`EnvGuard`] scope).
    owns_lock: bool,
    /// Keeps the guard on its creating thread, like a mutex guard: the lock
    /// word stores this thread's key.
    _not_send: PhantomData<*mut T>,
}

impl<T> std::ops::Deref for SharedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the borrow flag guarantees this is the only live guard, and
        // the lock word keeps other threads out.
        unsafe { &*self.inner.value.get() }
    }
}

impl<T> std::ops::DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.inner.value.get() }
    }
}

impl<T> Drop for SharedGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.borrowed.store(false, Ordering::Relaxed);
        if self.owns_lock {
            self.inner.state.store(0, Ordering::Release);
        }
    }
}

/// Holds a [`Shared`] node's lock open for a whole simulation segment (see
/// [`Shared::scope`]).
///
/// The guard is a plain storable value: it owns a handle to the node and
/// releases the lock when dropped. It deliberately exposes no access to the
/// value — access keeps flowing through [`Shared::with`]/[`Shared::lock`],
/// which detect the open scope and skip the lock acquisition.
pub struct EnvGuard<T> {
    inner: Arc<SharedInner<T>>,
}

impl<T> Drop for EnvGuard<T> {
    fn drop(&mut self) {
        assert!(
            !self.inner.borrowed.load(Ordering::Relaxed),
            "Shared: scope dropped while a borrow is outstanding"
        );
        self.inner.state.store(0, Ordering::Release);
    }
}

impl<T> std::fmt::Debug for EnvGuard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvGuard").finish_non_exhaustive()
    }
}

impl<T: Environment> Environment for Shared<T> {
    fn advance_to(&mut self, now: Timestamp) {
        self.with(|n| n.advance_to(now));
    }

    fn mem_bytes(&self) -> usize {
        self.with(|n| n.mem_bytes())
    }

    // The placement hooks must forward too, or a shared placeable node would
    // silently fall back to the "no placeable slots" defaults.
    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        self.with(|n| n.attach_workload(unit))
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        self.with(|n| n.detach_workload(id))
    }

    fn placement(&self) -> NodePlacement {
        self.with(|n| n.placement())
    }
}

impl<T: MemoryFootprint> MemoryFootprint for Shared<T> {
    fn mem_bytes(&self) -> usize {
        // The value sits inline in `SharedInner`; add only the heap bytes it
        // owns on top of the cell itself.
        std::mem::size_of::<Self>()
            + std::mem::size_of::<SharedInner<T>>()
            + self.with(|n| n.mem_bytes()).saturating_sub(std::mem::size_of::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig};

    #[test]
    fn clones_share_state() {
        let node =
            Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()));
        let other = node.clone();
        node.lock().set_primary_cores(3);
        assert_eq!(other.lock().primary_cores(), 3);
    }

    #[test]
    fn environment_impl_advances_inner_node() {
        let mut node =
            Shared::new(HarvestNode::new(BurstyService::moses(), HarvestNodeConfig::default()));
        node.advance_to(Timestamp::from_secs(2));
        assert_eq!(node.lock().now(), Timestamp::from_secs(2));
    }

    #[test]
    fn with_returns_closure_result() {
        let node =
            Shared::new(HarvestNode::new(BurstyService::moses(), HarvestNodeConfig::default()));
        let cores = node.with(|n| n.total_cores());
        assert_eq!(cores, 8);
    }

    #[test]
    fn scope_keeps_access_working_on_the_owning_thread() {
        let node = Shared::new(7u64);
        let guard = node.scope();
        // All of these ride the open scope without re-acquiring the lock.
        node.with(|v| *v += 1);
        *node.lock() += 1;
        assert_eq!(node.with(|v| *v), 9);
        drop(guard);
        assert_eq!(node.with(|v| *v), 9);
    }

    #[test]
    fn scope_excludes_other_threads_until_dropped() {
        let node = Shared::new(0u64);
        let guard = node.scope();
        node.with(|v| *v = 5);
        let other = node.clone();
        let t = std::thread::spawn(move || {
            // Blocks until the scope is released, then sees its writes.
            other.with(|v| {
                assert_eq!(*v, 5);
                *v = 6;
            });
        });
        // Give the spawned thread a moment to hit the lock, then release.
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(guard);
        t.join().unwrap();
        assert_eq!(node.with(|v| *v), 6);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn reentrant_access_inside_a_scope_panics_instead_of_deadlocking() {
        let node = Shared::new(0u64);
        let _guard = node.scope();
        let inner = node.clone();
        node.with(|_| {
            inner.with(|_| {});
        });
    }

    #[test]
    #[should_panic(expected = "already holds the lock")]
    fn nested_scopes_on_one_thread_panic() {
        let node = Shared::new(0u64);
        let _a = node.scope();
        let _b = node.scope();
    }

    #[test]
    fn cross_thread_mutation_without_scope_still_locks() {
        let node = Shared::new(0u64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = node.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        n.with(|v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(node.with(|v| *v), 4000);
    }
}
