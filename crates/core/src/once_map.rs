//! The exactly-once map behind every session cache.
//!
//! Each entry is an `Arc<OnceLock<...>>`. The outer map is locked only
//! long enough to clone the entry, so initializers for *different* keys
//! run concurrently, while callers racing for the *same* key block on
//! one shared `OnceLock` initializer instead of computing twice. Errors
//! are retained like values: every cached computation is deterministic
//! in its key, so retrying a failed key could only fail the same way.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::StudyError;

type Slot<V> = Arc<OnceLock<Result<Arc<V>, StudyError>>>;

/// A thread-safe map from `K` to a value computed at most once.
pub(crate) struct OnceMap<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    computed: AtomicU64,
    reused: AtomicU64,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> OnceMap<K, V> {
        OnceMap {
            map: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }
}

impl<K, V> fmt::Debug for OnceMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnceMap")
            .field("len", &self.len())
            .field("computed", &self.computed())
            .field("reused", &self.reused())
            .finish()
    }
}

impl<K, V> OnceMap<K, V> {
    /// Number of keys present (computed, failed, or in flight).
    pub(crate) fn len(&self) -> usize {
        // An insert either happened or did not, so a poisoned map is
        // still consistent.
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// How many lookups ran their initializer.
    pub(crate) fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// How many lookups were answered without running their
    /// initializer (a finished entry, or one another caller was
    /// computing).
    pub(crate) fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

impl<K: Eq + Hash, V> OnceMap<K, V> {
    /// Looks up `key`, running `init` on a miss. Exactly one caller per
    /// key runs its initializer, even under concurrent lookups.
    pub(crate) fn get_or_init(
        &self,
        key: K,
        init: impl FnOnce() -> Result<V, StudyError>,
    ) -> Result<Arc<V>, StudyError> {
        let slot = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let mut ran = false;
        let result = slot
            .get_or_init(|| {
                ran = true;
                init().map(Arc::new)
            })
            .clone();
        let counter = if ran { &self.computed } else { &self.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Whether an entry at `key` is present (computed, failed, or in
    /// flight), without waiting for it.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains_key(key)
    }

    /// The entry at `key` if one is present, waiting for it if another
    /// caller is still computing it; `None` (and no entry created)
    /// otherwise.
    pub(crate) fn get(&self, key: &K) -> Option<Result<Arc<V>, StudyError>> {
        let slot = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .map(Arc::clone)?;
        self.reused.fetch_add(1, Ordering::Relaxed);
        Some(slot.wait().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_key_is_computed_once_and_errors_are_retained() {
        let m: OnceMap<u32, u32> = OnceMap::default();
        assert_eq!(*m.get_or_init(1, || Ok(10)).expect("computed"), 10);
        assert_eq!(*m.get_or_init(1, || Ok(99)).expect("reused"), 10);
        let err = StudyError::TableRow {
            got: 1,
            expected: 2,
        };
        assert_eq!(m.get_or_init(2, || Err(err.clone())), Err(err.clone()));
        assert_eq!(
            m.get_or_init(2, || Ok(7)),
            Err(err),
            "the error is retained"
        );
        assert_eq!((m.len(), m.computed(), m.reused()), (2, 2, 2));
        assert_eq!(m.get(&1).map(|r| r.map(|v| *v)), Some(Ok(10)));
        assert!(m.get(&3).is_none());
        assert!(m.contains(&2) && !m.contains(&3));
        assert_eq!(m.len(), 2, "a miss creates no entry");
    }
}
