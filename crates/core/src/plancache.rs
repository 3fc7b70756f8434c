//! The tuned-plan cache: the serving front end of the autotuner.
//!
//! Tuning is cheap once (~ms of cost-model sweeps) but a serving
//! process re-tunes the *same* program at the *same* geometry on every
//! request; ROADMAP item 4 calls for a production-shaped cache so the
//! repeated requests skip the sweep entirely. [`PlanCache`] memoizes
//! the winning [`Candidate`] of a finished search under a [`PlanKey`]
//! — (structural program hash, cluster shape, config-grid fingerprint)
//! — with bounded LRU eviction, and
//! [`Autotuner::tune_cached`](crate::Autotuner::tune_cached) consults
//! it before searching. A warm hit returns the cached winner
//! bit-identical to the cold one (the search is deterministic, so
//! caching is a pure work-saver, like memoization and pruning before
//! it) in microseconds instead of milliseconds.
//!
//! Recency is tracked with a logical access counter, so eviction order
//! is deterministic; wall-clock enters only the answering entry's age
//! ([`CacheStats::hit_age`]).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::autotune::Candidate;

/// The composite cache key. Equal keys mean the cold search would
/// provably produce the same winner: the program is structurally
/// identical, the evaluator's machine model and the binding's geometry
/// and sizes match, and the tuner would sweep the same grid to the
/// same depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`structural_hash`](crate::structural_hash) of the program
    /// (isomorphism-invariant, so renamed-but-identical programs hit).
    pub program: u64,
    /// The cluster-shape component: the evaluator's
    /// [`fingerprint`](crate::PlanEvaluator::fingerprint) mixed with
    /// the binding's group geometry and symbol sizes.
    pub cluster: u64,
    /// The tuner's
    /// [`grid_fingerprint`](crate::Autotuner::grid_fingerprint).
    pub grid: u64,
}

/// Cumulative cache counters (plus the answering entry's age on a
/// hit), surfaced through
/// [`TuneReport::cache`](crate::TuneReport::cache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to a full search.
    pub misses: usize,
    /// Entries evicted to keep the cache within capacity.
    pub evictions: usize,
    /// Age of the entry that answered (time since insertion), set only
    /// on a report produced by a cache hit.
    pub hit_age: Option<Duration>,
}

/// One cached winner plus its bookkeeping.
#[derive(Clone, Debug)]
struct Entry {
    winner: Candidate,
    /// Logical timestamp of the last hit (or the insertion), for LRU.
    last_used: u64,
    /// Wall-clock insertion instant, for the age statistics.
    inserted: Instant,
}

/// A bounded LRU cache of tuned-plan winners. See the module docs.
#[derive(Clone, Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<PlanKey, Entry>,
    /// Logical clock: bumped on every get/insert, so LRU order is
    /// deterministic regardless of wall-clock resolution.
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` winners (at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, returning the cached winner and its age and
    /// marking the entry most-recently-used. Counts a hit or a miss.
    pub fn get(&mut self, key: &PlanKey) -> Option<(Candidate, Duration)> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some((entry.winner.clone(), entry.inserted.elapsed()))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs `winner` under `key`, evicting the least-recently-used
    /// entry if the cache is full (re-inserting an existing key just
    /// refreshes it — no eviction).
    pub fn insert(&mut self, key: PlanKey, winner: Candidate) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Ties on last_used cannot happen (the logical clock is
            // strictly monotone), so the victim is unique.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache at capacity");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            key,
            Entry {
                winner,
                last_used: self.tick,
                inserted: Instant::now(),
            },
        );
    }

    /// Cumulative counters since construction (`hit_age` unset — the
    /// caller fills it for hit reports).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            hit_age: None,
        }
    }

    /// Number of cached winners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no winners.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bound this cache evicts down to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommConfig;

    fn candidate(tag: &str) -> Candidate {
        Candidate {
            schedule: vec![tag.to_string()],
            program: crate::Program::new(tag),
            config: CommConfig::default(),
            time: 1.0,
        }
    }

    fn key(n: u64) -> PlanKey {
        PlanKey {
            program: n,
            cluster: 7,
            grid: 11,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), candidate("a"));
        cache.insert(key(2), candidate("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), candidate("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), candidate("a"));
        cache.insert(key(2), candidate("b"));
        cache.insert(key(1), candidate("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        let (winner, _) = cache.get(&key(1)).expect("refreshed entry");
        assert_eq!(winner.schedule, vec!["a2".to_string()]);
    }

    #[test]
    fn capacity_floor() {
        let mut cache = PlanCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert!(cache.is_empty());
        cache.insert(key(1), candidate("a"));
        cache.insert(key(2), candidate("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn distinct_key_components_miss() {
        let mut cache = PlanCache::new(4);
        let base = PlanKey {
            program: 1,
            cluster: 2,
            grid: 3,
        };
        cache.insert(base, candidate("a"));
        for changed in [
            PlanKey { program: 9, ..base },
            PlanKey { cluster: 9, ..base },
            PlanKey { grid: 9, ..base },
        ] {
            assert!(cache.get(&changed).is_none());
        }
        assert!(cache.get(&base).is_some());
    }
}
