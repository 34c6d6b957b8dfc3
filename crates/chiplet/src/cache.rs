//! A keyed memo over SiP evaluations: a thin wrapper over the core
//! [`ProvenanceMemo`], the same lookup-or-compute path behind
//! [`ScenarioCache`](nanocost_core::ScenarioCache).
//!
//! Crossover sweeps revisit the same `(λ, s_d, N_tr, V, n)` lattice
//! points from both the figure bin and the query server, so the
//! chiplet model gets the same treatment as eqs. 4/5/7: quantized-key
//! LRU memoization where a traced hit replays the stored Eq.-C*
//! provenance verbatim. Hit and miss are indistinguishable to the
//! fingerprint pipeline — the cached==uncached invariant the serve and
//! bench tests pin.
//!
//! Keys go through the core [`quantize`] on the core cache's lattice
//! ([`LAMBDA_QUANTUM_UM`] and friends) so the two caches agree on what
//! "the same scenario" means.

use nanocost_core::{
    quantize, CacheStats, ProvenanceMemo, DEFAULT_CAPACITY, LAMBDA_QUANTUM_UM, SD_QUANTUM,
    TRANSISTOR_QUANTUM,
};
use nanocost_trace::counter;
use nanocost_units::UnitError;

use crate::scenario::{ChipletModels, ChipletReport, ChipletScenario};

/// Quantized identity of one SiP query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SipKey {
    lambda: i64,
    sd: i64,
    transistors: i64,
    units: u64,
    chiplets: u32,
    distinct_designs: u32,
    assembly: &'static str,
}

impl SipKey {
    fn new(s: &ChipletScenario) -> Self {
        SipKey {
            lambda: quantize(s.lambda.microns(), LAMBDA_QUANTUM_UM),
            sd: quantize(s.sd.squares(), SD_QUANTUM),
            transistors: quantize(s.transistors.count(), TRANSISTOR_QUANTUM),
            units: s.units.count(),
            chiplets: s.chiplets,
            distinct_designs: s.distinct_designs,
            assembly: s.assembly.name(),
        }
    }
}

/// Ticks the chiplet cache's trace counters for one lookup.
fn count(hit: bool) {
    if hit {
        counter!("chiplet.cache.hit", 1);
    } else {
        counter!("chiplet.cache.miss", 1);
    }
}

/// A thread-safe memo of SiP evaluations keyed on quantized scenario
/// inputs, with verbatim Eq.-C* provenance replay on hits.
pub struct ChipletCache {
    models: ChipletModels,
    memo: ProvenanceMemo<SipKey, ChipletReport>,
}

impl std::fmt::Debug for ChipletCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ChipletCache")
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .finish_non_exhaustive()
    }
}

impl ChipletCache {
    /// Builds a cache over the given model stack with the given LRU
    /// capacity (clamped to at least one entry).
    #[must_use]
    pub fn new(models: ChipletModels, capacity: usize) -> Self {
        ChipletCache {
            models,
            memo: ProvenanceMemo::new(capacity, count),
        }
    }

    /// The cache over [`ChipletModels::defaults`] at the core cache's
    /// default capacity.
    ///
    /// # Errors
    ///
    /// Propagates [`UnitError`] from the default model constants
    /// (pinned valid by the test suite).
    pub fn defaults() -> Result<Self, UnitError> {
        Ok(ChipletCache::new(ChipletModels::defaults()?, DEFAULT_CAPACITY))
    }

    /// SiP evaluation through the cache; identical in value and
    /// provenance to calling [`ChipletModels::evaluate`] (the memo's
    /// replay rules are on [`ProvenanceMemo::get_or_compute`]).
    ///
    /// # Errors
    ///
    /// As [`ChipletModels::evaluate`]; errors are never cached.
    pub fn evaluate(&self, scenario: &ChipletScenario) -> Result<ChipletReport, UnitError> {
        // Validate before keying so degenerate scenarios (chiplets = 0,
        // inconsistent distinct_designs) never touch the table.
        scenario.validate()?;
        self.memo
            .get_or_compute(SipKey::new(scenario), || self.models.evaluate(scenario))
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::AssemblyKind;
    use nanocost_trace::export::{Exporter, JsonlExporter};
    use nanocost_trace::record::RecordKind;
    use nanocost_trace::with_collector;
    use nanocost_units::{ChipCount, DecompressionIndex, FeatureSize, TransistorCount};

    fn scenario(chiplets: u32) -> ChipletScenario {
        ChipletScenario {
            lambda: FeatureSize::from_microns(0.07).unwrap(),
            sd: DecompressionIndex::new(300.0).unwrap(),
            transistors: TransistorCount::from_millions(400.0),
            units: ChipCount::new(1_000_000),
            chiplets,
            distinct_designs: 1,
            assembly: AssemblyKind::Rdl,
        }
    }

    #[test]
    fn hit_returns_the_same_value_and_counts() {
        let cache = ChipletCache::defaults().unwrap();
        let a = cache.evaluate(&scenario(4)).unwrap();
        let b = cache.evaluate(&scenario(4)).unwrap();
        assert_eq!(a.unit_cost.amount().to_bits(), b.unit_cost.amount().to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_split_counts_are_distinct_entries() {
        let cache = ChipletCache::defaults().unwrap();
        cache.evaluate(&scenario(1)).unwrap();
        cache.evaluate(&scenario(2)).unwrap();
        let mut s = scenario(2);
        s.assembly = AssemblyKind::SiliconInterposer;
        cache.evaluate(&s).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ChipletCache::defaults().unwrap();
        let mut bad = scenario(4);
        bad.distinct_designs = 9;
        assert!(cache.evaluate(&bad).is_err());
        assert!(cache.evaluate(&bad).is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    /// Renders provenance records to JSONL with the volatile timestamp
    /// prefix stripped, for hit-vs-miss comparison.
    fn rendered_provenance(records: &[nanocost_trace::record::Record]) -> Vec<String> {
        let mut exporter = JsonlExporter::new();
        records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Provenance { .. }))
            .map(|r| {
                let line = exporter.render(r);
                let tail = line.find(",\"thread\"").map_or(0, |i| i);
                line[tail..].to_string()
            })
            .collect()
    }

    #[test]
    fn hits_replay_identical_provenance() {
        let cache = ChipletCache::defaults().unwrap();
        let s = scenario(4);
        let (miss_records, _) = with_collector(|| {
            cache.evaluate(&s).unwrap();
        });
        let (hit_records, _) = with_collector(|| {
            cache.evaluate(&s).unwrap();
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let miss = rendered_provenance(&miss_records);
        let hit = rendered_provenance(&hit_records);
        assert!(!miss.is_empty());
        assert_eq!(miss, hit);
        // The full chiplet chain is present: C1, C2 (die + substrate),
        // C3, C4, C5, plus the NRE's paper eq. 5/6 emissions.
        for wanted in ["Eq.C1", "Eq.C2", "Eq.C3", "Eq.C4", "Eq.C5", "Eq.5", "Eq.6"] {
            assert!(
                miss.iter().any(|l| l.contains(&format!("\"equation\":\"{wanted}\""))),
                "missing {wanted} in {miss:?}"
            );
        }
    }
}
