//! A keyed scenario cache and batch evaluator over the cost model.
//!
//! The paper frames eqs. 1–7 as *queries* a design team asks repeatedly
//! while exploring the `(λ, s_d, N_tr, N_w, Y)` space — and the queries
//! overlap heavily: Figure 4's two panels share every node's mask cost
//! (eq. 5), and an interactive sweep revisits the same grid points over
//! and over. [`ScenarioCache`] memoizes the shared subterms — eq.-4
//! cost breakdowns, eq.-5 mask-set costs, eq.-7 generalized reports,
//! and located §3.1 optima — behind quantized-input keys with LRU
//! eviction.
//!
//! The cache is provenance-transparent: on a miss while tracing is
//! enabled, the evaluation runs under a
//! [`nanocost_trace::with_capture`] frame and the captured
//! Eq.-provenance records are stored with the value; on a hit they are
//! replayed verbatim. A traced sweep therefore produces the *same*
//! provenance multiset — and the same pipeline fingerprint — whether
//! it was served from the cache or computed fresh.
//!
//! While tracing is *disabled* the capture is skipped entirely — a
//! `with_capture` frame would force-enable the instrumentation macros
//! and pay their record-materialization cost for nobody — and the
//! entry is stored replay-less. Should tracing later be enabled and
//! hit such an entry, the cache recomputes it under capture (counted
//! as a miss) so the provenance invariant holds unconditionally.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use nanocost_fab::MaskCostModel;
use nanocost_trace::record::RecordKind;
use nanocost_trace::value::Field;
use nanocost_trace::{counter, provenance, with_capture};
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::generalized::{DesignPoint, GeneralizedCostModel, GeneralizedReport};
use crate::optimize::{optimal_sd_total, DensityOptimum, OptimizeError};
use crate::total::{CostBreakdown, TotalCostModel};

/// Key quantum for feature size `λ`, in microns (eq. 1's node axis).
/// Two lambdas within the same 1 fm bucket share a cache entry.
pub const LAMBDA_QUANTUM_UM: f64 = 1e-9;

/// Key quantum for the decompression index `s_d` (eq. 2's density axis).
pub const SD_QUANTUM: f64 = 1e-6;

/// Key quantum for the transistor count `N_tr` (eq. 4): one transistor.
pub const TRANSISTOR_QUANTUM: f64 = 1.0;

/// Key quantum for yield `Y` (eq. 3).
pub const YIELD_QUANTUM: f64 = 1e-9;

/// Key quantum for dollar-valued inputs such as the eq.-5 mask-set
/// cost, in dollars.
pub const DOLLARS_QUANTUM: f64 = 1e-3;

/// Default per-table entry capacity of [`ScenarioCache::paper_figure4`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// Entry bound of the §3.1 optima table, whatever the per-table
/// capacity. Each optimum keeps its whole search's provenance stream
/// (~850 records, ~290 KB) for traced replay, so 4096 of them would
/// pin ~1.1 GB; 256 matches the serve trace ring's default depth.
pub const OPTIMA_CAPACITY: usize = 256;

/// Quantizes one raw input coordinate onto its key lattice.
fn quantize(x: f64, quantum: f64) -> i64 {
    let q = (x / quantum).round();
    // Saturate rather than wrap for absurd magnitudes; such keys still
    // compare consistently, they just stop distinguishing infinities.
    if q >= i64::MAX as f64 {
        i64::MAX
    } else if q <= i64::MIN as f64 {
        i64::MIN
    } else {
        q as i64
    }
}

/// Quantized identity of one eq.-4 query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PointKey {
    lambda: i64,
    sd: i64,
    transistors: i64,
    volume: u64,
    fab_yield: i64,
    mask_cost: i64,
}

impl PointKey {
    fn new(
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
        volume: WaferCount,
        fab_yield: Yield,
        mask_cost: Dollars,
    ) -> Self {
        PointKey {
            lambda: quantize(lambda.microns(), LAMBDA_QUANTUM_UM),
            sd: quantize(sd.squares(), SD_QUANTUM),
            transistors: quantize(transistors.count(), TRANSISTOR_QUANTUM),
            volume: volume.count(),
            fab_yield: quantize(fab_yield.value(), YIELD_QUANTUM),
            mask_cost: quantize(mask_cost.amount(), DOLLARS_QUANTUM),
        }
    }
}

/// Quantized identity of one eq.-7 query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeneralizedKey {
    lambda: i64,
    sd: i64,
    transistors: i64,
    volume: u64,
}

impl GeneralizedKey {
    fn new(point: DesignPoint) -> Self {
        GeneralizedKey {
            lambda: quantize(point.lambda.microns(), LAMBDA_QUANTUM_UM),
            sd: quantize(point.sd.squares(), SD_QUANTUM),
            transistors: quantize(point.transistors.count(), TRANSISTOR_QUANTUM),
            volume: point.volume.count(),
        }
    }
}

/// Quantized identity of one §3.1 optimum search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OptimumKey {
    lambda: i64,
    transistors: i64,
    volume: u64,
    fab_yield: i64,
    mask_cost: i64,
    sd_lo: i64,
    sd_hi: i64,
}

/// One stored provenance record, replayed verbatim on every cache hit
/// so hit and miss paths are indistinguishable to the eq.-fingerprint
/// pipeline.
#[derive(Debug, Clone)]
struct ReplayRecord {
    equation: nanocost_trace::provenance::Equation,
    function: &'static str,
    inputs: Vec<Field>,
    outputs: Vec<Field>,
}

/// Extracts the provenance records from a capture frame.
fn replay_of(records: &[nanocost_trace::record::Record]) -> Vec<ReplayRecord> {
    records
        .iter()
        .filter_map(|r| match &r.kind {
            RecordKind::Provenance {
                equation,
                function,
                inputs,
                outputs,
                ..
            } => Some(ReplayRecord {
                equation: *equation,
                function,
                inputs: inputs.clone(),
                outputs: outputs.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// Re-emits stored provenance (cheap no-op when tracing is disabled).
fn replay(replay: &[ReplayRecord]) {
    if !nanocost_trace::is_enabled() {
        return;
    }
    for r in replay {
        provenance::emit(r.equation, r.function, r.inputs.clone(), r.outputs.clone());
    }
}

struct LruEntry<V> {
    stamp: u64,
    value: V,
    // Shared so a hit hands back the replay by refcount bump instead of
    // deep-cloning what can be an ~850-record optimum-search stream.
    // `None` marks an entry stored while tracing was disabled; a traced
    // computation that emitted zero provenance stores `Some(empty)`,
    // which still counts as captured — the two must not share a
    // sentinel or such entries would recompute on every traced lookup.
    replay: Option<Arc<Vec<ReplayRecord>>>,
}

/// A small LRU map: recency is a monotone stamp, eviction scans for
/// the minimum. O(capacity) eviction is deliberate — capacities are a
/// few thousand entries and the scan is branch-predictable, so this
/// beats a linked-list LRU without any unsafe code.
struct Lru<K, V> {
    map: HashMap<K, LruEntry<V>>,
    capacity: usize,
    clock: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<(V, Option<Arc<Vec<ReplayRecord>>>)> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            (e.value.clone(), e.replay.clone())
        })
    }

    fn insert(&mut self, key: K, value: V, replay: Option<Arc<Vec<ReplayRecord>>>) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(
            key,
            LruEntry {
                stamp: self.clock,
                value,
                replay,
            },
        );
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

struct Inner {
    points: Lru<PointKey, CostBreakdown>,
    masks: Lru<i64, Dollars>,
    reports: Lru<GeneralizedKey, GeneralizedReport>,
    optima: Lru<OptimumKey, DensityOptimum>,
    hits: u64,
    misses: u64,
}

/// Aggregate hit/miss/occupancy counters for one [`ScenarioCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a stored entry.
    pub hits: u64,
    /// Lookups that fell through to a model evaluation.
    pub misses: u64,
    /// Entries currently stored across all tables.
    pub entries: usize,
    /// Per-table entry capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened) — the
    /// figure-of-merit for the paper's repeated-query exploration loop.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One eq.-4 query: everything [`TotalCostModel::transistor_cost`]
/// needs to price a transistor at a design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostQuery {
    /// Process node `λ`.
    pub lambda: FeatureSize,
    /// Decompression index `s_d` (eq. 2).
    pub sd: DecompressionIndex,
    /// Design size `N_tr`.
    pub transistors: TransistorCount,
    /// Production volume `N_w`.
    pub volume: WaferCount,
    /// Assumed fab yield `Y` (eq. 3).
    pub fab_yield: Yield,
    /// Mask-set cost `C_ma` (eq. 5).
    pub mask_cost: Dollars,
}

impl CostQuery {
    fn key(&self) -> PointKey {
        PointKey::new(
            self.lambda,
            self.sd,
            self.transistors,
            self.volume,
            self.fab_yield,
            self.mask_cost,
        )
    }
}

/// A batch of eq.-4 queries evaluated as one unit, deduplicating
/// overlapping grid points through the scenario cache.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// The query points, in response order.
    pub queries: Vec<CostQuery>,
}

/// Cache traffic generated by one [`ScenarioCache::evaluate_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Points requested (including duplicates).
    pub requested: usize,
    /// Distinct quantized keys among the requested points.
    pub unique: usize,
    /// Points answered from the cache.
    pub hits: u64,
    /// Points that required a fresh eq.-4 evaluation.
    pub misses: u64,
}

/// The result of one batch evaluation: per-point eq.-4 breakdowns in
/// request order, plus the cache traffic the batch generated.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// One result per requested query, in order.
    pub results: Vec<Result<CostBreakdown, UnitError>>,
    /// Dedup/hit accounting for this batch alone.
    pub stats: BatchStats,
}

/// A thread-safe memo of cost-model evaluations keyed on quantized
/// inputs, with verbatim Eq.-provenance replay on hits.
///
/// Wraps the three models the repeated queries of §3.1/§4 touch: the
/// eq.-4 [`TotalCostModel`], the eq.-5 [`MaskCostModel`], and the
/// eq.-7 [`GeneralizedCostModel`].
pub struct ScenarioCache {
    model: TotalCostModel,
    mask_model: MaskCostModel,
    generalized: GeneralizedCostModel,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ScenarioCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ScenarioCache")
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .finish_non_exhaustive()
    }
}

impl ScenarioCache {
    /// Builds a cache over the given models with the given per-table
    /// LRU capacity (clamped to at least one entry; the optima table
    /// is further bounded by [`OPTIMA_CAPACITY`]). The models are the
    /// eq.-4/5/7 implementations the cache memoizes.
    #[must_use]
    pub fn new(
        model: TotalCostModel,
        mask_model: MaskCostModel,
        generalized: GeneralizedCostModel,
        capacity: usize,
    ) -> Self {
        ScenarioCache {
            model,
            mask_model,
            generalized,
            inner: Mutex::new(Inner {
                points: Lru::new(capacity),
                masks: Lru::new(capacity),
                reports: Lru::new(capacity),
                optima: Lru::new(capacity.min(OPTIMA_CAPACITY)),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The cache configured exactly as the paper's Figure 4:
    /// [`TotalCostModel::paper_figure4`], the default eq.-5 mask model,
    /// and the nanometer-default eq.-7 model.
    #[must_use]
    pub fn paper_figure4() -> Self {
        ScenarioCache::new(
            TotalCostModel::paper_figure4(),
            MaskCostModel::default(),
            GeneralizedCostModel::nanometer_default(),
            DEFAULT_CAPACITY,
        )
    }

    /// The eq.-4 model this cache evaluates on misses.
    #[must_use]
    pub fn model(&self) -> &TotalCostModel {
        &self.model
    }

    /// The eq.-5 mask model this cache evaluates on misses.
    #[must_use]
    pub fn mask_model(&self) -> &MaskCostModel {
        &self.mask_model
    }

    /// The eq.-7 generalized model this cache evaluates on misses.
    #[must_use]
    pub fn generalized_model(&self) -> &GeneralizedCostModel {
        &self.generalized
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is still structurally sound, so keep serving.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Eq.-4 transistor cost through the cache; identical in value and
    /// provenance to calling [`TotalCostModel::transistor_cost`].
    ///
    /// # Errors
    ///
    /// As the underlying model: domain violations (eq. 6's forbidden
    /// region, zero volume, …). Errors are never cached.
    #[allow(clippy::too_many_arguments)] // mirrors eq. 4's knobs
    pub fn transistor_cost(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
        volume: WaferCount,
        fab_yield: Yield,
        mask_cost: Dollars,
    ) -> Result<CostBreakdown, UnitError> {
        self.transistor_cost_traced(CostQuery {
            lambda,
            sd,
            transistors,
            volume,
            fab_yield,
            mask_cost,
        })
        .map(|(value, _hit)| value)
    }

    /// As [`ScenarioCache::transistor_cost`], also reporting whether
    /// the eq.-4 point was served from the cache.
    fn transistor_cost_traced(
        &self,
        q: CostQuery,
    ) -> Result<(CostBreakdown, bool), UnitError> {
        self.cached(q.key(), |inner| &mut inner.points, || {
            self.model
                .transistor_cost(q.lambda, q.sd, q.transistors, q.volume, q.fab_yield, q.mask_cost)
        })
    }

    /// Eq.-5 mask-set cost through the cache; identical in value and
    /// provenance to calling [`MaskCostModel::mask_set_cost`].
    #[must_use]
    pub fn mask_set_cost(&self, lambda: FeatureSize) -> Dollars {
        let key = quantize(lambda.microns(), LAMBDA_QUANTUM_UM);
        let result: Result<_, std::convert::Infallible> =
            self.cached(key, |inner| &mut inner.masks, || {
                Ok(self.mask_model.mask_set_cost(lambda))
            });
        match result {
            Ok((value, _hit)) => value,
            Err(never) => match never {},
        }
    }

    /// Eq.-7 generalized evaluation through the cache — the yield
    /// surface (eq. 3 by way of eq. 7) plus cost densities at a point.
    ///
    /// # Errors
    ///
    /// As [`GeneralizedCostModel::evaluate`]; errors are never cached.
    pub fn evaluate_generalized(
        &self,
        point: DesignPoint,
    ) -> Result<GeneralizedReport, UnitError> {
        let key = GeneralizedKey::new(point);
        self.cached(key, |inner| &mut inner.reports, || self.generalized.evaluate(point))
            .map(|(value, _hit)| value)
    }

    /// §3.1 optimum search through the cache. A miss runs the full
    /// [`optimal_sd_total`] bracket search and stores its entire
    /// Eq.-provenance stream (every probe), so a traced hit replays
    /// the search's provenance verbatim.
    ///
    /// # Errors
    ///
    /// As [`optimal_sd_total`]; errors are never cached.
    #[allow(clippy::too_many_arguments)] // mirrors eq. 4's knobs plus the bracket
    pub fn optimal_sd(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
        volume: WaferCount,
        fab_yield: Yield,
        mask_cost: Dollars,
        sd_lo: f64,
        sd_hi: f64,
    ) -> Result<DensityOptimum, OptimizeError> {
        let key = OptimumKey {
            lambda: quantize(lambda.microns(), LAMBDA_QUANTUM_UM),
            transistors: quantize(transistors.count(), TRANSISTOR_QUANTUM),
            volume: volume.count(),
            fab_yield: quantize(fab_yield.value(), YIELD_QUANTUM),
            mask_cost: quantize(mask_cost.amount(), DOLLARS_QUANTUM),
            sd_lo: quantize(sd_lo, SD_QUANTUM),
            sd_hi: quantize(sd_hi, SD_QUANTUM),
        };
        self.cached(key, |inner| &mut inner.optima, || {
            optimal_sd_total(
                &self.model,
                lambda,
                transistors,
                volume,
                fab_yield,
                mask_cost,
                sd_lo,
                sd_hi,
            )
        })
        .map(|(value, _hit)| value)
    }

    /// Evaluates a batch of eq.-4 queries in request order. Duplicate
    /// grid points collapse onto one model evaluation: the first
    /// occurrence misses and stores, the rest replay from the cache —
    /// the dedup mechanism the figure-4 and optimum-surface sweeps
    /// share with the query server.
    #[must_use]
    pub fn evaluate_batch(&self, request: &BatchRequest) -> BatchResponse {
        let mut unique = std::collections::HashSet::new();
        for q in &request.queries {
            unique.insert(q.key());
        }
        let mut stats = BatchStats {
            requested: request.queries.len(),
            unique: unique.len(),
            hits: 0,
            misses: 0,
        };
        let results = request
            .queries
            .iter()
            .map(|q| match self.transistor_cost_traced(*q) {
                Ok((value, true)) => {
                    stats.hits += 1;
                    Ok(value)
                }
                Ok((value, false)) => {
                    stats.misses += 1;
                    Ok(value)
                }
                Err(e) => {
                    stats.misses += 1;
                    Err(e)
                }
            })
            .collect();
        BatchResponse { results, stats }
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy — the
    /// observability handle the §4-style serving loop exports.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.points.len()
                + inner.masks.len()
                + inner.reports.len()
                + inner.optima.len(),
            capacity: inner.points.capacity,
        }
    }

    /// Bumps the lifetime hit/miss counters and the corresponding
    /// trace counters (outside the lock).
    fn count(&self, hit: bool) {
        let mut inner = self.lock();
        if hit {
            inner.hits += 1;
            drop(inner);
            counter!("core.cache.hit", 1);
        } else {
            inner.misses += 1;
            drop(inner);
            counter!("core.cache.miss", 1);
        }
    }

    /// The one lookup-or-compute path every cached query goes through.
    ///
    /// With tracing enabled, a miss computes under [`with_capture`] and
    /// stores the provenance for verbatim replay — even when the
    /// capture is legitimately empty, which is distinct from "never
    /// captured". With tracing disabled the capture is skipped (the
    /// instrumentation stays on its free disabled path) and the entry
    /// is stored replay-less (`None`). A hit on a replay-less entry
    /// while tracing *is* enabled would silently drop provenance, so it
    /// is treated as a miss: recomputed under capture and re-stored.
    /// Errors are never cached.
    fn cached<K, V, E>(
        &self,
        key: K,
        table: fn(&mut Inner) -> &mut Lru<K, V>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E>
    where
        K: Eq + Hash + Copy,
        V: Clone,
    {
        let enabled = nanocost_trace::is_enabled();
        let found = table(&mut *self.lock()).get(&key);
        if let Some((value, stored)) = found {
            if !enabled || stored.is_some() {
                self.count(true);
                if let Some(records) = &stored {
                    replay(records);
                }
                return Ok((value, true));
            }
            // Stored while tracing was off; recapture below.
        }
        self.count(false);
        let (stored, result) = if enabled {
            let (records, result) = with_capture(compute);
            (Some(Arc::new(replay_of(&records))), result)
        } else {
            (None, compute())
        };
        let value = result?;
        table(&mut *self.lock()).insert(key, value.clone(), stored);
        Ok((value, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_trace::export::{Exporter, JsonlExporter};
    use nanocost_trace::with_collector;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn query(sd: f64) -> CostQuery {
        CostQuery {
            lambda: um(0.18),
            sd: DecompressionIndex::new(sd).unwrap(),
            transistors: TransistorCount::from_millions(10.0),
            volume: WaferCount::new(5_000).unwrap(),
            fab_yield: Yield::new(0.4).unwrap(),
            mask_cost: Dollars::new(200_000.0),
        }
    }

    fn eval(cache: &ScenarioCache, q: CostQuery) -> CostBreakdown {
        cache
            .transistor_cost(q.lambda, q.sd, q.transistors, q.volume, q.fab_yield, q.mask_cost)
            .unwrap()
    }

    #[test]
    fn hit_returns_the_same_value_and_counts() {
        let cache = ScenarioCache::paper_figure4();
        let a = eval(&cache, query(300.0));
        let b = eval(&cache, query(300.0));
        assert_eq!(a.total().amount().to_bits(), b.total().amount().to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn quantization_boundary_splits_keys() {
        let cache = ScenarioCache::paper_figure4();
        eval(&cache, query(300.0));
        // Within a quarter-quantum of the same lattice point: shares.
        eval(&cache, query(300.0 + SD_QUANTUM * 0.25));
        // Ten quanta away: a distinct entry.
        eval(&cache, query(300.0 + SD_QUANTUM * 10.0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = ScenarioCache::new(
            TotalCostModel::paper_figure4(),
            MaskCostModel::default(),
            GeneralizedCostModel::nanometer_default(),
            2,
        );
        eval(&cache, query(200.0)); // miss: {200}
        eval(&cache, query(300.0)); // miss: {200, 300}
        eval(&cache, query(200.0)); // hit; 300 is now LRU
        eval(&cache, query(400.0)); // miss: evicts 300 -> {200, 400}
        eval(&cache, query(200.0)); // hit (survived)
        eval(&cache, query(300.0)); // miss (was evicted)
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 4));
    }

    #[test]
    fn batch_deduplicates_overlapping_grid_points() {
        let cache = ScenarioCache::paper_figure4();
        let request = BatchRequest {
            queries: vec![query(250.0), query(350.0), query(250.0), query(250.0)],
        };
        let response = cache.evaluate_batch(&request);
        assert_eq!(response.results.len(), 4);
        assert!(response.results.iter().all(|r| r.is_ok()));
        assert_eq!(response.stats.requested, 4);
        assert_eq!(response.stats.unique, 2);
        assert_eq!((response.stats.hits, response.stats.misses), (2, 2));
        let a = response.results[0].as_ref().unwrap().total().amount();
        let c = response.results[2].as_ref().unwrap().total().amount();
        assert_eq!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ScenarioCache::paper_figure4();
        let bad = CostQuery {
            sd: DecompressionIndex::new(50.0).unwrap(), // below s_d0: eq. 6 domain error
            ..query(300.0)
        };
        for _ in 0..2 {
            assert!(cache
                .transistor_cost(
                    bad.lambda,
                    bad.sd,
                    bad.transistors,
                    bad.volume,
                    bad.fab_yield,
                    bad.mask_cost
                )
                .is_err());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn hits_replay_identical_provenance() {
        let cache = ScenarioCache::paper_figure4();
        let render = |records: &[nanocost_trace::record::Record]| -> Vec<String> {
            let mut exporter = JsonlExporter;
            let mut out = Vec::new();
            for r in records {
                if !matches!(r.kind, RecordKind::Provenance { .. }) {
                    continue;
                }
                let mut line = exporter.render(r);
                // Timestamps differ between runs; provenance content
                // must not.
                if let Some(comma) = line.find(",\"thread\"") {
                    line.replace_range(..comma, String::new().as_str());
                }
                out.push(line);
            }
            out
        };
        let (miss_records, _) = with_collector(|| eval(&cache, query(333.0)));
        let (hit_records, _) = with_collector(|| eval(&cache, query(333.0)));
        let miss = render(&miss_records);
        let hit = render(&hit_records);
        assert!(!miss.is_empty(), "miss path must emit provenance");
        assert_eq!(miss, hit, "hit must replay the miss's provenance verbatim");
    }

    #[test]
    fn traced_entries_with_empty_provenance_still_hit() {
        let cache = ScenarioCache::paper_figure4();
        // A traced computation that legitimately emits zero provenance
        // records must be stored as "captured but empty", not "never
        // captured" — conflating the two would recompute such entries
        // on every traced lookup forever.
        let (_, hits) = with_collector(|| {
            (0..3)
                .map(|_| {
                    let (_, hit) = cache
                        .cached(-7_i64, |inner| &mut inner.masks, || {
                            Ok::<_, std::convert::Infallible>(Dollars::ZERO)
                        })
                        .unwrap();
                    hit
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(hits, [false, true, true]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn entries_warmed_without_tracing_recapture_on_first_traced_hit() {
        let cache = ScenarioCache::paper_figure4();
        // No subscriber here: stored replay-less, no capture overhead.
        let cold = eval(&cache, query(444.0));
        // First traced lookup finds the replay-less entry and must
        // recompute under capture (counted as a miss) rather than
        // silently dropping the provenance.
        let (first, warm) = with_collector(|| eval(&cache, query(444.0)));
        assert_eq!(cold.total().amount().to_bits(), warm.total().amount().to_bits());
        assert!(
            first
                .iter()
                .any(|r| matches!(r.kind, RecordKind::Provenance { .. })),
            "first traced lookup must recapture provenance"
        );
        // Second traced lookup replays the recaptured provenance.
        let (second, _) = with_collector(|| eval(&cache, query(444.0)));
        assert!(second
            .iter()
            .any(|r| matches!(r.kind, RecordKind::Provenance { .. })));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn cached_optimum_matches_uncached() {
        let cache = ScenarioCache::paper_figure4();
        let direct = optimal_sd_total(
            cache.model(),
            um(0.18),
            TransistorCount::from_millions(10.0),
            WaferCount::new(5_000).unwrap(),
            Yield::new(0.4).unwrap(),
            Dollars::new(200_000.0),
            110.0,
            1_500.0,
        )
        .unwrap();
        for _ in 0..2 {
            let cached = cache
                .optimal_sd(
                    um(0.18),
                    TransistorCount::from_millions(10.0),
                    WaferCount::new(5_000).unwrap(),
                    Yield::new(0.4).unwrap(),
                    Dollars::new(200_000.0),
                    110.0,
                    1_500.0,
                )
                .unwrap();
            assert_eq!(cached.sd.to_bits(), direct.sd.to_bits());
            assert_eq!(cached.cost.amount().to_bits(), direct.cost.amount().to_bits());
        }
    }

    #[test]
    fn optima_table_is_bounded_while_hot_keys_keep_hitting() {
        const HOT: u64 = 64;
        let cache = ScenarioCache::paper_figure4();
        let optimum = |volume: u64| {
            cache
                .optimal_sd(
                    um(0.18),
                    TransistorCount::from_millions(10.0),
                    WaferCount::new(volume).unwrap(),
                    Yield::new(0.4).unwrap(),
                    Dollars::new(200_000.0),
                    110.0,
                    1_500.0,
                )
                .unwrap()
        };
        let rounds = 2 * OPTIMA_CAPACITY as u64;
        for i in 0..rounds {
            // A hot key, then a never-seen one churning through.
            optimum(1_000 + i % HOT);
            optimum(1_000_000 + i);
            assert!(cache.lock().optima.len() <= OPTIMA_CAPACITY, "round {i}");
        }
        assert_eq!(cache.lock().optima.len(), OPTIMA_CAPACITY);
        // Only the first lap of hot keys missed; every later one hit.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (rounds - HOT, rounds + HOT));
        // The other tables keep the full per-table capacity.
        assert_eq!(stats.capacity, DEFAULT_CAPACITY);
    }

    #[test]
    fn generalized_reports_are_cached() {
        let cache = ScenarioCache::paper_figure4();
        let point = DesignPoint {
            lambda: um(0.13),
            sd: DecompressionIndex::new(400.0).unwrap(),
            transistors: TransistorCount::from_millions(10.0),
            volume: WaferCount::new(20_000).unwrap(),
        };
        let a = cache.evaluate_generalized(point).unwrap();
        let b = cache.evaluate_generalized(point).unwrap();
        assert_eq!(
            a.transistor_cost.amount().to_bits(),
            b.transistor_cost.amount().to_bits()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
