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
//! Every table is one [`ProvenanceMemo`], the single lookup-or-compute
//! path the workspace's model caches share (the chiplet crate's SiP
//! cache is another thin wrapper over it). The memo is
//! provenance-transparent: on a miss while tracing is enabled, the
//! evaluation runs under a [`nanocost_trace::with_capture`] frame and
//! the captured Eq.-provenance records are stored with the value; on a
//! hit they are replayed verbatim. A traced sweep therefore produces
//! the *same* provenance multiset — and the same pipeline fingerprint —
//! whether it was served from the cache or computed fresh.
//!
//! While tracing is *disabled* the capture is skipped entirely — a
//! `with_capture` frame would force-enable the instrumentation macros
//! and pay their record-materialization cost for nobody — and the
//! entry is stored replay-less. Should tracing later be enabled and
//! hit such an entry, the memo recomputes it under capture (counted
//! as a miss) so the provenance invariant holds unconditionally.

use std::cell::Cell;
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

/// Quantizes one raw coordinate of the paper's `(λ, s_d, N_tr, N_w, Y)`
/// query space onto its key lattice (one of the `*_QUANTUM` constants),
/// so every cache keyed through it agrees on what "the same scenario"
/// means.
#[must_use]
pub fn quantize(x: f64, quantum: f64) -> i64 {
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

/// One stored provenance record. Its inputs and then its outputs are
/// the next `inputs + outputs` entries of the owning [`Replay`]'s
/// `fields`.
#[derive(Debug)]
struct ReplayRecord {
    equation: nanocost_trace::provenance::Equation,
    function: &'static str,
    inputs: usize,
    outputs: usize,
}

/// A capture's provenance stream, replayed verbatim on every cache hit
/// so hit and miss paths are indistinguishable to the eq.-fingerprint
/// pipeline. Every record's fields sit back to back in one buffer, so a
/// replay of an ~850-record optimum search reads one allocation rather
/// than ~1700 scattered ones.
#[derive(Debug)]
struct Replay {
    records: Vec<ReplayRecord>,
    fields: Vec<Field>,
}

/// Moves the provenance records out of a capture frame.
fn replay_of(records: Vec<nanocost_trace::record::Record>) -> Replay {
    let (mut n_records, mut n_fields) = (0, 0);
    for r in &records {
        if let RecordKind::Provenance {
            inputs, outputs, ..
        } = &r.kind
        {
            n_records += 1;
            n_fields += inputs.len() + outputs.len();
        }
    }
    let mut replay = Replay {
        records: Vec::with_capacity(n_records),
        fields: Vec::with_capacity(n_fields),
    };
    for r in records {
        if let RecordKind::Provenance {
            equation,
            function,
            inputs,
            outputs,
            ..
        } = r.kind
        {
            replay.records.push(ReplayRecord {
                equation,
                function,
                inputs: inputs.len(),
                outputs: outputs.len(),
            });
            replay.fields.extend(inputs);
            replay.fields.extend(outputs);
        }
    }
    replay
}

/// Re-emits stored provenance (cheap no-op when tracing is disabled).
fn replay(replay: &Replay) {
    if !nanocost_trace::is_enabled() {
        return;
    }
    let mut rest = replay.fields.as_slice();
    for r in &replay.records {
        let (inputs, tail) = rest.split_at(r.inputs);
        let (outputs, tail) = tail.split_at(r.outputs);
        rest = tail;
        provenance::emit(r.equation, r.function, inputs.to_vec(), outputs.to_vec());
    }
}

/// The "no neighbour" link at either end of the recency list.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    // Shared so a hit hands back the replay by refcount bump instead of
    // deep-cloning what can be an ~850-record optimum-search stream.
    // `None` marks an entry stored while tracing was disabled; a traced
    // computation that emitted zero provenance stores `Some(empty)`,
    // which still counts as captured — the two must not share a
    // sentinel or such entries would recompute on every traced lookup.
    replay: Option<Arc<Replay>>,
    /// The next more recently used slot (`NIL` at the head).
    prev: usize,
    /// The next less recently used slot (`NIL` at the tail).
    next: usize,
}

/// An exact LRU map whose `get`, `insert` and eviction are each O(1).
///
/// Entries live in a slab `Vec`, linked by index into a recency list
/// (head = most recently used, tail = least), and `index` maps a key
/// to its slot. The slab only grows, up to `capacity`; once full, a
/// new key takes over the tail's slot in place. Links are slab indices
/// rather than pointers.
struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Copy, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            slots: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: &K) -> Option<(V, Option<Arc<Replay>>)> {
        let i = *self.index.get(key)?;
        self.touch(i);
        let slot = &self.slots[i];
        Some((slot.value.clone(), slot.replay.clone()))
    }

    /// Stores `key` as the most recently used entry, replacing its value
    /// in place if present. Returns the key evicted to make room, if any.
    fn insert(&mut self, key: K, value: V, replay: Option<Arc<Replay>>) -> Option<K> {
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.value = value;
            slot.replay = replay;
            self.touch(i);
            return None;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key,
                value,
                replay,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(key, i);
            self.push_front(i);
            return None;
        }
        let i = self.tail;
        let evicted = self.slots[i].key;
        self.index.remove(&evicted);
        self.index.insert(key, i);
        let slot = &mut self.slots[i];
        slot.key = key;
        slot.value = value;
        slot.replay = replay;
        self.touch(i);
        Some(evicted)
    }
}

thread_local! {
    /// This thread's `(hits, misses)` over every memo lookup.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's lifetime `(hits, misses)` across every
/// [`ProvenanceMemo`] lookup of a paper-equation or chiplet query,
/// whichever cache made it. Diffing it around a unit of work attributes
/// exactly that work's cache traffic, untouched by lookups other
/// threads make meanwhile — the query server's per-request access-log
/// columns.
#[must_use]
pub fn thread_tally() -> (u64, u64) {
    TALLY.with(Cell::get)
}

struct MemoInner<K, V> {
    lru: Lru<K, V>,
    hits: u64,
    misses: u64,
}

/// A thread-safe, LRU-bounded memo of model evaluations with verbatim
/// Eq.-provenance replay on hits: the one lookup-or-compute path
/// behind [`ScenarioCache`] and the chiplet crate's SiP cache.
///
/// Keys are the caller's quantized inputs (see [`quantize`]); each
/// lookup counts once, under the same lock as the table read, into
/// the memo's [`CacheStats`] and this thread's [`thread_tally`], then
/// calls the owner's trace-counter hook outside the lock.
pub struct ProvenanceMemo<K, V> {
    inner: Mutex<MemoInner<K, V>>,
    count: fn(bool),
}

impl<K: Eq + Hash + Copy, V: Clone> std::fmt::Debug for ProvenanceMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceMemo")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<K: Eq + Hash + Copy, V: Clone> ProvenanceMemo<K, V> {
    /// An empty memo for one family of paper-equation queries, holding
    /// at most `capacity` entries (clamped to at least one). `count` is
    /// called with `true` on every hit and `false` on every miss; it
    /// ticks the owner's `counter!` pair, whose names stay literals at
    /// the owner.
    #[must_use]
    pub fn new(capacity: usize, count: fn(bool)) -> Self {
        ProvenanceMemo {
            inner: Mutex::new(MemoInner {
                lru: Lru::new(capacity),
                hits: 0,
                misses: 0,
            }),
            count,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner<K, V>> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is still structurally sound, so keep serving.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks `key` up, running the paper-equation evaluation `compute`
    /// and storing its value on a miss. Whether a lookup hit shows in
    /// [`ProvenanceMemo::stats`] and [`thread_tally`].
    ///
    /// With tracing enabled, a miss computes under [`with_capture`] and
    /// stores the provenance for verbatim replay — even when the
    /// capture is legitimately empty, which is distinct from "never
    /// captured". With tracing disabled the capture is skipped (the
    /// instrumentation stays on its free disabled path) and the entry
    /// is stored replay-less (`None`). A hit on a replay-less entry
    /// while tracing *is* enabled would silently drop provenance, so it
    /// is treated as a miss: recomputed under capture and re-stored.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; errors are never cached.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let enabled = nanocost_trace::is_enabled();
        let found = {
            let mut inner = self.lock();
            let found = inner
                .lru
                .get(&key)
                .filter(|(_, stored)| !enabled || stored.is_some());
            if found.is_some() {
                inner.hits += 1;
            } else {
                inner.misses += 1;
            }
            found
        };
        TALLY.with(|t| {
            let (hits, misses) = t.get();
            let hit = u64::from(found.is_some());
            t.set((hits + hit, misses + 1 - hit));
        });
        (self.count)(found.is_some());
        if let Some((value, stored)) = found {
            if let Some(records) = &stored {
                replay(records);
            }
            return Ok(value);
        }
        let (stored, result) = if enabled {
            let (records, result) = with_capture(compute);
            (Some(Arc::new(replay_of(records))), result)
        } else {
            (None, compute())
        };
        let value = result?;
        self.lock().lru.insert(key, value.clone(), stored);
        Ok(value)
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy — the
    /// observability handle of the §4-style serving loop.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.lru.len(),
            capacity: inner.lru.capacity,
        }
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

/// Quantized identity of one eq.-7 query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeneralizedKey {
    lambda: i64,
    sd: i64,
    transistors: i64,
    volume: u64,
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
        PointKey {
            lambda: quantize(self.lambda.microns(), LAMBDA_QUANTUM_UM),
            sd: quantize(self.sd.squares(), SD_QUANTUM),
            transistors: quantize(self.transistors.count(), TRANSISTOR_QUANTUM),
            volume: self.volume.count(),
            fab_yield: quantize(self.fab_yield.value(), YIELD_QUANTUM),
            mask_cost: quantize(self.mask_cost.amount(), DOLLARS_QUANTUM),
        }
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

/// Ticks the core cache's trace counters for one lookup.
fn count(hit: bool) {
    if hit {
        counter!("core.cache.hit", 1);
    } else {
        counter!("core.cache.miss", 1);
    }
}

/// A thread-safe memo of cost-model evaluations keyed on quantized
/// inputs, with verbatim Eq.-provenance replay on hits.
///
/// Wraps the three models the repeated queries of §3.1/§4 touch: the
/// eq.-4 [`TotalCostModel`], the eq.-5 [`MaskCostModel`], and the
/// eq.-7 [`GeneralizedCostModel`], with one [`ProvenanceMemo`] table
/// per value family.
pub struct ScenarioCache {
    model: TotalCostModel,
    mask_model: MaskCostModel,
    generalized: GeneralizedCostModel,
    points: ProvenanceMemo<PointKey, CostBreakdown>,
    masks: ProvenanceMemo<i64, Dollars>,
    reports: ProvenanceMemo<GeneralizedKey, GeneralizedReport>,
    optima: ProvenanceMemo<OptimumKey, DensityOptimum>,
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
            points: ProvenanceMemo::new(capacity, count),
            masks: ProvenanceMemo::new(capacity, count),
            reports: ProvenanceMemo::new(capacity, count),
            optima: ProvenanceMemo::new(capacity.min(OPTIMA_CAPACITY), count),
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
        self.point_cost(CostQuery {
            lambda,
            sd,
            transistors,
            volume,
            fab_yield,
            mask_cost,
        })
    }

    /// [`ScenarioCache::transistor_cost`] of one [`CostQuery`].
    fn point_cost(&self, q: CostQuery) -> Result<CostBreakdown, UnitError> {
        self.points.get_or_compute(q.key(), || {
            self.model.transistor_cost(
                q.lambda,
                q.sd,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
            )
        })
    }

    /// Eq.-5 mask-set cost through the cache; identical in value and
    /// provenance to calling [`MaskCostModel::mask_set_cost`].
    #[must_use]
    pub fn mask_set_cost(&self, lambda: FeatureSize) -> Dollars {
        let key = quantize(lambda.microns(), LAMBDA_QUANTUM_UM);
        let Ok(value) = self.masks.get_or_compute(key, || {
            Ok::<_, std::convert::Infallible>(self.mask_model.mask_set_cost(lambda))
        });
        value
    }

    /// Eq.-7 generalized evaluation through the cache — the yield
    /// surface (eq. 3 by way of eq. 7) plus cost densities at a point.
    ///
    /// # Errors
    ///
    /// As [`GeneralizedCostModel::evaluate`]; errors are never cached.
    pub fn evaluate_generalized(&self, point: DesignPoint) -> Result<GeneralizedReport, UnitError> {
        let key = GeneralizedKey {
            lambda: quantize(point.lambda.microns(), LAMBDA_QUANTUM_UM),
            sd: quantize(point.sd.squares(), SD_QUANTUM),
            transistors: quantize(point.transistors.count(), TRANSISTOR_QUANTUM),
            volume: point.volume.count(),
        };
        self.reports
            .get_or_compute(key, || self.generalized.evaluate(point))
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
        self.optima.get_or_compute(key, || {
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
        let (hits, misses) = thread_tally();
        let results = request
            .queries
            .iter()
            .map(|q| self.point_cost(*q))
            .collect();
        let (hits_after, misses_after) = thread_tally();
        let stats = BatchStats {
            requested: request.queries.len(),
            unique: unique.len(),
            hits: hits_after - hits,
            misses: misses_after - misses,
        };
        BatchResponse { results, stats }
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy,
    /// summed over the four tables — the observability handle the
    /// §4-style serving loop exports. `capacity` is the per-table one.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = self.points.stats();
        for table in [
            self.masks.stats(),
            self.reports.stats(),
            self.optima.stats(),
        ] {
            total.hits += table.hits;
            total.misses += table.misses;
            total.entries += table.entries;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_trace::export::{Exporter, JsonlExporter};
    use nanocost_trace::provenance::Equation;
    use nanocost_trace::value::Value;
    use nanocost_trace::with_collector;

    /// Renders the provenance records to JSONL with the volatile
    /// `ts_us` prefix stripped, for hit-vs-miss comparison.
    fn rendered_provenance(records: &[nanocost_trace::record::Record]) -> Vec<String> {
        let mut exporter = JsonlExporter::new();
        records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Provenance { .. }))
            .map(|r| {
                let line = exporter.render(r);
                let tail = line.find(",\"thread\"").unwrap_or(0);
                line[tail..].to_string()
            })
            .collect()
    }

    // The memo's own rules, independent of any model.

    fn memo(capacity: usize) -> ProvenanceMemo<u32, u64> {
        ProvenanceMemo::new(capacity, |_| {})
    }

    /// A model stand-in that emits one provenance record per call.
    fn square(k: u32) -> Result<u64, UnitError> {
        let v = u64::from(k) * u64::from(k);
        provenance::emit(
            Equation::Eq4,
            "square",
            vec![Field::new("k", Value::U64(u64::from(k)))],
            vec![Field::new("v", Value::U64(v))],
        );
        Ok(v)
    }

    /// Runs one lookup; returns its result and whether it hit, read off
    /// this thread's tally.
    fn hit_of<T>(lookup: impl FnOnce() -> T) -> (T, bool) {
        let (hits, _) = thread_tally();
        let out = lookup();
        (out, thread_tally().0 > hits)
    }

    fn hits_misses(memo: &ProvenanceMemo<u32, u64>) -> (u64, u64) {
        let stats = memo.stats();
        (stats.hits, stats.misses)
    }

    #[test]
    fn memo_evicts_least_recently_used_first() {
        let memo = memo(2);
        let hit = |k| {
            let (value, hit) = hit_of(|| memo.get_or_compute(k, || square(k)).unwrap());
            assert_eq!(value, u64::from(k * k));
            hit
        };
        // 200 is touched again before 400 arrives, so 300 is the least
        // recently used entry and the one evicted; 200 survives.
        let hits: Vec<bool> = [200, 300, 200, 400, 200, 300].map(hit).to_vec();
        assert_eq!(hits, [false, false, true, false, true, false]);
        assert_eq!(hits_misses(&memo), (2, 4));
        assert_eq!(memo.stats().entries, 2);
        assert_eq!(memo.stats().capacity, 2);
    }

    #[test]
    fn memo_errors_are_not_cached() {
        let memo = memo(4);
        for _ in 0..2 {
            let result = memo.get_or_compute(7, || Err(UnitError::NonFinite { quantity: "k" }));
            assert!(result.is_err());
        }
        assert_eq!(hits_misses(&memo), (0, 2));
        assert_eq!(memo.stats().entries, 0);
    }

    #[test]
    fn memo_recaptures_entries_warmed_without_tracing() {
        let memo = memo(4);
        let calls = Cell::new(0);
        let get = |k| {
            hit_of(|| {
                memo.get_or_compute(k, || {
                    calls.set(calls.get() + 1);
                    square(k)
                })
                .unwrap()
            })
        };
        // No subscriber here: stored replay-less, no capture overhead.
        let (cold, _) = get(444);
        // The first traced lookup finds the replay-less entry and must
        // recompute under capture (counted as a miss) rather than
        // silently dropping the provenance.
        let (first, (warm, hit)) = with_collector(|| get(444));
        assert_eq!((cold, hit, calls.get()), (warm, false, 2));
        let first = rendered_provenance(&first);
        assert_eq!(
            first.len(),
            1,
            "first traced lookup must recapture provenance"
        );
        // The second traced lookup replays the recaptured provenance.
        let (second, (_, hit)) = with_collector(|| get(444));
        assert!(hit);
        assert_eq!(calls.get(), 2);
        assert_eq!(first, rendered_provenance(&second));
        assert_eq!(hits_misses(&memo), (1, 2));
    }

    #[test]
    fn memo_recapture_restores_in_place_without_evicting() {
        let memo = memo(2);
        let get = |k| hit_of(|| memo.get_or_compute(k, || square(k)).expect("infallible")).1;
        assert_eq!([get(1), get(2)], [false, false]);
        // The traced lookup of the replay-less entry 1 recomputes and
        // re-stores 1 while the table is full; that must overwrite 1,
        // not evict its neighbour 2.
        let (_, recaptured) = with_collector(|| get(1));
        assert!(!recaptured);
        assert!(get(2), "the re-store evicted a neighbour");
        assert_eq!(memo.stats().entries, 2);
    }

    /// The keys of `lru` from most to least recently used, read by
    /// walking its links.
    fn recency(lru: &Lru<u64, u64>) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut i = lru.head;
        while i != NIL {
            keys.push(lru.slots[i].key);
            i = lru.slots[i].next;
        }
        keys
    }

    #[test]
    fn lru_matches_a_naive_recency_list() {
        use nanocost_numeric::Rng64;
        for (seed, capacity) in [(11, 1), (12, 2), (13, 7), (14, 64)] {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut lru = Lru::new(capacity);
            // The reference: `(key, value)` in recency order, least
            // recently used first, so eviction takes the front.
            let mut naive: Vec<(u64, u64)> = Vec::new();
            let (mut fresh, mut hits, mut evictions) = (0_u64, 0, 0);
            for op in 0..20_000_u64 {
                let what = format!("capacity {capacity}, op {op}");
                let draw = rng.next_u64();
                match draw % 3 {
                    // `get` of one of the last 2·capacity fresh keys,
                    // evicted or not, or of a key never stored.
                    0 => {
                        let key = fresh.saturating_sub(rng.next_u64() % (2 * capacity as u64 + 1));
                        let expected = naive.iter().position(|&(k, _)| k == key).map(|at| {
                            let entry = naive.remove(at);
                            naive.push(entry);
                            entry.1
                        });
                        assert_eq!(lru.get(&key).map(|(value, _)| value), expected, "{what}");
                        hits += usize::from(expected.is_some());
                    }
                    // Re-`insert` of a present key: a new value in
                    // place, no eviction.
                    1 if !naive.is_empty() => {
                        let at = (draw / 3 % naive.len() as u64) as usize;
                        let (key, _) = naive.remove(at);
                        naive.push((key, op));
                        assert_eq!(lru.insert(key, op, None), None, "{what}");
                    }
                    // `insert` of a key never stored before.
                    _ => {
                        fresh += 1;
                        let evicted = (naive.len() == capacity).then(|| naive.remove(0).0);
                        evictions += usize::from(evicted.is_some());
                        naive.push((fresh, op));
                        assert_eq!(lru.insert(fresh, op, None), evicted, "{what}");
                    }
                }
                assert_eq!(lru.len(), naive.len(), "{what}");
                assert!(lru.len() <= capacity, "{what}");
                assert_eq!(lru.index.len(), lru.len(), "{what}");
                let order: Vec<u64> = naive.iter().rev().map(|&(k, _)| k).collect();
                assert_eq!(recency(&lru), order, "{what}");
            }
            assert!(
                hits > 1_000 && evictions > 1_000,
                "capacity {capacity}: {hits} hits, {evictions} evictions"
            );
        }
    }

    #[test]
    fn thread_tally_counts_this_threads_lookups_only() {
        let memo = memo(4);
        let (hits, misses) = thread_tally();
        memo.get_or_compute(1, || square(1)).unwrap();
        memo.get_or_compute(1, || square(1)).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| memo.get_or_compute(2, || square(2)).unwrap());
        });
        assert_eq!(thread_tally(), (hits + 1, misses + 1));
        assert_eq!(hits_misses(&memo), (1, 2));
    }

    // The scenario cache over the eq.-4/5/7 models.

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
            .transistor_cost(
                q.lambda,
                q.sd,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
            )
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
    fn hits_replay_identical_provenance() {
        let cache = ScenarioCache::paper_figure4();
        let (miss_records, _) = with_collector(|| eval(&cache, query(333.0)));
        let (hit_records, _) = with_collector(|| eval(&cache, query(333.0)));
        let miss = rendered_provenance(&miss_records);
        let hit = rendered_provenance(&hit_records);
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
                    let (_, hit) = hit_of(|| {
                        cache.masks.get_or_compute(-7_i64, || {
                            Ok::<_, std::convert::Infallible>(Dollars::ZERO)
                        })
                    });
                    hit
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(hits, [false, true, true]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
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
            assert_eq!(
                cached.cost.amount().to_bits(),
                direct.cost.amount().to_bits()
            );
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
            assert!(cache.optima.stats().entries <= OPTIMA_CAPACITY, "round {i}");
        }
        assert_eq!(cache.optima.stats().entries, OPTIMA_CAPACITY);
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
