//! Criterion bench: the provenance memo behind `ScenarioCache` and
//! `ChipletCache`, one lookup at a time. An untraced eq.-4 hit, an
//! eq.-4 miss that evicts (a capacity-1 cache alternating two `s_d`),
//! the same miss-and-evict from a full default-capacity table (the path
//! a grid sweep larger than the cache takes), a traced §3.1 optimum hit
//! that replays its whole search's provenance into a collector, and an
//! untraced SiP hit.

use std::hint::black_box;

use nanocost_bench::harness::{criterion_group, criterion_main, Criterion};
use nanocost_chiplet::{AssemblyKind, ChipletCache, ChipletScenario};
use nanocost_core::{GeneralizedCostModel, ScenarioCache, TotalCostModel, DEFAULT_CAPACITY};
use nanocost_fab::MaskCostModel;
use nanocost_trace::with_collector;
use nanocost_units::{
    ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, WaferCount, Yield,
};

fn bench_cache(c: &mut Criterion) {
    let lambda = FeatureSize::from_microns(0.18).expect("valid");
    let transistors = TransistorCount::from_millions(10.0);
    let volume = WaferCount::new(5_000).expect("valid");
    let fab_yield = Yield::new(0.4).expect("valid");
    let mask_cost = Dollars::new(200_000.0);
    let sd = |x| DecompressionIndex::new(x).expect("valid");
    let point = |cache: &ScenarioCache, s| {
        cache
            .transistor_cost(lambda, sd(s), transistors, volume, fab_yield, mask_cost)
            .expect("in domain")
    };

    let warm = ScenarioCache::paper_figure4();
    point(&warm, 300.0);
    c.bench_function("cache/point_hit", |b| {
        b.iter(|| black_box(point(&warm, black_box(300.0))))
    });

    let tiny = ScenarioCache::new(
        TotalCostModel::paper_figure4(),
        MaskCostModel::default(),
        GeneralizedCostModel::nanometer_default(),
        1,
    );
    let mut flip = false;
    c.bench_function("cache/point_miss", |b| {
        b.iter(|| {
            flip = !flip;
            black_box(point(&tiny, if flip { 300.0 } else { 400.0 }))
        })
    });

    // A full table cycled through twice as many distinct `s_d` as it
    // holds: each lookup misses, runs eq. 4 and evicts the oldest entry.
    let full = ScenarioCache::paper_figure4();
    let lap = 2 * DEFAULT_CAPACITY;
    let sd_of = |i: usize| 200.0 + 0.01 * i as f64;
    for i in 0..DEFAULT_CAPACITY {
        point(&full, sd_of(i));
    }
    let mut next = DEFAULT_CAPACITY;
    c.bench_function("cache/point_miss_evict", |b| {
        b.iter(|| {
            let s = sd_of(next);
            next = (next + 1) % lap;
            black_box(point(&full, s))
        })
    });
    let stats = full.stats();
    assert_eq!((stats.hits, stats.entries), (0, DEFAULT_CAPACITY));

    let optimum = || {
        warm.optimal_sd(
            lambda,
            transistors,
            volume,
            fab_yield,
            mask_cost,
            110.0,
            1_500.0,
        )
        .expect("optimum inside the bracket")
    };
    // Warmed under a collector, so the entry carries its replay.
    let (records, _) = with_collector(optimum);
    assert!(
        records.len() > 500,
        "the search's provenance is stored ({})",
        records.len()
    );
    c.bench_function("cache/optimum_traced_replay", |b| {
        b.iter(|| black_box(with_collector(optimum)))
    });

    let chiplets = ChipletCache::defaults().expect("valid defaults");
    let scenario = ChipletScenario {
        lambda: FeatureSize::from_microns(0.07).expect("valid"),
        sd: sd(300.0),
        transistors: TransistorCount::from_millions(400.0),
        units: ChipCount::new(1_000_000),
        chiplets: 4,
        distinct_designs: 1,
        assembly: AssemblyKind::Rdl,
    };
    chiplets.evaluate(&scenario).expect("valid scenario");
    c.bench_function("cache/chiplet_hit", |b| {
        b.iter(|| {
            black_box(
                chiplets
                    .evaluate(black_box(&scenario))
                    .expect("valid scenario"),
            )
        })
    });
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
