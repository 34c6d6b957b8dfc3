//! The generators are deterministic per seed, and each workload keeps
//! the property it exists for.

use std::collections::HashSet;

use nanocost_serve::{handle, ServerState};
use servebench::drive::{check, request_of};
use servebench::gen::{
    Endpoint, Generator, Workload, BATCH_POINTS, CACHE_CAPACITY, OPTIMUM_MISS_EVERY, THINK_MAX,
};

fn keys(gen: &Generator, range: std::ops::Range<u64>) -> Vec<String> {
    range.flat_map(|i| gen.request(i).cache_keys()).collect()
}

#[test]
fn same_seed_same_requests_other_seed_other_requests() {
    for w in Workload::ALL {
        let (a, b, c) = (
            Generator::new(w, 7),
            Generator::new(w, 7),
            Generator::new(w, 8),
        );
        assert_eq!(a.warmup(), b.warmup(), "{w:?}");
        for i in 0..200 {
            assert_eq!(a.request(i), b.request(i), "{w:?} request {i}");
            assert_eq!(a.think(i), b.think(i));
            assert!(a.think(i) < THINK_MAX);
        }
        assert_ne!(
            keys(&a, 0..200),
            keys(&c, 0..200),
            "{w:?}: the seed must matter"
        );
    }
}

#[test]
fn explore_stays_in_a_hot_set_far_below_the_cache() {
    let gen = Generator::new(Workload::Explore, 3);
    let warm: HashSet<String> = gen.warmup().iter().flat_map(|q| q.cache_keys()).collect();
    let seen: HashSet<String> = keys(&gen, 0..20_000).into_iter().collect();
    assert!(seen.is_subset(&warm), "every timed request was warmed");
    assert_eq!(seen.len(), 256);
    let sweep = Generator::sweep_grid_size() as usize;
    assert!(seen.len() < CACHE_CAPACITY && CACHE_CAPACITY <= sweep / 16);
    let mix = |e: Endpoint| (0..4_000).filter(|&i| gen.request(i).endpoint == e).count();
    assert_eq!(
        (
            mix(Endpoint::Cost),
            mix(Endpoint::Yield),
            mix(Endpoint::Chiplet)
        ),
        (2_000, 1_000, 1_000)
    );
}

#[test]
fn sweep_walks_a_permutation_of_a_grid_sixteen_times_the_cache() {
    let gen = Generator::new(Workload::Sweep, 5);
    let grid = Generator::sweep_grid_size();
    assert!(grid >= 16 * CACHE_CAPACITY as u64);
    let warm: Vec<String> = gen.warmup().iter().flat_map(|q| q.cache_keys()).collect();
    assert_eq!(warm.len(), CACHE_CAPACITY, "warm-up fills the point table");
    // One full lap of the grid: warm-up plus timed batches, all distinct,
    // so no timed point can hit before the grid wraps.
    let batches = grid / BATCH_POINTS as u64 - warm.len() as u64 / BATCH_POINTS as u64;
    let mut all: HashSet<String> = warm.into_iter().collect();
    for i in 0..batches {
        let q = gen.request(i);
        assert_eq!(q.points.len(), BATCH_POINTS);
        for k in q.cache_keys() {
            assert!(all.insert(k), "batch {i} repeats a point inside one lap");
        }
    }
    assert_eq!(all.len() as u64, grid);
}

#[test]
fn optimum_misses_exactly_one_request_in_sixteen() {
    let gen = Generator::new(Workload::Optimum, 9);
    let warm: HashSet<String> = gen.warmup().iter().flat_map(|q| q.cache_keys()).collect();
    let mut fresh = HashSet::new();
    for i in 0..4_096 {
        let key = gen.request(i).cache_keys().remove(0);
        if i % OPTIMUM_MISS_EVERY == OPTIMUM_MISS_EVERY - 1 {
            assert!(gen.is_fresh(i));
            assert!(
                !warm.contains(&key) && fresh.insert(key),
                "request {i} must be never-seen"
            );
        } else {
            assert!(
                warm.contains(&key),
                "request {i} must revisit a warmed point"
            );
        }
    }
}

/// Every generated request succeeds in process, and the caches see the
/// hits and misses each workload is built for.
#[test]
fn in_process_answers_succeed_with_the_designed_cache_traffic() {
    for w in Workload::ALL {
        let gen = Generator::new(w, 11);
        let state = ServerState::new();
        for q in gen.warmup() {
            let r = handle(&state, &request_of(&q));
            check(&q, r.status, &r.body).unwrap_or_else(|e| panic!("{w:?} warm-up: {e}"));
        }
        let before = state.cache().stats();
        let chiplet_before = state.chiplet_cache().stats();
        let n = 64;
        let mut batch_misses = 0;
        for i in 0..n {
            let q = gen.request(i);
            let r = handle(&state, &request_of(&q));
            let answer =
                check(&q, r.status, &r.body).unwrap_or_else(|e| panic!("{w:?} request {i}: {e}"));
            batch_misses += answer.batch_misses;
        }
        let after = state.cache().stats();
        let misses = after.misses - before.misses;
        let chiplet_misses = state.chiplet_cache().stats().misses - chiplet_before.misses;
        match w {
            Workload::Explore => assert_eq!((misses, chiplet_misses), (0, 0)),
            Workload::Sweep => {
                assert_eq!(batch_misses, n * BATCH_POINTS as u64);
                assert_eq!(after.entries, before.entries, "every miss evicts");
            }
            Workload::Optimum => assert_eq!(misses, n / OPTIMUM_MISS_EVERY),
        }
    }
}
