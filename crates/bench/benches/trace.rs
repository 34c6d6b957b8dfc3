//! Criterion bench: the trace layer's response render. One traced
//! `ScenarioCache::optimal_sd` miss (the §3.1 `s_d` search, ~850
//! Eq.-provenance records) is captured under a request scope, as the
//! query server captures a `/v1/optimum` request, and rendered to JSONL
//! into one buffer, as the server stores it for replay.

use std::hint::black_box;

use nanocost_bench::harness::{criterion_group, criterion_main, Criterion};
use nanocost_core::ScenarioCache;
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::{request_scope, with_capture};
use nanocost_units::{FeatureSize, TransistorCount, WaferCount, Yield};

fn bench_trace(c: &mut Criterion) {
    let cache = ScenarioCache::paper_figure4();
    let lambda = FeatureSize::from_microns(0.13).expect("valid");
    let (records, found) = with_capture(|| {
        let _scope = request_scope("r1");
        cache.optimal_sd(
            lambda,
            TransistorCount::from_millions(20.0),
            WaferCount::new(20_000).expect("valid"),
            Yield::new(0.8).expect("valid"),
            cache.mask_set_cost(lambda),
            110.0,
            1_500.0,
        )
    });
    found.expect("optimum inside the bracket");
    assert!(records.len() > 500, "capture holds the whole search ({} records)", records.len());

    let mut exporter = JsonlExporter::new();
    c.bench_function("trace/jsonl_render_optimum_capture", |b| {
        b.iter(|| {
            let mut text = String::new();
            for rec in black_box(&records) {
                exporter.render_into(rec, &mut text);
            }
            black_box(text)
        })
    });
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
