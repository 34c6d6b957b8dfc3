//! The in-process layer pass: the workload's requests timed call by
//! call through each layer's public functions, with spans recorded
//! from this file around every call.
//!
//! Three fresh `ServerState`s see the same request sequence, so each
//! meets the same cache hits and misses:
//! - `served` answers through `read_request`, `handle` and `write_to`,
//!   as a worker does;
//! - `layered` repeats what `handle` does for a model endpoint, one
//!   public call at a time: `json::parse`, `with_capture` around the
//!   decode and the cache call, then `store_trace`;
//! - `plain` makes the same decode and cache call with tracing off,
//!   so the capture's cost is the difference.
//!
//! Probes then time `TotalCostModel::transistor_cost` per design
//! point, a cold `ScenarioCache::optimal_sd` search, and a
//! `ChipletCache::evaluate` hit, on each request's own design points.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use nanocost_chiplet::{AssemblyKind, ChipletCache, ChipletScenario};
use nanocost_core::{BatchRequest, CostQuery, DesignPoint, ScenarioCache};
use nanocost_sentinel::json::{self, JsonValue};
use nanocost_serve::{handle, read_request, ServerState};
use nanocost_trace::{request_scope, span, with_capture};
use nanocost_units::{
    ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, WaferCount, Yield,
};

use crate::gen::{Endpoint, Generator, Point, Query, Split};
use crate::spans::SpanLog;
use crate::stats::{mean, median};

/// The `/v1/optimum` bracket the server defaults to.
const SD_BRACKET: (f64, f64) = nanocost_serve::api::DEFAULT_SD_BRACKET;

/// Most requests timed, which bounds the span log's size.
const MAX_REQUESTS: u64 = 2_000;

/// A cold optimum search is probed on one request in this many.
const SEARCH_PROBE_EVERY: u64 = 8;

/// Per-layer results of the pass; times are medians per call in µs.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Requests timed.
    pub requests: u64,
    /// `read_request` on the raw request bytes.
    pub read_request_us: f64,
    /// `Response::write_to` into memory.
    pub write_to_us: f64,
    /// Mean response size on the wire, head included.
    pub response_bytes: f64,
    /// `json::parse` of the body.
    pub parse_us: f64,
    /// Mean request body size.
    pub body_bytes: f64,
    /// `handle`, end to end.
    pub handle_us: f64,
    /// Decoding the parsed body into model inputs (traced).
    pub decode_us: f64,
    /// The endpoint's cache call with tracing off.
    pub lookup_us: f64,
    /// Traced decode plus cache call minus the same untraced.
    pub capture_us: f64,
    /// Mean records captured per request.
    pub records_per_req: f64,
    /// `store_trace` of the capture.
    pub store_trace_us: f64,
    /// Mean JSONL bytes stored per request.
    pub trace_bytes_per_req: f64,
    /// `TotalCostModel::transistor_cost` per design point, traced.
    pub eval_us_per_point: f64,
    /// A cold `ScenarioCache::optimal_sd`, traced.
    pub search_us: f64,
    /// A `ChipletCache::evaluate` hit, traced.
    pub chiplet_evaluate_us: f64,
    /// Calls that failed; the generated inputs should never fail.
    pub problems: Vec<String>,
}

/// The model call one request makes.
enum Call {
    Cost(CostQuery),
    Yield(DesignPoint),
    Optimum(CostQuery),
    Batch(BatchRequest),
    Chiplet(ChipletScenario),
}

fn num(doc: &JsonValue, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing `{key}`"))
}

fn cost_query(cache: &ScenarioCache, doc: &JsonValue, with_sd: bool) -> Result<CostQuery, String> {
    let lambda = FeatureSize::from_microns(num(doc, "lambda_um")?).map_err(|e| e.to_string())?;
    let mask_cost = match doc.get("mask_cost").and_then(JsonValue::as_f64) {
        Some(v) => Dollars::try_new(v).map_err(|e| e.to_string())?,
        None => cache.mask_set_cost(lambda),
    };
    let sd = if with_sd {
        num(doc, "sd")?
    } else {
        SD_BRACKET.0
    };
    Ok(CostQuery {
        lambda,
        sd: DecompressionIndex::new(sd).map_err(|e| e.to_string())?,
        transistors: TransistorCount::new(num(doc, "transistors")?).map_err(|e| e.to_string())?,
        volume: WaferCount::new(num(doc, "volume")? as u64).map_err(|e| e.to_string())?,
        fab_yield: Yield::new(num(doc, "fab_yield").unwrap_or(1.0)).map_err(|e| e.to_string())?,
        mask_cost,
    })
}

/// Decodes a parsed body as the endpoint does, defaulting the mask
/// cost through the cache.
fn decode(cache: &ScenarioCache, endpoint: Endpoint, doc: &JsonValue) -> Result<Call, String> {
    Ok(match endpoint {
        Endpoint::Cost => Call::Cost(cost_query(cache, doc, true)?),
        Endpoint::Optimum => Call::Optimum(cost_query(cache, doc, false)?),
        Endpoint::Yield => {
            let q = cost_query(cache, doc, true)?;
            Call::Yield(DesignPoint {
                lambda: q.lambda,
                sd: q.sd,
                transistors: q.transistors,
                volume: q.volume,
            })
        }
        Endpoint::Batch => {
            let items = doc
                .get("queries")
                .and_then(JsonValue::as_arr)
                .ok_or("missing `queries`")?;
            let queries = items
                .iter()
                .map(|item| cost_query(cache, item, true))
                .collect::<Result<_, _>>()?;
            Call::Batch(BatchRequest { queries })
        }
        Endpoint::Chiplet => Call::Chiplet(ChipletScenario {
            lambda: FeatureSize::from_microns(num(doc, "lambda_um")?).map_err(|e| e.to_string())?,
            sd: DecompressionIndex::new(num(doc, "sd")?).map_err(|e| e.to_string())?,
            transistors: TransistorCount::new(num(doc, "transistors")?)
                .map_err(|e| e.to_string())?,
            units: ChipCount::new(num(doc, "units")? as u64),
            chiplets: num(doc, "chiplets")? as u32,
            distinct_designs: num(doc, "distinct_designs")? as u32,
            assembly: match doc.get("assembly").and_then(JsonValue::as_str) {
                Some("si") => AssemblyKind::SiliconInterposer,
                _ => AssemblyKind::Rdl,
            },
        }),
    })
}

/// Makes the request's cache call.
fn invoke(state: &ServerState, call: &Call) -> Result<(), String> {
    let cache = state.cache();
    match call {
        Call::Cost(q) => cache
            .transistor_cost(
                q.lambda,
                q.sd,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
            )
            .map(|b| {
                black_box(b);
            })
            .map_err(|e| e.to_string()),
        Call::Yield(p) => cache
            .evaluate_generalized(*p)
            .map(|r| {
                black_box(r);
            })
            .map_err(|e| e.to_string()),
        Call::Optimum(q) => cache
            .optimal_sd(
                q.lambda,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
                SD_BRACKET.0,
                SD_BRACKET.1,
            )
            .map(|o| {
                black_box(o);
            })
            .map_err(|e| e.to_string()),
        Call::Batch(b) => {
            let response = cache.evaluate_batch(b);
            match response.results.iter().find_map(|r| r.as_ref().err()) {
                Some(e) => Err(e.to_string()),
                None => {
                    black_box(response);
                    Ok(())
                }
            }
        }
        Call::Chiplet(s) => state
            .chiplet_cache()
            .evaluate(s)
            .map(|r| {
                black_box(r);
            })
            .map_err(|e| e.to_string()),
    }
}

/// The layer a request's cache call belongs to.
fn cache_layer(endpoint: Endpoint) -> &'static str {
    if endpoint == Endpoint::Chiplet {
        "chiplet.cache"
    } else {
        "core.cache"
    }
}

fn typed(cache: &ScenarioCache, p: &Point) -> Result<CostQuery, String> {
    let lambda = FeatureSize::from_microns(p.lambda_um).map_err(|e| e.to_string())?;
    Ok(CostQuery {
        lambda,
        sd: DecompressionIndex::new(p.sd).map_err(|e| e.to_string())?,
        transistors: TransistorCount::new(p.transistors).map_err(|e| e.to_string())?,
        volume: WaferCount::new(p.volume).map_err(|e| e.to_string())?,
        fab_yield: Yield::new(p.fab_yield).map_err(|e| e.to_string())?,
        mask_cost: match p.mask_cost {
            Some(m) => Dollars::try_new(m).map_err(|e| e.to_string())?,
            None => cache.mask_set_cost(lambda),
        },
    })
}

fn scenario(p: &Point, split: Option<Split>) -> Result<ChipletScenario, String> {
    let split = split.unwrap_or(Split {
        units: 1_000_000,
        chiplets: 4,
        silicon: false,
    });
    Ok(ChipletScenario {
        lambda: FeatureSize::from_microns(p.lambda_um).map_err(|e| e.to_string())?,
        sd: DecompressionIndex::new(p.sd).map_err(|e| e.to_string())?,
        transistors: TransistorCount::new(p.transistors).map_err(|e| e.to_string())?,
        units: ChipCount::new(split.units),
        chiplets: split.chiplets,
        distinct_designs: split.chiplets,
        assembly: if split.silicon {
            AssemblyKind::SiliconInterposer
        } else {
            AssemblyKind::Rdl
        },
    })
}

/// Durations in µs of spans named `name` recorded since `from`.
fn since_us(spans: &SpanLog, from: usize, name: &str) -> f64 {
    spans.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .sum()
}

/// Warms a state the way the server was warmed.
fn warm(state: &ServerState, queries: &[Query]) {
    for q in queries {
        let _ = handle(state, &crate::drive::request_of(q));
    }
}

/// Runs the pass over requests `0..` until `budget` is spent.
#[must_use]
pub fn run(gen: &Generator, budget: Duration, spans: &mut SpanLog) -> LayerReport {
    let warmup = gen.warmup();
    let served = ServerState::new();
    let layered = ServerState::new();
    let plain = ServerState::new();
    warm(&served, &warmup);
    warm(&layered, &warmup);
    for q in &warmup {
        // Untraced, as the plain calls below are.
        if let Ok(doc) = json::parse(&q.body) {
            if let Ok(call) = decode(plain.cache(), q.endpoint, &doc) {
                let _ = invoke(&plain, &call);
            }
        }
    }
    let probe_chiplets = ChipletCache::defaults().expect("chiplet default constants are valid");

    let mut r = LayerReport::default();
    // Per-request samples keyed by what they measure.
    let mut per_req: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut bytes_out, mut bytes_in, mut records, mut trace_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut index = 0u64;
    while started.elapsed() < budget && index < MAX_REQUESTS {
        let q = gen.request(index);
        let raw = q.http();
        let mark = spans.spans().len();
        let mut problem = None;

        // The served path.
        spans.time("request", index, |s| {
            let req = s.time("serve.http.read_request", index, |_| {
                read_request(&mut Cursor::new(&raw))
            });
            let Ok(req) = req else {
                problem = Some("read_request failed".to_string());
                return;
            };
            let response = s.time("serve.api.handle", index, |_| handle(&served, &req));
            let mut out = Vec::with_capacity(response.body.len() + 160);
            let _ = s.time("serve.http.write_to", index, |_| {
                response.write_to(&mut out)
            });
            bytes_out.push(out.len() as f64);
        });
        bytes_in.push(q.body.len() as f64);

        // `handle`, one public call at a time.
        spans.time("handle.layered", index, |s| {
            let Ok(doc) = s.time("sentinel.json.parse", index, |_| json::parse(&q.body)) else {
                problem = Some("json::parse failed".to_string());
                return;
            };
            let req_id = layered.next_request_id();
            let (captured, result) = s.time("trace.capture", index, |s| {
                with_capture(|| {
                    let _scope = request_scope(&req_id);
                    let _span = span!(
                        "serve.request",
                        endpoint = q.endpoint.name(),
                        req = req_id.as_str()
                    );
                    let _endpoint = span!(q.endpoint.span_name());
                    let call = s.time("serve.api.decode", index, |_| {
                        decode(layered.cache(), q.endpoint, &doc)
                    })?;
                    s.time(cache_layer(q.endpoint), index, |_| invoke(&layered, &call))
                })
            });
            if let Err(e) = result {
                problem = Some(e);
                return;
            }
            s.time("serve.state.store_trace", index, |_| {
                layered.store_trace(&req_id, &captured)
            });
            records.push(captured.len() as f64);
            trace_bytes.push(layered.trace(&req_id).map_or(0, |t| t.len()) as f64);
        });

        // The same decode and cache call with tracing off.
        if let Ok(doc) = json::parse(&q.body) {
            let result = spans.time("handle.untraced", index, |s| {
                let call = decode(plain.cache(), q.endpoint, &doc)?;
                s.time("cache.untraced", index, |_| invoke(&plain, &call))
            });
            if let Err(e) = result {
                problem = Some(e);
            }
        }

        // Probes on the request's own design points.
        spans.time("probe", index, |s| {
            let inputs: Result<Vec<CostQuery>, String> =
                q.points.iter().map(|p| typed(served.cache(), p)).collect();
            let Ok(inputs) = inputs else {
                problem = Some("design point out of domain".to_string());
                return;
            };
            let model = served.cache().model();
            let (_, failed) = with_capture(|| {
                inputs.iter().any(|p| {
                    s.time("core.model", index, |_| {
                        model
                            .transistor_cost(
                                p.lambda,
                                p.sd,
                                p.transistors,
                                p.volume,
                                p.fab_yield,
                                p.mask_cost,
                            )
                            .map(black_box)
                    })
                    .is_err()
                })
            });
            if failed {
                problem = Some("eq. 4 failed on a design point".to_string());
            }
            if index.is_multiple_of(SEARCH_PROBE_EVERY) {
                let p = inputs[0];
                let cold = ScenarioCache::paper_figure4();
                let (_, found) = with_capture(|| {
                    s.time("core.optimize", index, |_| {
                        cold.optimal_sd(
                            p.lambda,
                            p.transistors,
                            p.volume,
                            p.fab_yield,
                            p.mask_cost,
                            SD_BRACKET.0,
                            SD_BRACKET.1,
                        )
                    })
                });
                if let Err(e) = found {
                    problem = Some(format!("optimum search: {e}"));
                }
            }
            match scenario(&q.points[0], q.split) {
                Ok(sc) => {
                    let _ = probe_chiplets.evaluate(&sc);
                    let (_, hit) = with_capture(|| {
                        s.time("chiplet.evaluate", index, |_| probe_chiplets.evaluate(&sc))
                    });
                    if let Err(e) = hit {
                        problem = Some(format!("chiplet: {e}"));
                    }
                }
                Err(e) => problem = Some(e),
            }
        });

        if let Some(p) = problem {
            if r.problems.len() < 8 {
                r.problems.push(format!("request {index}: {p}"));
            }
        }
        let at = |name: &str| since_us(spans, mark, name);
        let mut sample =
            |key: &'static str, value: f64| per_req.entry(key).or_default().push(value);
        for name in [
            "serve.http.read_request",
            "serve.http.write_to",
            "sentinel.json.parse",
            "serve.api.handle",
            "serve.api.decode",
            "cache.untraced",
            "serve.state.store_trace",
            "chiplet.evaluate",
        ] {
            sample(name, at(name));
        }
        sample("capture", at("trace.capture") - at("handle.untraced"));
        sample(
            "core.model",
            at("core.model") / q.points.len().max(1) as f64,
        );
        if index.is_multiple_of(SEARCH_PROBE_EVERY) {
            sample("core.optimize", at("core.optimize"));
        }
        index += 1;
    }
    let med = |key: &str| per_req.get(key).map_or(0.0, |v| median(v));
    r.requests = index;
    r.read_request_us = med("serve.http.read_request");
    r.write_to_us = med("serve.http.write_to");
    r.parse_us = med("sentinel.json.parse");
    r.handle_us = med("serve.api.handle");
    r.decode_us = med("serve.api.decode");
    r.lookup_us = med("cache.untraced");
    r.capture_us = med("capture");
    r.store_trace_us = med("serve.state.store_trace");
    r.eval_us_per_point = med("core.model");
    r.search_us = med("core.optimize");
    r.chiplet_evaluate_us = med("chiplet.evaluate");
    r.response_bytes = mean(&bytes_out);
    r.body_bytes = mean(&bytes_in);
    r.records_per_req = mean(&records);
    r.trace_bytes_per_req = mean(&trace_bytes);
    r
}
