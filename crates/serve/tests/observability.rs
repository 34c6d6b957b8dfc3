//! End-to-end observability tests over a real socket: the exemplar →
//! trace drill-down, the SLO health verdict, the structured access
//! log, and the trace-capture ring — the paths `trace_tail --attach`
//! and the CI soak gate depend on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nanocost_sentinel::json;
use nanocost_serve::{handle, Request, Server, ServerConfig, ServerState, ServerStateConfig};

const COST_BODY: &str =
    r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;

/// Runs `f` against a live server built from `state`, then shuts the
/// server down cleanly.
fn with_server_state(state: ServerState, f: impl FnOnce(std::net::SocketAddr)) {
    let server = Server::bind_with_state(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            io_timeout: Duration::from_secs(2),
        },
        state,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle().expect("stop handle");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        f(addr);
        stop.stop();
        handle.join().expect("server thread");
    });
}

/// One HTTP/1.1 exchange; returns `(status, body)`.
fn exchange(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn p99_exemplar_round_trips_to_a_clean_request_trace() {
    with_server_state(ServerState::new(), |addr| {
        // A mixed workload so every model endpoint has an exemplar.
        for _ in 0..5 {
            assert_eq!(exchange(addr, "POST", "/v1/cost", COST_BODY).0, 200);
        }
        let yield_body = r#"{"lambda_um":0.13,"sd":400,"transistors":1e7,"volume":20000}"#;
        assert_eq!(exchange(addr, "POST", "/v1/yield", yield_body).0, 200);

        let (status, metrics) = exchange(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{metrics}");
        let doc = json::parse(&metrics).expect("metrics is JSON");
        assert_eq!(doc.get("schema").and_then(json::JsonValue::as_u64), Some(2));
        let endpoints = doc.get("endpoints").expect("endpoints object");
        for endpoint in ["cost", "yield"] {
            let req_id = endpoints
                .get(endpoint)
                .and_then(|e| e.get("p99_exemplar"))
                .and_then(|e| e.get("req_id"))
                .and_then(json::JsonValue::as_str)
                .unwrap_or_else(|| panic!("{endpoint} has no p99 exemplar: {metrics}"))
                .to_string();

            // The drill-down: the anonymous p99 pivots to a fetchable,
            // fully request-scoped trace capture.
            let (status, capture) = exchange(addr, "GET", &format!("/v1/trace/{req_id}"), "");
            assert_eq!(status, 200, "exemplar {req_id} has no stored trace");
            assert!(!capture.trim().is_empty(), "empty capture for {req_id}");
            let tag = format!("\"req_id\":\"{req_id}\"");
            let mut enters = 0usize;
            let mut exits = 0usize;
            for line in capture.lines() {
                nanocost_trace::json::validate(line).expect("capture line is JSON");
                assert!(line.contains(&tag), "untagged record in {req_id}: {line}");
                if line.contains("\"type\":\"span_enter\"") {
                    enters += 1;
                }
                if line.contains("\"type\":\"span_exit\"") {
                    exits += 1;
                }
            }
            assert!(enters >= 1, "capture has no spans: {capture}");
            assert_eq!(enters, exits, "unbalanced spans in {req_id}: {capture}");
            assert!(
                capture.contains("serve.request"),
                "missing request span: {capture}"
            );
        }
    });
}

#[test]
fn health_verdict_is_served_over_the_wire() {
    with_server_state(ServerState::new(), |addr| {
        let (status, body) = exchange(addr, "GET", "/v1/health", "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("health is JSON");
        assert_eq!(
            doc.get("status").and_then(json::JsonValue::as_str),
            Some("ok")
        );
        let objectives = doc
            .get("objectives")
            .and_then(json::JsonValue::as_arr)
            .expect("objectives array");
        let names: Vec<_> = objectives
            .iter()
            .filter_map(|o| o.get("name").and_then(json::JsonValue::as_str))
            .collect();
        assert_eq!(names, ["latency", "shed_rate"], "{body}");
    });

    // A hair-trigger latency objective flips the verdict to 503 once
    // traffic burns through the error budget in both windows.
    let cfg = ServerStateConfig {
        latency_threshold_us: 0.001,
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        for _ in 0..20 {
            assert_eq!(exchange(addr, "POST", "/v1/cost", COST_BODY).0, 200);
        }
        let (status, body) = exchange(addr, "GET", "/v1/health", "");
        assert_eq!(status, 503, "every request misses a 1ns SLO: {body}");
        assert!(body.contains("\"status\":\"failing\""), "{body}");
    });
}

#[test]
fn access_log_records_every_request_in_golden_field_order() {
    let path = std::env::temp_dir().join(format!(
        "nanocost_access_log_{}.jsonl",
        std::process::id()
    ));
    let cfg = ServerStateConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        assert_eq!(exchange(addr, "POST", "/v1/cost", COST_BODY).0, 200);
        assert_eq!(exchange(addr, "POST", "/v1/cost", COST_BODY).0, 200);
        assert_eq!(exchange(addr, "GET", "/v1/metrics", "").0, 200);
        assert_eq!(exchange(addr, "GET", "/v1/trace/r999", "").0, 404);
    });
    let log = std::fs::read_to_string(&path).expect("access log written");
    let _ = std::fs::remove_file(&path);

    // Normalize the only non-deterministic field (latency digits) and
    // compare the rest byte for byte.
    let normalized: Vec<String> = log
        .lines()
        .map(|line| {
            let at = line.find("\"latency_ns\":").expect("latency field");
            let rest = &line[at + 13..];
            let end = rest.find(',').expect("field after latency");
            format!("{}\"latency_ns\":N{}", &line[..at], &rest[end..])
        })
        .collect();
    assert_eq!(
        normalized,
        [
            // A cost request performs two cache lookups (mask-set cost
            // and the breakdown): the first request misses both, the
            // identical second hits both.
            "{\"req_id\":\"r1\",\"endpoint\":\"cost\",\"status\":200,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":2}",
            "{\"req_id\":\"r2\",\"endpoint\":\"cost\",\"status\":200,\"latency_ns\":N,\"cache_hits\":2,\"cache_misses\":0}",
            "{\"req_id\":\"-\",\"endpoint\":\"metrics\",\"status\":200,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":0}",
            "{\"req_id\":\"-\",\"endpoint\":\"trace\",\"status\":404,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":0}",
        ],
        "access log drifted from the golden shape:\n{log}"
    );
    for line in log.lines() {
        nanocost_trace::json::validate(line).expect("access record is JSON");
    }
}

#[test]
fn access_log_cache_columns_count_only_their_own_request() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 500;
    let path = std::env::temp_dir().join(format!(
        "nanocost_access_log_concurrent_{}.jsonl",
        std::process::id()
    ));
    let cfg = ServerStateConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    // Workers sharing one state, as the server's pool does, released
    // together; the points overlap across threads, so hits and misses
    // interleave.
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (state, start) = (&state, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..REQUESTS {
                    let sd = 200 + (t * REQUESTS + i) % 97;
                    let body = format!(
                        r#"{{"lambda_um":0.18,"sd":{sd},"transistors":1e7,"volume":5000,"fab_yield":0.4}}"#
                    );
                    let req = Request {
                        method: "POST".to_string(),
                        path: "/v1/cost".to_string(),
                        version: "HTTP/1.1".to_string(),
                        headers: Vec::new(),
                        body: body.into_bytes(),
                    };
                    assert_eq!(handle(state, &req).status, 200);
                }
            });
        }
    });
    let log = std::fs::read_to_string(&path).expect("access log written");
    let _ = std::fs::remove_file(&path);

    let field = |doc: &json::JsonValue, name: &str| {
        doc.get(name)
            .and_then(json::JsonValue::as_u64)
            .expect("cache column")
    };
    let mut records = 0;
    for line in log.lines() {
        let doc = json::parse(line).expect("access record is JSON");
        // A cost request performs exactly two lookups (mask-set cost and
        // the breakdown), whatever the other workers do meanwhile.
        assert_eq!(
            field(&doc, "cache_hits") + field(&doc, "cache_misses"),
            2,
            "record counts another request's lookups: {line}"
        );
        records += 1;
    }
    assert_eq!(records, THREADS * REQUESTS);
}

#[test]
fn trace_ring_capacity_and_eviction_counter_are_live() {
    let cfg = ServerStateConfig {
        trace_ring: 2,
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        for _ in 0..4 {
            assert_eq!(exchange(addr, "POST", "/v1/cost", COST_BODY).0, 200);
        }
        // r1/r2 evicted (410 with machine-readable context), r3/r4
        // retained.
        let (status, body) = exchange(addr, "GET", "/v1/trace/r1", "");
        assert_eq!(status, 410, "{body}");
        assert!(body.contains("serve.trace_ring.evicted"), "{body}");
        assert_eq!(exchange(addr, "GET", "/v1/trace/r2", "").0, 410);
        assert_eq!(exchange(addr, "GET", "/v1/trace/r3", "").0, 200);
        assert_eq!(exchange(addr, "GET", "/v1/trace/r4", "").0, 200);
        let (_, metrics) = exchange(addr, "GET", "/v1/metrics", "");
        let doc = json::parse(&metrics).expect("metrics is JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("trace_ring_evicted"))
                .and_then(json::JsonValue::as_u64),
            Some(2),
            "{metrics}"
        );
    });
}

#[test]
fn worker_served_counts_requests_not_connections() {
    // Asserted after the server stops: a panic inside the closure would
    // leave the server running and hang the test.
    let mut raw = String::new();
    with_server_state(ServerState::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Two kept-alive cost requests, then the raw metrics on the same
        // connection: both earlier responses are counted by then.
        let cost = format!(
            "POST /v1/cost HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COST_BODY}",
            COST_BODY.len()
        );
        write!(
            stream,
            "{cost}{cost}GET /v1/metrics/raw HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("write");
        let _ = stream.read_to_string(&mut raw);
    });
    assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 3, "{raw}");
    let metrics = raw.rsplit_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    let doc = json::parse(metrics).expect("raw metrics is JSON");
    let served: u64 = doc
        .get("workers")
        .and_then(json::JsonValue::as_arr)
        .expect("workers array")
        .iter()
        .filter_map(|w| w.get("served").and_then(json::JsonValue::as_u64))
        .sum();
    assert_eq!(served, 2, "{metrics}");
}
