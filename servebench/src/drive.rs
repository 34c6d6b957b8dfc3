//! The closed-loop load generator, response checks and `/v1/metrics` deltas.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nanocost_sentinel::federate::RawSnapshot;
use nanocost_sentinel::histogram::RawHistogram;
use nanocost_sentinel::json::{self, JsonValue};
use nanocost_sentinel::LogHistogram;
use nanocost_serve::{handle, Request, ServerState};

use crate::client::{Client, Timing};
use crate::gen::{Endpoint, Generator, Query, BATCH_POINTS};

/// Client threads: the design-space users, each waiting for its answer
/// before asking the next question.
pub const CLIENTS: usize = 2;

/// Window over which throughput is counted.
pub const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Most sampled responses kept for the in-process comparison.
const MAX_SAMPLES: usize = 48;

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// When the first request was sent.
    pub started: Option<Instant>,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
    /// Requests sent.
    pub attempted: u64,
    /// 2xx answers that passed every check.
    pub completed: u64,
    /// Design points priced by the completed requests.
    pub points: u64,
    /// Requests that failed at the transport level.
    pub io_errors: u64,
    /// Requests shed with a 503.
    pub shed: u64,
    /// Answers with a wrong status or body.
    pub wrong: u64,
    /// The first few reasons an answer was wrong or failed.
    pub problems: Vec<String>,
    /// Completion time, design points and latency in microseconds of
    /// each completed request.
    pub completions: Vec<(Instant, u32, f64)>,
    /// Stage timings of each completed request (traced phases only).
    pub timings: Vec<(u64, Timing)>,
    /// Connections opened.
    pub connects: u64,
    /// Batch points the server reported as hits and as misses.
    pub batch_hits: u64,
    /// See `batch_hits`.
    pub batch_misses: u64,
    /// `(request index, body)` of the seeded response sample.
    pub samples: Vec<(u64, Vec<u8>)>,
    /// The highest request id answered.
    pub last_req_id: Option<(u64, String)>,
}

impl Outcome {
    /// The completions of each whole [`RATE_WINDOW`] of the phase.
    #[must_use]
    pub fn windows(&self) -> Vec<Vec<(u32, f64)>> {
        let windows = (self.elapsed.as_nanos() / RATE_WINDOW.as_nanos()) as usize;
        let mut out = vec![Vec::new(); windows];
        let Some(started) = self.started else {
            return out;
        };
        for &(done, points, latency) in &self.completions {
            let w = (done.saturating_duration_since(started).as_nanos() / RATE_WINDOW.as_nanos())
                as usize;
            if let Some(window) = out.get_mut(w) {
                window.push((points, latency));
            }
        }
        out
    }

    /// Latency of every completed request, microseconds.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        self.completions.iter().map(|c| c.2).collect()
    }

    /// Completed requests and design points per second, each the mean
    /// of the middle half of the phase's window rates, so a burst of
    /// host noise moves a window or two rather than the result. A phase
    /// shorter than one window falls back to its whole-phase rate.
    #[must_use]
    pub fn rates(&self) -> (f64, f64) {
        let windows = self.windows();
        let requests: Vec<f64> = windows.iter().map(|w| w.len() as f64).collect();
        let points: Vec<f64> = windows
            .iter()
            .map(|w| w.iter().map(|c| f64::from(c.0)).sum())
            .collect();
        if requests.is_empty() {
            let secs = self.elapsed.as_secs_f64();
            return (self.completed as f64 / secs, self.points as f64 / secs);
        }
        let per_s = RATE_WINDOW.as_secs_f64();
        (
            crate::stats::interquartile_mean(&requests) / per_s,
            crate::stats::interquartile_mean(&points) / per_s,
        )
    }

    /// Requests that failed, were shed or came back wrong.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.io_errors + self.shed + self.wrong
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.points += other.points;
        self.io_errors += other.io_errors;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
        self.completions.extend(other.completions);
        self.timings.extend(other.timings);
        self.connects += other.connects;
        self.batch_hits += other.batch_hits;
        self.batch_misses += other.batch_misses;
        self.samples.extend(other.samples);
        if other.last_req_id.as_ref().map(|l| l.0) > self.last_req_id.as_ref().map(|l| l.0) {
            self.last_req_id = other.last_req_id;
        }
    }

    fn note_problem(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// Runs [`CLIENTS`] closed-loop clients for `duration`, taking request
/// indices from `next`. With `traced`, each request's stage timings
/// are kept.
#[must_use]
pub fn closed_loop(
    addr: SocketAddr,
    gen: &Generator,
    next: &AtomicU64,
    duration: Duration,
    traced: bool,
) -> Outcome {
    let started = Instant::now();
    let deadline = started + duration;
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || client_loop(addr, gen, next, deadline, traced)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(outcome) => total.merge(outcome),
                Err(_) => total.note_problem("client thread panicked".to_string()),
            }
        }
    });
    total.started = Some(started);
    total.elapsed = started.elapsed();
    total.samples.sort_by_key(|s| s.0);
    total.samples.truncate(MAX_SAMPLES);
    total
}

fn client_loop(
    addr: SocketAddr,
    gen: &Generator,
    next: &AtomicU64,
    deadline: Instant,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut client = Client::new(addr);
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let query = gen.request(index);
        let raw = query.http();
        std::thread::sleep(gen.think(index));
        out.attempted += 1;
        let (response, timing) = match client.send(&raw) {
            Ok(r) => r,
            Err(e) => {
                out.io_errors += 1;
                out.note_problem(format!("request {index}: {e}"));
                continue;
            }
        };
        if response.status == 503 {
            out.shed += 1;
            continue;
        }
        match check(&query, response.status, &response.body) {
            Ok(answer) => {
                out.completed += 1;
                out.points += query.points.len() as u64;
                let latency_us = timing.latency().as_secs_f64() * 1e6;
                out.completions
                    .push((timing.done, query.points.len() as u32, latency_us));
                out.batch_hits += answer.batch_hits;
                out.batch_misses += answer.batch_misses;
                if traced {
                    out.timings.push((index, timing));
                }
                if gen.sampled(index) && out.samples.len() < MAX_SAMPLES {
                    out.samples.push((index, response.body));
                }
                if out.last_req_id.as_ref().is_none_or(|l| l.0 < index) {
                    out.last_req_id = Some((index, answer.req_id));
                }
            }
            Err(problem) => {
                out.wrong += 1;
                out.note_problem(format!("request {index}: {problem}"));
            }
        }
    }
    out.connects = client.connects;
    out
}

/// What a correct answer reported.
#[derive(Debug, Default)]
pub struct Answer {
    /// The server's request id.
    pub req_id: String,
    /// Batch points served from the cache.
    pub batch_hits: u64,
    /// Batch points evaluated fresh.
    pub batch_misses: u64,
}

/// Checks one answer: 2xx, valid JSON with a `req_id`, and for a batch
/// `"requested":64` with no per-point error.
///
/// # Errors
///
/// A description of the first violated check.
pub fn check(query: &Query, status: u16, body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if !(200..300).contains(&status) {
        return Err(format!("status {status}: {text}"));
    }
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let req_id = doc
        .get("req_id")
        .and_then(JsonValue::as_str)
        .ok_or("no req_id")?
        .to_string();
    let mut answer = Answer {
        req_id,
        ..Answer::default()
    };
    if query.endpoint == Endpoint::Batch {
        if !text.contains(&format!("\"requested\":{BATCH_POINTS}")) {
            return Err("batch did not report \"requested\":64".to_string());
        }
        let results = doc
            .get("results")
            .and_then(JsonValue::as_arr)
            .ok_or("batch without results")?;
        if results.len() != BATCH_POINTS || results.iter().any(|r| r.get("error").is_some()) {
            return Err("batch results are short or carry an error".to_string());
        }
        let stats = doc.get("stats").ok_or("batch without stats")?;
        answer.batch_hits = stats.get("hits").and_then(JsonValue::as_u64).unwrap_or(0);
        answer.batch_misses = stats.get("misses").and_then(JsonValue::as_u64).unwrap_or(0);
    }
    Ok(answer)
}

/// The parsed HTTP request for `query`, as the server would see it.
#[must_use]
pub fn request_of(query: &Query) -> Request {
    nanocost_serve::read_request(&mut std::io::Cursor::new(query.http()))
        .expect("generated requests are well-formed HTTP")
}

/// `body` without its leading `"req_id":"…",` member.
#[must_use]
pub(crate) fn without_req_id(body: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(body);
    let Some(start) = text.find("\"req_id\":\"") else {
        return body.to_vec();
    };
    let value = start + "\"req_id\":\"".len();
    let Some(len) = text[value..].find('"') else {
        return body.to_vec();
    };
    let mut end = value + len + 1;
    if text[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &text[..start], &text[end..]).into_bytes()
}

/// Replays each sampled request through `handle` on a fresh
/// `ServerState` and returns the mismatches.
#[must_use]
pub fn compare_in_process(gen: &Generator, samples: &[(u64, Vec<u8>)]) -> Vec<String> {
    let state = ServerState::new();
    let mut mismatches = Vec::new();
    for (index, body) in samples {
        let query = gen.request(*index);
        let expected = handle(&state, &request_of(&query));
        if without_req_id(&expected.body) != without_req_id(body) {
            mismatches.push(format!(
                "request {index}: served {} but in-process {}",
                String::from_utf8_lossy(body),
                String::from_utf8_lossy(&expected.body)
            ));
        }
    }
    mismatches
}

/// One scrape of `/v1/metrics/raw` plus the chiplet cache counters of
/// `/v1/metrics`.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// The mergeable snapshot.
    pub raw: RawSnapshot,
    /// Chiplet cache hits.
    pub chiplet_hits: u64,
    /// Chiplet cache misses.
    pub chiplet_misses: u64,
}

/// Scrapes the server's metrics.
///
/// # Errors
///
/// Transport failure, a non-200 answer, or an unparsable document.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut client = Client::new(addr);
    let fetch = |client: &mut Client, path: &str| -> Result<String, String> {
        let r = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path}: status {}", r.status));
        }
        String::from_utf8(r.body).map_err(|_| format!("GET {path}: not UTF-8"))
    };
    let raw =
        RawSnapshot::parse(&fetch(&mut client, "/v1/metrics/raw")?).map_err(|e| e.to_string())?;
    let metrics = json::parse(&fetch(&mut client, "/v1/metrics")?).map_err(|e| e.to_string())?;
    let chiplet = metrics
        .get("chiplet_cache")
        .ok_or("no chiplet_cache in /v1/metrics")?;
    let count = |key: &str| chiplet.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Scrape {
        chiplet_hits: count("hits"),
        chiplet_misses: count("misses"),
        raw,
    })
}

/// What the server counted between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Scenario-cache hits.
    pub hits: u64,
    /// Scenario-cache misses.
    pub misses: u64,
    /// Scenario-cache entries evicted (misses that did not grow it).
    pub evictions: u64,
    /// Chiplet-cache hits.
    pub chiplet_hits: u64,
    /// Chiplet-cache misses.
    pub chiplet_misses: u64,
    /// Connections shed.
    pub shed: u64,
    /// Captures evicted from the trace ring.
    pub ring_evicted: u64,
    /// Worker busy share of busy plus idle time.
    pub busy_frac: f64,
    /// Handler latency histogram over every endpoint.
    pub handler: LogHistogram,
}

impl Delta {
    /// The counts between `before` and `after`.
    #[must_use]
    pub fn between(before: &Scrape, after: &Scrape) -> Delta {
        let (b, a) = (&before.raw, &after.raw);
        let counter = |name: &str| {
            a.counters
                .get(name)
                .copied()
                .unwrap_or(0)
                .saturating_sub(b.counters.get(name).copied().unwrap_or(0))
        };
        let misses = a.cache.misses.saturating_sub(b.cache.misses);
        let grown = a.cache.entries.saturating_sub(b.cache.entries);
        let busy: u64 = a.workers.iter().map(|w| w.busy_ns).sum::<u64>()
            - b.workers.iter().map(|w| w.busy_ns).sum::<u64>();
        let idle: u64 = a.workers.iter().map(|w| w.idle_ns).sum::<u64>()
            - b.workers.iter().map(|w| w.idle_ns).sum::<u64>();
        let mut handler = LogHistogram::new();
        for (name, hist) in &a.endpoints {
            if let Some(delta) = histogram_delta(b.endpoints.get(name), hist) {
                let _ = handler.merge(&delta);
            }
        }
        Delta {
            hits: a.cache.hits.saturating_sub(b.cache.hits),
            misses,
            evictions: misses.saturating_sub(grown),
            chiplet_hits: after.chiplet_hits.saturating_sub(before.chiplet_hits),
            chiplet_misses: after.chiplet_misses.saturating_sub(before.chiplet_misses),
            shed: counter("shed_total"),
            ring_evicted: counter("trace_ring_evicted"),
            busy_frac: crate::stats::ratio(busy as f64, (busy + idle) as f64),
            handler,
        }
    }
}

/// The samples `after` holds beyond `before`.
fn histogram_delta(before: Option<&LogHistogram>, after: &LogHistogram) -> Option<LogHistogram> {
    let a = after.raw_parts();
    let old: BTreeMap<i64, u64> = before
        .map(|b| b.raw_parts().buckets.into_iter().collect())
        .unwrap_or_default();
    let buckets: Vec<(i64, u64)> = a
        .buckets
        .iter()
        .map(|&(idx, n)| (idx, n.saturating_sub(old.get(&idx).copied().unwrap_or(0))))
        .filter(|&(_, n)| n > 0)
        .collect();
    let underflow = a
        .underflow
        .saturating_sub(before.map_or(0, |b| b.raw_parts().underflow));
    let count = underflow + buckets.iter().map(|b| b.1).sum::<u64>();
    if count == 0 {
        return None;
    }
    LogHistogram::from_raw_parts(RawHistogram {
        grid: a.grid,
        underflow,
        count,
        sum: a.sum - before.map_or(0.0, |b| b.raw_parts().sum),
        min: a.min,
        max: a.max,
        buckets,
        exemplars: Vec::new(),
    })
    .ok()
}
