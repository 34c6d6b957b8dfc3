//! `servebench` — drives a release `serve` with closed-loop clients and
//! prints one JSON result line.
//!
//! ```text
//! servebench --serve-bin PATH --workload explore|sweep|optimum
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing
//! off. `--trace 1` reports the per-layer metrics: a closed-loop phase
//! with client stage timings and `/v1/metrics` deltas, then an
//! in-process pass timing each layer's public functions, with the
//! spans written to `.bench_out/spans-<workload>.jsonl`. Any wrong
//! answer or failed check makes the run exit 1.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

use nanocost_sentinel::json;
use servebench::client::Client;
use servebench::drive::{self, Delta, Outcome, CLIENTS};
use servebench::gen::{Generator, Workload};
use servebench::layers::{self, LayerReport};
use servebench::server::Serve;
use servebench::spans::SpanLog;
use servebench::stats::{median, quantile, ratio};

/// `serve` processes started to time set-up; the last one is measured.
const SETUP_SPAWNS: usize = 9;

/// Untimed closed-loop time after the warm-up requests, long enough to
/// fill the server's 256-capture trace ring on every workload.
const PRE_ROLL: Duration = Duration::from_millis(1500);

/// Shares of `--seconds` in a traced run: untraced loop, traced loop,
/// in-process layer pass.
const TRACED_SHARES: [f64; 3] = [0.3, 0.3, 0.4];

struct Args {
    serve_bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut serve_bin, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics in the result line. Throughput, tail latency
/// and error rate are printed on standard error but not gated; see
/// `PREDICTIONS.md` for the measured spreads behind that choice.
const GATED: [&str; 4] = ["latency_p50_us", "cpu_us_per_req", "rss_peak_mb", "setup_s"];

/// The result line's metrics, in order, as `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Everything one run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Human-readable lines for standard error.
    notes: String,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            eprint!("{}", report.notes);
            let mut metrics = String::new();
            for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                );
            }
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
                report.correct, report.attempted, report.failed
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Starts [`SETUP_SPAWNS`] servers, stopping all but the last; returns
/// it, the median time to healthy, and any exit-status problems.
fn setup(args: &Args) -> Result<(Serve, f64, Vec<String>), String> {
    let mut times = Vec::new();
    let mut problems = Vec::new();
    for k in 0..SETUP_SPAWNS {
        let (serve, took) =
            Serve::start(&args.serve_bin).map_err(|e| format!("starting serve: {e}"))?;
        times.push(took.as_secs_f64());
        if k + 1 == SETUP_SPAWNS {
            return Ok((serve, median(&times), problems));
        }
        problems.extend(stop(serve));
    }
    unreachable!("SETUP_SPAWNS is at least one")
}

/// SIGTERM, then the check that `serve` exited with status 0.
fn stop(serve: Serve) -> Option<String> {
    match serve.stop() {
        Ok(status) if status.success() => None,
        Ok(status) => Some(format!("serve exited with {status} on SIGTERM")),
        Err(e) => Some(format!("stopping serve: {e}")),
    }
}

/// Sends the warm-up requests from one client; returns the problems.
fn warm(serve: &Serve, gen: &Generator) -> Vec<String> {
    let mut client = Client::new(serve.addr);
    let mut problems = Vec::new();
    for q in gen.warmup() {
        match client.send(&q.http()) {
            Ok((r, _)) => {
                if let Err(e) = drive::check(&q, r.status, &r.body) {
                    problems.push(format!("warm-up: {e}"));
                }
            }
            Err(e) => problems.push(format!("warm-up: {e}")),
        }
    }
    problems
}

/// Fetches the capture of the last answered request and checks that it
/// is JSONL carrying Eq. provenance; returns its record count.
fn check_trace(serve: &Serve, outcome: &Outcome) -> Result<usize, String> {
    let (_, req_id) = outcome
        .last_req_id
        .as_ref()
        .ok_or("no request was answered")?;
    let r = Client::new(serve.addr)
        .get(&format!("/v1/trace/{req_id}"))
        .map_err(|e| format!("GET /v1/trace/{req_id}: {e}"))?;
    let text = String::from_utf8(r.body).map_err(|_| "trace is not UTF-8".to_string())?;
    if r.status != 200 {
        return Err(format!("GET /v1/trace/{req_id}: status {}", r.status));
    }
    if !(text.contains("\"type\":\"provenance\"") && text.contains("Eq.")) {
        return Err(format!("trace {req_id} carries no Eq. provenance"));
    }
    let mut records = 0;
    for line in text.lines() {
        json::parse(line).map_err(|e| format!("trace {req_id} line is not JSON: {e}"))?;
        records += 1;
    }
    Ok(records)
}

/// Client latency percentiles over every completed request:
/// `(p50, p99, samples)`.
fn latency(outcome: &Outcome) -> (f64, f64, usize) {
    let mut all = outcome.latencies();
    let n = all.len();
    let p50 = quantile(&mut all, 0.5).unwrap_or(0.0);
    let p99 = quantile(&mut all, 0.99).unwrap_or(0.0);
    (p50, p99, n)
}

/// The share of requests with the workload's defining property.
fn property(workload: Workload, outcome: &Outcome, delta: &Delta) -> (f64, String) {
    match workload {
        Workload::Explore => {
            let hits = delta.hits + delta.chiplet_hits;
            let lookups = hits + delta.misses + delta.chiplet_misses;
            let share = ratio(hits as f64, lookups as f64);
            (
                share,
                format!("cache-hit share {share:.4} ({hits} hits of {lookups} lookups)"),
            )
        }
        Workload::Sweep => {
            let points = outcome.batch_hits + outcome.batch_misses;
            let share = ratio(
                delta.evictions.min(outcome.batch_misses) as f64,
                points as f64,
            );
            (
                share,
                format!(
                    "miss-and-evict share {share:.4} ({} misses, {} evictions of {points} points)",
                    outcome.batch_misses, delta.evictions
                ),
            )
        }
        Workload::Optimum => {
            let share = ratio(delta.misses as f64, outcome.completed as f64);
            (
                share,
                format!(
                    "miss share {share:.4} ({} misses of {} requests)",
                    delta.misses, outcome.completed
                ),
            )
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let gen = Generator::new(args.workload, args.seed);
    let (serve, setup_s, mut problems) = setup(args)?;
    problems.extend(warm(&serve, &gen));
    let next = AtomicU64::new(0);
    let pre_roll = drive::closed_loop(serve.addr, &gen, &next, PRE_ROLL, false);
    problems.extend(pre_roll.problems.iter().cloned());
    let total = Duration::from_secs_f64(args.seconds);
    let mut notes = format!(
        "servebench {} seed {}: {CLIENTS} closed-loop clients, serve --workers 2 (pid {})\n",
        args.workload.name(),
        args.seed,
        serve.pid()
    );

    let untraced_for = if args.trace {
        total.mul_f64(TRACED_SHARES[0])
    } else {
        total
    };
    let before = drive::scrape(serve.addr)?;
    let cpu_before = serve.cpu_us().map_err(|e| e.to_string())?;
    let untraced = drive::closed_loop(serve.addr, &gen, &next, untraced_for, false);
    let cpu_after = serve.cpu_us().map_err(|e| e.to_string())?;
    let after = drive::scrape(serve.addr)?;
    let delta = Delta::between(&before, &after);
    let traced = if args.trace {
        let before = drive::scrape(serve.addr)?;
        let outcome = drive::closed_loop(
            serve.addr,
            &gen,
            &next,
            total.mul_f64(TRACED_SHARES[1]),
            true,
        );
        let after = drive::scrape(serve.addr)?;
        Some((outcome, Delta::between(&before, &after)))
    } else {
        None
    };
    let rss_mb = serve.peak_rss_mb().map_err(|e| e.to_string())?;
    let last = traced.as_ref().map_or(&untraced, |t| &t.0);
    let trace_records = match check_trace(&serve, last) {
        Ok(records) => records,
        Err(e) => {
            problems.push(e);
            0
        }
    };
    problems.extend(stop(serve));

    let mut samples = untraced.samples.clone();
    if let Some((t, _)) = &traced {
        samples.extend(t.samples.iter().cloned());
    }
    problems.extend(drive::compare_in_process(&gen, &samples));
    problems.extend(untraced.problems.iter().cloned());
    let (p50, p99, n) = latency(&untraced);
    let secs = untraced.elapsed.as_secs_f64();
    let (rps, points_per_s) = untraced.rates();
    let (share, share_note) = property(args.workload, &untraced, &delta);
    let error_rate = ratio(untraced.failed() as f64, untraced.attempted as f64);
    let mut all = untraced.latencies();
    let tail: Vec<String> = [0.9, 0.95, 0.98, 0.995, 0.999]
        .iter()
        .map(|q| {
            format!(
                "p{}={:.0}",
                q * 100.0,
                quantile(&mut all, *q).unwrap_or(0.0)
            )
        })
        .collect();
    let _ = writeln!(notes, "  client latency tail (us): {}", tail.join(" "));
    let counts: Vec<usize> = untraced.windows().iter().map(Vec::len).collect();
    let _ = writeln!(
        notes,
        "  completions per {:?} window: {counts:?}",
        drive::RATE_WINDOW
    );
    let _ = writeln!(
        notes,
        "  {} requests in {secs:.2} s; {} shed, {} transport errors, {} wrong; error_rate {error_rate} ({} of {} attempted)\n  {share_note}; {trace_records} records in the last request's capture\n  {} sampled answers identical to in-process handle apart from req_id",
        untraced.completed,
        untraced.shed,
        untraced.io_errors,
        untraced.wrong,
        untraced.failed(),
        untraced.attempted,
        samples.len(),
    );

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed();
    let metrics = if let Some((t, tdelta)) = traced {
        let pass_budget = total.mul_f64(TRACED_SHARES[2]);
        let mut spans = SpanLog::new();
        let layer = layers::run(&gen, pass_budget, &mut spans);
        problems.extend(layer.problems.iter().cloned());
        problems.extend(t.problems.iter().cloned());
        attempted += t.attempted;
        failed += t.failed();
        let metrics = per_layer(
            args.workload,
            &t,
            &tdelta,
            &layer,
            (rps, points_per_s),
            share,
            &mut notes,
        );
        let _ = writeln!(
            notes,
            "  self time by span, mean us per in-process request:"
        );
        for (name, us) in spans.self_time_us() {
            let _ = writeln!(
                notes,
                "    {name:<40} {:>10.2}",
                us / layer.requests.max(1) as f64
            );
        }
        for (index, timing) in &t.timings {
            let root = spans.record("client.request", *index, timing.sent, timing.done);
            spans.record_child(root, "client.ttfb", timing.sent, timing.first_byte);
            if let Some((a, b)) = timing.connect {
                spans.record("client.connect", *index, a, b);
            }
        }
        write_spans(args.workload, &spans, &mut notes);
        metrics
    } else {
        let reported: Metrics = vec![
            ("throughput_rps", rps, "1/s"),
            ("points_per_s", points_per_s, "1/s"),
            ("latency_p50_us", p50, "us"),
            ("latency_p99_us", p99, "us"),
            ("error_rate", error_rate, "ratio"),
            (
                "cpu_us_per_req",
                ratio(cpu_after - cpu_before, untraced.completed as f64),
                "us",
            ),
            ("rss_peak_mb", rss_mb, "MiB"),
            ("setup_s", setup_s, "s"),
        ];
        for (name, value, unit) in &reported {
            let extra = match *name {
                "latency_p50_us" | "latency_p99_us" => format!(" (n={n})"),
                "setup_s" => format!(" (median of {SETUP_SPAWNS} starts)"),
                _ => String::new(),
            };
            let gate = if GATED.contains(name) {
                ""
            } else {
                "  [not gated]"
            };
            let _ = writeln!(notes, "  {name:<16} {value:>14.3} {unit}{extra}{gate}");
        }
        reported
            .into_iter()
            .filter(|m| GATED.contains(&m.0))
            .collect()
    };
    for p in &problems {
        let _ = writeln!(notes, "  FAILED CHECK: {p}");
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The per-layer metrics of a traced run, plus the reconciliation and
/// layer-share lines for standard error.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    t: &Outcome,
    delta: &Delta,
    layer: &LayerReport,
    (untraced_rps, untraced_points_per_s): (f64, f64),
    share: f64,
    notes: &mut String,
) -> Metrics {
    let (client_p50, client_p99, _) = latency(t);
    let (traced_rps, _) = t.rates();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let connect: Vec<f64> = t
        .timings
        .iter()
        .filter_map(|(_, tm)| tm.connect.map(|(a, b)| us(b - a)))
        .collect();
    let ttfb: Vec<f64> = t
        .timings
        .iter()
        .map(|(_, tm)| us(tm.first_byte - tm.sent))
        .collect();
    let handler_p50 = delta.handler.p50().unwrap_or(0.0);
    let in_server = handler_p50 + layer.read_request_us + layer.store_trace_us + layer.write_to_us;
    let unattributed = client_p50 - in_server;
    let completed = t.completed as f64;
    let core_lookups = (delta.hits + delta.misses) as f64;
    let chiplet_lookups = (delta.chiplet_hits + delta.chiplet_misses) as f64;
    let _ = writeln!(
        notes,
        "  reconcile: client p50 {client_p50:.1} us = handler p50 {handler_p50:.1} + read_request {:.1} + store_trace {:.1} + write_to {:.1} + unattributed {unattributed:.1} ({:.1}% of client p50)",
        layer.read_request_us,
        layer.store_trace_us,
        layer.write_to_us,
        100.0 * ratio(unattributed, client_p50)
    );
    let in_process = [
        ("serve.http.read_request", layer.read_request_us),
        ("sentinel.json.parse", layer.parse_us),
        ("serve.api.decode", layer.decode_us),
        ("core.cache+core.model (untraced call)", layer.lookup_us),
        ("trace.capture (traced - untraced)", layer.capture_us),
        ("serve.state.store_trace", layer.store_trace_us),
        ("serve.http.write_to", layer.write_to_us),
    ];
    let sum: f64 = in_process.iter().map(|l| l.1).sum();
    let _ = writeln!(
        notes,
        "  in-process layers over {} requests (median us per request):",
        layer.requests
    );
    for (name, v) in &in_process {
        let _ = writeln!(notes, "    {name:<40} {v:>10.2}");
    }
    let largest = in_process
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |l| l.0);
    let _ = writeln!(
        notes,
        "    sum {sum:.2} vs read_request + handle + write_to {:.2}; largest: {largest}",
        layer.read_request_us + layer.handle_us + layer.write_to_us
    );
    let _ = writeln!(
        notes,
        "  workload property: share {share:.4}; {:.1} records per capture; tracing overhead {:.1} rps (untraced {untraced_rps:.1}, traced {traced_rps:.1})",
        layer.records_per_req,
        untraced_rps - traced_rps
    );
    let expectation = match workload {
        Workload::Explore => (
            "serve.server.unattributed_us > latency_p50_us / 2",
            unattributed > client_p50 / 2.0,
        ),
        Workload::Sweep => (
            "core.cache + core.model is the largest in-process layer",
            largest.starts_with("core.cache"),
        ),
        Workload::Optimum => (
            "serve.state.store_trace is the largest in-process layer",
            largest == "serve.state.store_trace",
        ),
    };
    let _ = writeln!(
        notes,
        "  expectation {}: {}",
        expectation.0,
        if expectation.1 {
            "holds"
        } else {
            "DOES NOT HOLD"
        }
    );
    vec![
        ("client.latency_p99_us", client_p99, "us"),
        ("client.connect_us", median(&connect), "us"),
        ("client.ttfb_us", median(&ttfb), "us"),
        (
            "client.connects_per_req",
            ratio(t.connects as f64, t.attempted as f64),
            "count",
        ),
        ("serve.server.unattributed_us", unattributed, "us"),
        ("serve.server.workers_busy_frac", delta.busy_frac, "ratio"),
        ("serve.server.shed_total", delta.shed as f64, "count"),
        ("serve.http.read_request_us", layer.read_request_us, "us"),
        ("serve.http.write_to_us", layer.write_to_us, "us"),
        ("serve.http.response_bytes", layer.response_bytes, "bytes"),
        ("sentinel.json.parse_us", layer.parse_us, "us"),
        ("sentinel.json.body_bytes", layer.body_bytes, "bytes"),
        ("serve.api.handle_us", layer.handle_us, "us"),
        ("serve.state.handler_p50_us", handler_p50, "us"),
        (
            "core.cache.hit_rate",
            ratio(delta.hits as f64, core_lookups),
            "ratio",
        ),
        (
            "core.cache.evictions_per_req",
            ratio(delta.evictions as f64, completed),
            "count",
        ),
        ("core.cache.lookup_us", layer.lookup_us, "us"),
        (
            "core.model.eval_us_per_point",
            layer.eval_us_per_point,
            "us",
        ),
        ("core.optimize.search_us", layer.search_us, "us"),
        (
            "chiplet.cache.hit_rate",
            ratio(delta.chiplet_hits as f64, chiplet_lookups),
            "ratio",
        ),
        ("chiplet.cache.evaluate_us", layer.chiplet_evaluate_us, "us"),
        ("trace.capture_us", layer.capture_us, "us"),
        ("trace.records_per_req", layer.records_per_req, "count"),
        ("serve.state.store_trace_us", layer.store_trace_us, "us"),
        (
            "serve.state.trace_bytes_per_req",
            layer.trace_bytes_per_req,
            "bytes",
        ),
        (
            "serve.state.trace_ring_evicted",
            delta.ring_evicted as f64,
            "count",
        ),
        ("bench.throughput_rps", untraced_rps, "1/s"),
        ("bench.points_per_s", untraced_points_per_s, "1/s"),
        ("bench.throughput_rps_traced", traced_rps, "1/s"),
        ("bench.trace_overhead_rps", untraced_rps - traced_rps, "1/s"),
        ("bench.property_share", share, "ratio"),
    ]
}

/// Writes the span log to `.bench_out/spans-<workload>.jsonl`.
fn write_spans(workload: Workload, spans: &SpanLog, notes: &mut String) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| spans.write_jsonl(&mut std::io::BufWriter::new(f)));
    let _ = match written {
        Ok(()) => writeln!(
            notes,
            "  {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => writeln!(notes, "  spans not written: {e}"),
    };
}
