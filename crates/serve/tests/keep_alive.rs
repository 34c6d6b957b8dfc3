//! HTTP/1.1 keep-alive against a live server: connection reuse, the
//! close cases, the fairness rule that stops kept-alive clients from
//! pinning every worker, and shutdown with an idle connection open.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nanocost_serve::{Server, ServerConfig, ServerState};

const COST_BODY: &str =
    r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;

/// Runs its closure when dropped, so a failing test body still stops
/// the threads it started instead of hanging.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Runs `f` against a live two-worker server, then stops it.
fn with_server(io_timeout: Duration, f: impl FnOnce(&ServerState, SocketAddr)) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle().expect("stop handle");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        {
            let _stop = OnDrop(|| stop.stop());
            f(server.state(), addr);
        }
        handle.join().expect("server thread");
    });
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// One response read off a kept-alive stream, framed by its
/// `Content-Length`: `(status, connection header, body)`.
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head");
        assert_eq!(n, 1, "EOF inside a response head: {raw:?}");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).expect("UTF-8 head");
    let header = |name: &str| {
        head.lines()
            .find_map(|l| {
                let (n, v) = l.split_once(':')?;
                n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
            .unwrap_or_default()
    };
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; header("content-length").parse().expect("content-length")];
    stream.read_exact(&mut body).expect("read body");
    (
        status,
        header("connection"),
        String::from_utf8(body).expect("UTF-8 body"),
    )
}

fn cost_request(extra_headers: &str) -> String {
    format!(
        "POST /v1/cost HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{COST_BODY}",
        COST_BODY.len()
    )
}

/// Asserts the server closes `stream` with nothing more to say.
fn assert_eof(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
}

#[test]
fn two_requests_share_one_connection_and_the_second_hits_the_cache() {
    with_server(Duration::from_secs(2), |state, addr| {
        let mut stream = connect(addr);
        for _ in 0..2 {
            stream
                .write_all(cost_request("").as_bytes())
                .expect("write");
            let (status, connection, body) = read_response(&mut stream);
            assert_eq!((status, connection.as_str()), (200, "keep-alive"), "{body}");
        }
        // A cost request makes two lookups (mask set, breakdown): the
        // first request missed both, the second hit both.
        let stats = state.cache().stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    });
}

#[test]
fn connection_close_and_http_1_0_get_one_response_then_eof() {
    with_server(Duration::from_secs(2), |_, addr| {
        let close = cost_request("Connection: close\r\n");
        let http10 = "GET /v1/health HTTP/1.0\r\nHost: t\r\n\r\n".to_string();
        for request in [close, http10] {
            let mut stream = connect(addr);
            stream.write_all(request.as_bytes()).expect("write");
            let (status, connection, body) = read_response(&mut stream);
            assert_eq!((status, connection.as_str()), (200, "close"), "{body}");
            assert_eof(&mut stream);
        }
    });
}

#[test]
fn error_responses_close_the_connection() {
    with_server(Duration::from_secs(2), |_, addr| {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /v1/nowhere HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let (status, connection, _) = read_response(&mut stream);
        assert_eq!((status, connection.as_str()), (404, "close"));
        assert_eof(&mut stream);
    });
}

#[test]
fn a_kept_alive_connection_that_goes_idle_closes_silently() {
    let io_timeout = Duration::from_millis(200);
    with_server(io_timeout, |_, addr| {
        let mut stream = connect(addr);
        stream
            .write_all(cost_request("").as_bytes())
            .expect("write");
        assert_eq!(read_response(&mut stream).0, 200);
        // Nothing of a next request is sent: no 408, just a close.
        let started = Instant::now();
        assert_eof(&mut stream);
        assert!(
            started.elapsed() < 10 * io_timeout,
            "{:?}",
            started.elapsed()
        );
    });
}

/// Keeps one worker busy on a kept-alive connection, reconnecting
/// whenever the server closes it, until `done`; counts the requests
/// that reused a connection.
fn hold_a_worker(addr: SocketAddr, done: &AtomicBool, reused: &AtomicU64) {
    let mut stream = connect(addr);
    let mut on_this_connection = 0;
    while !done.load(Ordering::Relaxed) {
        stream
            .write_all(cost_request("").as_bytes())
            .expect("write");
        let (status, connection, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        on_this_connection += 1;
        if on_this_connection > 1 {
            reused.fetch_add(1, Ordering::Relaxed);
        }
        if connection == "close" {
            stream = connect(addr);
            on_this_connection = 0;
        }
    }
}

#[test]
fn a_third_client_is_served_while_two_kept_alive_clients_hold_both_workers() {
    let io_timeout = Duration::from_secs(2);
    with_server(io_timeout, |_, addr| {
        let done = AtomicBool::new(false);
        let reused = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let _stop_holders = OnDrop(|| done.store(true, Ordering::Relaxed));
            for _ in 0..2 {
                scope.spawn(|| hold_a_worker(addr, &done, &reused));
            }
            // Wait until the holders are reusing their connections.
            let warm = Instant::now();
            while reused.load(Ordering::Relaxed) < 20 {
                assert!(
                    warm.elapsed() < Duration::from_secs(10),
                    "holders never reused"
                );
                std::thread::yield_now();
            }
            let started = Instant::now();
            let mut third = connect(addr);
            third.set_read_timeout(Some(io_timeout)).expect("timeout");
            third
                .write_all(cost_request("Connection: close\r\n").as_bytes())
                .expect("write");
            let (status, _, body) = read_response(&mut third);
            let waited = started.elapsed();
            assert_eq!(status, 200, "{body}");
            assert!(waited < io_timeout, "third client waited {waited:?}");
        });
    });
}

#[test]
fn a_third_client_is_served_once_idle_kept_alive_clients_time_out() {
    let io_timeout = Duration::from_millis(500);
    with_server(io_timeout, |_, addr| {
        // Two connections, each left idle after one request, so both
        // workers wait on them. Opened together so neither is queued
        // behind the other's idle wait.
        let mut holders = [connect(addr), connect(addr)];
        for stream in &mut holders {
            stream
                .write_all(cost_request("").as_bytes())
                .expect("write");
        }
        for stream in &mut holders {
            assert_eq!(read_response(stream).0, 200);
        }
        std::thread::sleep(Duration::from_millis(250));
        let started = Instant::now();
        let mut third = connect(addr);
        third
            .write_all(cost_request("Connection: close\r\n").as_bytes())
            .expect("write");
        assert_eq!(read_response(&mut third).0, 200);
        let waited = started.elapsed();
        assert!(waited < io_timeout, "third client waited {waited:?}");
        for stream in &mut holders {
            assert_eof(stream);
        }
    });
}

#[test]
fn shutdown_finishes_within_the_deadline_with_an_idle_connection_open() {
    let io_timeout = Duration::from_secs(1);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle().expect("stop handle");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut idle = connect(addr);
        idle.write_all(cost_request("").as_bytes()).expect("write");
        let (status, connection, _) = read_response(&mut idle);
        assert_eq!((status, connection.as_str()), (200, "keep-alive"));
        std::thread::sleep(Duration::from_millis(300));
        let started = Instant::now();
        stop.stop();
        handle.join().expect("server thread");
        let took = started.elapsed();
        assert!(took < io_timeout, "shutdown took {took:?}");
        // New connections are refused once the listener is down.
        assert!(TcpStream::connect(addr).is_err());
        drop(idle);
    });
}

#[test]
fn shutdown_finishes_within_the_deadline_while_a_client_keeps_sending() {
    let io_timeout = Duration::from_secs(1);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle().expect("stop handle");
    let responses = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        // Back-to-back requests on one connection until the server
        // closes it; bounded, so a server that never closes fails the
        // timing assertion below instead of hanging the test.
        let client = scope.spawn(|| {
            let mut stream = connect(addr);
            let started = Instant::now();
            while started.elapsed() < 3 * io_timeout {
                stream
                    .write_all(cost_request("").as_bytes())
                    .expect("write");
                let (status, connection, body) = read_response(&mut stream);
                assert_eq!(status, 200, "{body}");
                responses.fetch_add(1, Ordering::Relaxed);
                if connection == "close" {
                    assert_eof(&mut stream);
                    return true;
                }
            }
            false
        });
        let warm = Instant::now();
        while responses.load(Ordering::Relaxed) < 20 {
            assert!(warm.elapsed() < Duration::from_secs(10), "client never got going");
            std::thread::yield_now();
        }
        let started = Instant::now();
        stop.stop();
        handle.join().expect("server thread");
        let took = started.elapsed();
        let closed = client.join().expect("client thread");
        assert!(took < io_timeout, "shutdown took {took:?}");
        assert!(closed, "the busy connection was never told to close");
    });
}
