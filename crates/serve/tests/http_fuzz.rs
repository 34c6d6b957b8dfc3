//! Property fuzz over the HTTP parser plus bounded-read server tests.
//!
//! The parser contract under test: arbitrary bytes, arbitrarily split
//! reads, oversized heads, and truncated bodies all map to clean
//! [`ParseError`]s — never a panic, never an unbounded read — and a
//! stalled peer is answered (or dropped) within the configured
//! deadline rather than wedging a worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nanocost_numeric::Rng64;
use nanocost_serve::http::{read_next_request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use nanocost_serve::{read_request, ParseError, Request, Server, ServerConfig};

/// A reader that hands out a byte stream in caller-chosen slice sizes,
/// modelling TCP segmentation. Returns `Ok(0)` (EOF) once drained.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunks,
            turn: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let planned = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = planned.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn parse_chunked(data: &[u8], rng: &mut Rng64) -> Result<Request, ParseError> {
    let chunks: Vec<usize> = (0..8).map(|_| rng.random_range(1..97usize)).collect();
    let mut reader = ChunkedReader::new(data.to_vec(), chunks);
    read_request(&mut reader)
}

fn parse_whole(data: &[u8]) -> Result<Request, ParseError> {
    let mut cursor = std::io::Cursor::new(data.to_vec());
    read_request(&mut cursor)
}

const VALID: &[u8] =
    b"POST /v1/cost HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\nContent-Length: 18\r\n\r\n{\"lambda_um\":0.18}";

#[test]
fn arbitrary_byte_streams_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..500 {
        let len = rng.random_range(0..4096usize);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome is fine; panicking or hanging is not.
        let _ = parse_chunked(&data, &mut rng);
    }
}

#[test]
fn one_byte_reads_reassemble_identically() {
    let mut reader = ChunkedReader::new(VALID.to_vec(), vec![1]);
    let split = read_request(&mut reader).expect("split reads must reassemble");
    let whole = parse_whole(VALID).expect("whole read must parse");
    assert_eq!(split, whole);
    assert_eq!(split.body, b"{\"lambda_um\":0.18}".to_vec());
}

#[test]
fn random_segmentation_never_changes_the_parse() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    let whole = parse_whole(VALID).expect("whole read must parse");
    for _ in 0..200 {
        let split = parse_chunked(VALID, &mut rng).expect("segmentation must not matter");
        assert_eq!(split, whole);
    }
}

/// A random well-formed request: method, path, extra headers and a
/// body of random length.
fn random_request(rng: &mut Rng64) -> Vec<u8> {
    let method = ["GET", "POST", "PUT"][rng.random_range(0..3usize)];
    let mut raw = format!(
        "{method} /v1/p{} HTTP/1.1\r\nHost: fuzz\r\n",
        rng.next_u64()
    );
    for h in 0..rng.random_range(0..4usize) {
        raw.push_str(&format!("X-H{h}: {}\r\n", rng.next_u64()));
    }
    let body: Vec<u8> = (0..rng.random_range(0..300usize))
        .map(|_| rng.next_u64() as u8)
        .collect();
    if !body.is_empty() || rng.random_range(0..2u32) == 0 {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("\r\n");
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(&body);
    raw
}

#[test]
fn pipelined_requests_split_at_random_parse_one_by_one() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0005);
    for _ in 0..200 {
        let requests: Vec<Vec<u8>> = (0..rng.random_range(1..8usize))
            .map(|_| random_request(&mut rng))
            .collect();
        let expected: Vec<Request> = requests
            .iter()
            .map(|r| parse_whole(r).expect("a generated request parses"))
            .collect();
        let chunks: Vec<usize> = (0..8).map(|_| rng.random_range(1..700usize)).collect();
        let mut stream = ChunkedReader::new(requests.concat(), chunks);
        let mut carry = Vec::new();
        for want in &expected {
            let got = read_next_request(&mut stream, &mut carry).expect("pipelined parse");
            assert_eq!(&got, want);
        }
        // Exactly N requests: the stream then ends before a next byte.
        assert_eq!(
            read_next_request(&mut stream, &mut carry),
            Err(ParseError::UnexpectedEof)
        );
        assert!(carry.is_empty());
    }
}

#[test]
fn bounds_hold_per_request_on_a_reused_connection() {
    // A valid request, then one whose head never ends: the second is
    // cut off at the head bound even though the first's bytes were
    // read through the same buffer.
    let mut data = VALID.to_vec();
    data.extend_from_slice(b"GET / HTTP/1.1\r\n");
    while data.len() <= VALID.len() + MAX_HEAD_BYTES + 4096 {
        data.extend_from_slice(b"X-Padding: yyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
    }
    let mut stream = std::io::Cursor::new(data);
    let mut carry = Vec::new();
    assert!(read_next_request(&mut stream, &mut carry).is_ok());
    assert_eq!(
        read_next_request(&mut stream, &mut carry),
        Err(ParseError::HeadTooLarge)
    );
    assert!(carry.len() <= MAX_HEAD_BYTES + 2 * 2048, "{}", carry.len());

    // And an oversized declared body after a valid request.
    let mut data = VALID.to_vec();
    data.extend_from_slice(
        format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    );
    let mut stream = std::io::Cursor::new(data);
    let mut carry = Vec::new();
    assert!(read_next_request(&mut stream, &mut carry).is_ok());
    assert_eq!(
        read_next_request(&mut stream, &mut carry),
        Err(ParseError::BodyTooLarge)
    );
}

#[test]
fn oversized_heads_are_cut_off_with_413() {
    // A head that never terminates: the parser must give up at the
    // bound, not buffer forever.
    let mut data = b"GET / HTTP/1.1\r\n".to_vec();
    while data.len() <= MAX_HEAD_BYTES + 4096 {
        data.extend_from_slice(b"X-Padding: yyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
    }
    let err = parse_whole(&data).expect_err("oversized head must fail");
    assert_eq!(err, ParseError::HeadTooLarge);
    assert_eq!(err.status(), 413);
}

#[test]
fn oversized_declared_bodies_are_rejected_before_reading() {
    let head = format!(
        "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let err = parse_whole(head.as_bytes()).expect_err("oversized body must fail");
    assert_eq!(err, ParseError::BodyTooLarge);
    assert_eq!(err.status(), 413);
}

#[test]
fn every_truncation_of_a_valid_request_fails_cleanly() {
    for cut in 0..VALID.len() {
        let err = parse_whole(&VALID[..cut]).expect_err("truncations must not parse");
        // Either the head never completed or the body came up short;
        // both surface as clean EOF-category errors, never a panic.
        assert!(
            matches!(err, ParseError::UnexpectedEof | ParseError::BadRequestLine),
            "cut at {cut}: {err:?}"
        );
    }
    assert!(parse_whole(VALID).is_ok());
}

#[test]
fn mutated_requests_never_panic_and_keep_invariants() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..500 {
        let mut data = VALID.to_vec();
        for _ in 0..rng.random_range(1..6usize) {
            match rng.random_range(0..3u32) {
                0 => {
                    let i = rng.random_range(0..data.len());
                    data[i] = rng.next_u64() as u8;
                }
                1 => {
                    let i = rng.random_range(0..data.len());
                    data.remove(i);
                }
                _ => {
                    let i = rng.random_range(0..=data.len());
                    data.insert(i, rng.next_u64() as u8);
                }
            }
        }
        if let Ok(req) = parse_chunked(&data, &mut rng) {
            // Whatever survived mutation must still satisfy the parsed
            // invariants the router relies on.
            assert!(req.method.bytes().all(|b| b.is_ascii_alphabetic()));
            assert!(req.path.starts_with('/'));
            assert!(req.version.starts_with("HTTP/"));
        }
    }
}

/// Runs `f` against a live server bound to an ephemeral port with a
/// short I/O deadline, then shuts the server down cleanly.
fn with_server(io_timeout: Duration, f: impl FnOnce(std::net::SocketAddr)) {
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
        f(addr);
        stop.stop();
        handle.join().expect("server thread");
    });
}

#[test]
fn stalled_peer_is_answered_within_the_deadline() {
    with_server(Duration::from_millis(200), |addr| {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Send a partial head and then stall.
        stream
            .write_all(b"POST /v1/cost HTTP/1.1\r\nContent-")
            .expect("partial write");
        stream.flush().expect("flush");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let elapsed = started.elapsed();
        // The worker must give up at its deadline: either a 408 response
        // or a bare close, but promptly — not a wedged connection.
        assert!(
            elapsed < Duration::from_secs(5),
            "stalled peer held a worker for {elapsed:?}"
        );
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        }
    });
}

#[test]
fn slow_client_burst_is_shed_not_queued_without_bound() {
    // 2 workers × 8 queue slots: a burst of 40 idle (slowloris-style)
    // connections overflows the bounded queue, so the overflow must be
    // answered 503 immediately instead of accumulating open fds, and
    // the server must come back once the burst drains.
    with_server(Duration::from_millis(200), |addr| {
        let idle: Vec<TcpStream> = (0..40)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut shed = 0;
        for mut stream in idle {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if String::from_utf8_lossy(&response).starts_with("HTTP/1.1 503") {
                shed += 1;
            }
        }
        assert!(shed > 0, "overflow connections must be shed with a 503");
        // The pool recovers: a real request succeeds once slots free up.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let _ = stream.write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "server did not recover after the burst"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    });
}

#[test]
fn end_to_end_cost_request_round_trips() {
    with_server(Duration::from_secs(2), |addr| {
        let body = "{\"lambda_um\":0.18,\"sd\":300,\"transistors\":1e7,\"volume\":5000,\"fab_yield\":0.4}";
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /v1/cost HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read");
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("\"req_id\":\"r1\""), "{text}");
        assert!(text.contains("\"total\":"), "{text}");
    });
}

#[test]
fn garbage_over_the_wire_gets_a_4xx_not_a_hang() {
    with_server(Duration::from_secs(2), |addr| {
        let mut rng = Rng64::seed_from_u64(0x5eed_0004);
        for _ in 0..20 {
            let len = rng.random_range(1..512usize);
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream.write_all(&garbage).expect("write");
            // Half-close so the server sees EOF instead of waiting out
            // its read deadline.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if !response.is_empty() {
                let text = String::from_utf8_lossy(&response);
                let status: u16 = text
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                assert!(
                    (400..500).contains(&status),
                    "garbage must map to a 4xx: {text}"
                );
            }
        }
    });
}
