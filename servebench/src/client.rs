//! A small HTTP/1.1 client ready for keep-alive.
//!
//! Each request goes out in one write. Responses are framed by
//! `Content-Length`, and the connection is reused unless the response
//! says `Connection: close`, so a server that adds keep-alive is
//! measured without changing the client. Every connect is counted.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Read and write deadline per request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on a response head.
const MAX_HEAD: usize = 16 * 1024;

/// One response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// When one exchange's stages happened.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Start and end of the connect, when this exchange opened one.
    pub connect: Option<(Instant, Instant)>,
    /// Just before the first request byte was written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last response byte arrived.
    pub done: Instant,
}

impl Timing {
    /// First byte sent to last byte received.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done - self.sent
    }
}

/// A connection to one server, reopened when the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; connects lazily.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    /// Sends `GET path` and returns the response.
    ///
    /// # Errors
    ///
    /// Propagates connect, I/O and framing failures.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: servebench\r\n\r\n");
        self.send(raw.as_bytes()).map(|(r, _)| r)
    }

    /// Sends one complete request and reads its response. A reused
    /// connection the server has already closed is retried once on a
    /// fresh one, as long as no response byte had arrived.
    ///
    /// # Errors
    ///
    /// Propagates connect, I/O and framing failures.
    pub fn send(&mut self, request: &[u8]) -> io::Result<(Response, Timing)> {
        let reused = self.stream.is_some();
        match self.exchange(request) {
            Err(f) if reused && !f.got_bytes => self.exchange(request).map_err(|f| f.error),
            other => other.map_err(|f| f.error),
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(Response, Timing), Failure> {
        let connect = if self.stream.is_none() {
            let started = Instant::now();
            let stream = TcpStream::connect(self.addr).map_err(Failure::early)?;
            let ended = Instant::now();
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(Failure::early)?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(Failure::early)?;
            stream.set_nodelay(true).map_err(Failure::early)?;
            self.connects += 1;
            self.stream = Some(stream);
            Some((started, ended))
        } else {
            None
        };
        let result = self.round_trip(request, connect);
        match &result {
            Ok((_, _, true)) | Err(_) => self.stream = None,
            Ok(_) => {}
        }
        result.map(|(response, timing, _)| (response, timing))
    }

    /// Writes `request` and reads one response; the flag reports
    /// whether the server asked to close the connection.
    fn round_trip(
        &mut self,
        request: &[u8],
        connect: Option<(Instant, Instant)>,
    ) -> Result<(Response, Timing, bool), Failure> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Failure::early(io::ErrorKind::NotConnected.into()))?;
        let sent = Instant::now();
        stream.write_all(request).map_err(Failure::early)?;
        self.buf.clear();
        let mut first_byte = None;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(Failure::late(invalid("response head too large")));
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) if first_byte.is_none() => {
                    return Err(Failure::early(io::ErrorKind::UnexpectedEof.into()))
                }
                Ok(0) => return Err(Failure::late(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => n,
                Err(e) if first_byte.is_none() => return Err(Failure::early(e)),
                Err(e) => return Err(Failure::late(e)),
            };
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| Failure::late(invalid("response head is not UTF-8")))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Failure::late(invalid("malformed status line")))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| Failure::late(invalid("bad content-length")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length =
            length.ok_or_else(|| Failure::late(invalid("response without content-length")))?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            let want = (total - self.buf.len()).min(chunk.len());
            let n = stream.read(&mut chunk[..want]).map_err(Failure::late)?;
            if n == 0 {
                return Err(Failure::late(io::ErrorKind::UnexpectedEof.into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let done = Instant::now();
        if self.buf.len() > total {
            return Err(Failure::late(invalid(
                "bytes past the declared content-length",
            )));
        }
        let response = Response {
            status,
            body: self.buf[head_end + 4..].to_vec(),
        };
        let first_byte = first_byte.unwrap_or(done);
        Ok((
            response,
            Timing {
                connect,
                sent,
                first_byte,
                done,
            },
            close,
        ))
    }
}

/// An exchange failure, and whether any response byte had arrived
/// (only then is a retry unsafe).
struct Failure {
    error: io::Error,
    got_bytes: bool,
}

impl Failure {
    fn early(error: io::Error) -> Failure {
        Failure {
            error,
            got_bytes: false,
        }
    }

    fn late(error: io::Error) -> Failure {
        Failure {
            error,
            got_bytes: true,
        }
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
