//! Starting, probing and stopping the `serve` process.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::client::Client;

/// How long `serve` may take to answer its first `/v1/health`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long `serve` may take to exit after SIGTERM.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// A running `serve --port 0 --workers 2`.
#[derive(Debug)]
pub struct Serve {
    child: Child,
    /// Kept open so the server's shutdown line never meets a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
}

impl Serve {
    /// Spawns `bin` and waits for its first `200` on `/v1/health`;
    /// returns the server and the time from spawn to that answer.
    ///
    /// # Errors
    ///
    /// Spawn failure, a missing readiness line, or no healthy answer in
    /// time.
    pub fn start(bin: &Path) -> io::Result<(Serve, Duration)> {
        let mut command = Command::new(bin);
        command.args(["--port", "0", "--workers", "2"]);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("NANOCOST_") {
                command.env_remove(key);
            }
        }
        let started = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("serve stdout was not captured"));
        };
        let mut serve = Serve {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        serve.stdout.read_line(&mut line)?;
        serve.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no listening line from serve: {line:?}")))?;
        let mut client = Client::new(serve.addr);
        loop {
            match client.get("/v1/health") {
                Ok(r) if r.status == 200 => break,
                _ if started.elapsed() > READY_TIMEOUT => {
                    return Err(io::Error::other("serve did not become healthy"));
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        Ok((serve, started.elapsed()))
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of the whole process, in microseconds
    /// (`/proc/<pid>/stat` fields 14 and 15).
    ///
    /// # Errors
    ///
    /// An unreadable or malformed stat file.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesized command name start at field 3.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let (Some(utime), Some(stime)) = (tick(11), tick(12)) else {
            return Err(io::Error::other("malformed /proc stat"));
        };
        // SAFETY: sysconf only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
        Ok((utime + stime) as f64 * 1e6 / hz as f64)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// An unreadable status file or a missing `VmHWM` line.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends SIGTERM and waits for the exit.
    ///
    /// # Errors
    ///
    /// The process did not exit in time (it is then killed).
    pub fn stop(mut self) -> io::Result<ExitStatus> {
        let pid = i32::try_from(self.pid()).map_err(io::Error::other)?;
        // SAFETY: kill takes plain integers; `pid` is our own live,
        // not yet reaped child, so it cannot name another process.
        unsafe { kill(pid, SIGTERM) };
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                let mut rest = String::new();
                let _ = io::Read::read_to_string(&mut self.stdout, &mut rest);
                return Ok(status);
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("serve ignored SIGTERM"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Reached after `stop` (already reaped) or on an error path; in
        // the latter case make sure no server outlives the benchmark.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
