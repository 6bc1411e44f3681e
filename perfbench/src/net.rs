//! The server under test as a child process, and a line-protocol client.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One blocking connection speaking the line-delimited JSON protocol.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    /// Connects to `addr` with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { reader, writer: stream, out: Vec::new(), reply: String::new() })
    }

    /// Sends one request line and returns the reply line (without its
    /// newline). The reply borrows this connection's buffer.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// The `ecrpq-serve` binary running as a child process on an ephemeral
/// loopback port. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `bin` and waits for its `listening on <addr>` line.
    pub fn spawn(bin: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(_) => line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(ServerProcess { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address (got `{}`)", line.trim()))
            }
        }
    }

    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to shut down and waits for it to exit (killing it
    /// after 10 s).
    pub fn stop(mut self) -> Result<(), String> {
        let sent = Conn::connect(self.addr)
            .and_then(|mut c| c.roundtrip(r#"{"op":"shutdown"}"#).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while sent.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(format!("server did not shut down cleanly ({sent:?})"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
