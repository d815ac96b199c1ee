//! Line-protocol clients: the closed-loop load generator and the control
//! connection that reads `STATS`/`EPOCH` and the correctness sample.

use crate::inputs::Op;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use trustmap::TrustNetwork;

/// Latency recorded for a request that failed: it misses every limit.
pub const FAILED: u64 = u64::MAX;

const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to the server: send a line, wait for its reply line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line (ending in `\n`) and returns the reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// A request that must succeed (set-up and control traffic).
    pub fn ok(&mut self, line: &str) -> String {
        let reply = self
            .request(line)
            .unwrap_or_else(|e| panic!("`{}`: {e}", line.trim()));
        assert!(reply.starts_with("OK"), "`{}` -> {reply}", line.trim());
        reply
    }
}

/// A `key=value` field of a reply line.
pub fn field(reply: &str, key: &str) -> u64 {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("reply without `{key}=`: {reply}"))
}

/// The server's `STATS` and `EPOCH` counters at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub fsyncs: u64,
    pub units: u64,
    pub groups: u64,
    pub acked: u64,
    pub failed: u64,
    pub epoch: u64,
    pub lsn: u64,
}

pub fn counters(conn: &mut Conn) -> Counters {
    let stats = conn.ok("STATS\n");
    let epoch = conn.ok("EPOCH\n");
    Counters {
        fsyncs: field(&stats, "fsyncs"),
        units: field(&stats, "units"),
        groups: field(&stats, "groups"),
        acked: field(&stats, "acked"),
        failed: field(&stats, "failed"),
        epoch: field(&epoch, "epoch"),
        lsn: field(&epoch, "lsn"),
    }
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Read latencies in ns, [`FAILED`] for failed reads.
    pub reads_ns: Vec<u64>,
    /// Write latencies in ns, [`FAILED`] for failed writes.
    pub writes_ns: Vec<u64>,
    /// When each read's and write's reply came (or it failed), in ns of
    /// serving time: parallel to `reads_ns` and `writes_ns`.
    pub reads_at: Vec<u64>,
    pub writes_at: Vec<u64>,
    /// Stream positions of the acknowledged writes, in send order.
    pub acked: Vec<usize>,
    /// Writes that got no reply (an I/O error, a timeout or no
    /// connection): the server may or may not have applied them.
    pub unknown: u64,
    pub err_replies: u64,
    pub io_errors: u64,
    /// Serving time so far, over all the client's chunks.
    pub elapsed: Duration,
    /// The stream position the next chunk starts at.
    pub next: usize,
}

impl ClientLog {
    pub fn attempted(&self) -> u64 {
        (self.reads_ns.len() + self.writes_ns.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.err_replies + self.io_errors
    }
}

/// Runs one chunk of a closed-loop client: each request waits for its
/// reply before the next is sent, cycling through `stream` from where
/// the client's last chunk stopped until `run_for` elapses. A request
/// that gets no reply counts as failed and the client reconnects; if it
/// cannot, it stops early.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &[Op],
    net: &TrustNetwork,
    run_for: Duration,
    log: &mut ClientLog,
) {
    let start = Instant::now();
    let offset = log.elapsed;
    let mut conn = Conn::connect(addr);
    let mut i = log.next;
    let mut connected = true;
    while connected && start.elapsed() < run_for {
        let pos = i % stream.len();
        i += 1;
        let op = &stream[pos];
        let line = op.line(net);
        let t = Instant::now();
        let reply = match conn.as_mut() {
            Ok(live) => live.request(&line),
            Err(e) => {
                // Not sent: the server is unreachable.
                connected = false;
                Err(std::io::Error::new(e.kind(), "no connection"))
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        let ok = match &reply {
            Ok(r) if r.starts_with("OK ") => true,
            Ok(_) => {
                log.err_replies += 1;
                false
            }
            Err(_) => {
                log.io_errors += 1;
                if matches!(op, Op::Write(_)) {
                    log.unknown += 1;
                }
                if connected {
                    conn = Conn::connect(addr);
                }
                false
            }
        };
        let ns = if ok { ns } else { FAILED };
        let at = (offset + start.elapsed()).as_nanos() as u64;
        match op {
            Op::Read { .. } => {
                log.reads_ns.push(ns);
                log.reads_at.push(at);
            }
            Op::Write(_) => {
                log.writes_ns.push(ns);
                log.writes_at.push(at);
                if ok {
                    log.acked.push(pos);
                }
            }
        }
    }
    log.elapsed = offset + start.elapsed();
    log.next = i;
}
