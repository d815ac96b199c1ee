//! The traced run's in-process replay: the clients' request streams
//! driven straight through the layers' public functions, in the order
//! `Frontend::handle` (reads) and the `WriteHub` writer (writes) call
//! them, with a span around each call.

use crate::inputs::{single, Op};
use crate::trace::{self, span, ThreadSpans};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trustmap::relstore::trustq;
use trustmap::{Durability, NegSet, ReadKind, Result, Session, SignedEdit, TrustNetwork};
use trustmap::{QueryTarget, Value};
use trustmap_core::epoch::{EpochReader, EpochView};

/// The store's durability sink with a span around each commit, so the
/// WAL append and fsync show as a child of `Session::commit`.
#[derive(Debug)]
pub struct TimedSink(pub Box<dyn Durability>);

impl Durability for TimedSink {
    fn record_user(&mut self, name: &str) {
        self.0.record_user(name)
    }
    fn record_value(&mut self, name: &str) {
        self.0.record_value(name)
    }
    fn record_edit(&mut self, edit: &SignedEdit) {
        self.0.record_edit(edit)
    }
    fn record_rewrite(&mut self, net: &TrustNetwork) {
        self.0.record_rewrite(net)
    }
    fn commit(&mut self) -> Result<u64> {
        span("wal.commit", || self.0.commit())
    }
    fn last_committed_lsn(&self) -> u64 {
        self.0.last_committed_lsn()
    }
}

/// What one replay pass observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whole-request times in ns (from the loop's own clock, so traced
    /// and untraced passes are measured alike).
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    /// Per client: stream positions of applied writes, in order.
    pub acked: Vec<Vec<usize>>,
    pub fast_loads: u64,
    pub slow_loads: u64,
    pub parse_errors: u64,
    pub failed: u64,
    pub dirty_nodes: Vec<usize>,
    pub spans: Vec<ThreadSpans>,
}

/// Replays at most `max_ops` requests per client stream, for at most
/// `run_for`, with one thread per stream; writes serialize on the
/// session like the hub's single writer.
pub fn replay(
    session: &Mutex<Session>,
    streams: &[Vec<Op>],
    net: &TrustNetwork,
    run_for: Duration,
    max_ops: usize,
    traced: bool,
) -> Pass {
    let slot = session.lock().expect("session lock").epoch_slot();
    let mut pass = Pass::default();
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                let mut reader = slot.reader();
                s.spawn(move || {
                    client_loop(
                        client,
                        stream,
                        net,
                        session,
                        &mut reader,
                        run_for,
                        max_ops,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    for out in outs {
        pass.reads_ns.extend(out.reads_ns);
        pass.writes_ns.extend(out.writes_ns);
        pass.acked.extend(out.acked);
        pass.fast_loads += out.fast_loads;
        pass.slow_loads += out.slow_loads;
        pass.parse_errors += out.parse_errors;
        pass.failed += out.failed;
        pass.dirty_nodes.extend(out.dirty_nodes);
        pass.spans.extend(out.spans);
    }
    pass
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: usize,
    stream: &[Op],
    net: &TrustNetwork,
    session: &Mutex<Session>,
    reader: &mut EpochReader,
    run_for: Duration,
    max_ops: usize,
    traced: bool,
) -> Pass {
    if traced {
        trace::enable(client as u32);
    }
    let mut out = Pass::default();
    let mut acked = Vec::new();
    let start = Instant::now();
    for (pos, op) in stream.iter().enumerate().take(max_ops) {
        if start.elapsed() >= run_for {
            break;
        }
        let line = op.line(net);
        trace::set_request(((client as u64) << 40) | pos as u64);
        let t = Instant::now();
        match op {
            Op::Read { .. } => {
                let ok = span("request.read", || read(reader, &line, &mut out));
                out.reads_ns.push(t.elapsed().as_nanos() as u64);
                if !ok {
                    out.failed += 1;
                }
            }
            Op::Write(edit) => {
                // The wait for the session lock stands in for the hub's
                // queue, which belongs to the serve layer: leave it out.
                let (ok, waited) = span("request.write", || write(session, edit, net, &mut out));
                out.writes_ns.push((t.elapsed() - waited).as_nanos() as u64);
                if ok {
                    acked.push(pos);
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    (out.fast_loads, out.slow_loads) = reader.load_stats();
    out.acked = vec![acked];
    if traced {
        out.spans.push(trace::take());
    }
    out
}

/// `trustq::parse_query` → `EpochReader::current` → lookup and render,
/// as `Frontend::handle` serves an unpinned `CERT`/`POSS` line.
fn read(reader: &mut EpochReader, line: &str, out: &mut Pass) -> bool {
    let Ok(query) = span("trustq.parse", || trustq::parse_query(line)) else {
        out.parse_errors += 1;
        return false;
    };
    let view: &EpochView = span("epoch.load", move || EpochReader::current(reader));
    span("epoch.lookup", || {
        let QueryTarget::Named(name) = &query.target else {
            return false;
        };
        let Some(user) = view.names().find_user(name) else {
            return false;
        };
        let name_of = |v: Value| view.names().value_name(v);
        let text = match query.kind {
            ReadKind::Cert => view.cert(user).and_then(name_of).unwrap_or("-").to_string(),
            ReadKind::Poss => {
                let names: Vec<&str> = view.poss(user).into_iter().filter_map(name_of).collect();
                if names.is_empty() {
                    "-".to_string()
                } else {
                    names.join(",")
                }
            }
        };
        let reply = format!("OK {text} epoch={} lsn={}", view.epoch(), view.lsn());
        std::hint::black_box(reply);
        true
    })
}

/// One write as the hub's writer commits a group of one: open a batch,
/// apply the name-addressed edit, `Session::commit` (WAL unit + engine
/// drain), `Session::epoch` (publish).
/// Returns whether the write applied, and how long it waited for the
/// session lock.
fn write(
    session: &Mutex<Session>,
    edit: &SignedEdit,
    net: &TrustNetwork,
    out: &mut Pass,
) -> (bool, Duration) {
    let t = Instant::now();
    let mut session = span("writer.lock", || session.lock().expect("session lock"));
    let waited = t.elapsed();
    let applied = span("session.apply", || -> Result<()> {
        session.begin_batch()?;
        let user = |s: &mut Session, u| s.user(net.user_name(u));
        let value = |s: &mut Session, v| s.value(net.domain().name(v));
        match edit {
            SignedEdit::Believe(u, v) => {
                let (u, v) = (user(&mut session, *u), value(&mut session, *v));
                session.believe(u, v)
            }
            SignedEdit::Revoke(u) => {
                let u = user(&mut session, *u);
                session.revoke(u)
            }
            SignedEdit::Reject(u, neg) => {
                let (u, v) = (user(&mut session, *u), value(&mut session, single(neg)));
                session.reject(u, NegSet::of([v]))
            }
            SignedEdit::Trust {
                child,
                parent,
                priority,
            } => {
                let (c, p) = (user(&mut session, *child), user(&mut session, *parent));
                session.trust(c, p, *priority)
            }
        }
    });
    let committed = span("session.commit", || session.commit());
    let published = span("epoch.publish", || session.epoch());
    match (applied, committed, published) {
        (Ok(()), Ok(report), Ok(_)) => {
            out.dirty_nodes.push(report.dirty_nodes);
            (true, waited)
        }
        _ => (false, waited),
    }
}
