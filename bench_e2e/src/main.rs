//! End-to-end benchmark of trustmap.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's inputs from `--seed`, imports the
//! network into a fresh store and starts a real `trustmap::serve::Server`
//! on loopback the way `trustmap serve` does. The workload's closed-loop
//! clients (two connections, one on the cold-start workload; each waits for
//! its reply before sending the next request) replay its request streams
//! on that server for `--seconds` in all, in a few chunks. Before the
//! first chunk and between chunks the run sets up again on stores of its
//! own, timing each leader restart, and after each set-up, on the quiet
//! fixture, runs its share of the empty-follower catch-ups over TCP.
//! After each chunk it also runs its share of the cold `Session::query`
//! calls. Afterwards the served answers for
//! a seeded sample of users are compared with a from-scratch resolution
//! of the final network, and the server's `STATS`/`EPOCH` counters are
//! checked against what the clients sent.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half
//! the serving time on the socket, then replays the same streams
//! in-process on a freshly imported fixture, once untraced and once with
//! a span around each layer call; it reports the per-layer metrics,
//! prints each layer's self time, and writes every span to `.bench_out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod client;
mod cold;
mod fixture;
mod inproc;
mod inputs;
mod trace;

use client::{ClientLog, Conn, FAILED};
use fixture::Live;
use inputs::{Inputs, Spec};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trustmap::store::{RecoveryStats, Store};
use trustmap::{Strategy, TrustNetwork, User};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order, with their units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Failures of the correctness check and the counter self-checks.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.problems.push(what);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: trustmap-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                inputs::SPECS.map(|s| s.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = inputs::spec(&args.workload) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let (metrics, verdict) = run(&spec, &args);
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.problems.is_empty(),
        verdict.attempted.max(1),
        verdict.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The mean of the middle half of the samples (the interquartile mean).
/// Like a median it ignores the fastest and the slowest quarter, but when
/// a run's samples fall into two modes it moves with the share of each
/// mode instead of jumping between them.
fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The highest percentile of the samples with at least ten samples
/// beyond it: the eleventh slowest (the slowest, if there are fewer).
///
/// Cold queries fall into two modes, about 60 and 90 ms on a 2-vCPU VM,
/// also in a loop that does nothing else: the shared host slows this
/// memory-bound work by half for seconds at a time. The share of slow
/// samples drifts from minute to minute, so in sets of ten runs of the
/// same code the runs' interquartile means spread by 0.16 to 0.29 of
/// their median. The slow mode held in every run and its own level
/// varied least: over the same samples this percentile spread by 0.03
/// to 0.12, the mean of the fastest twentieth by 0.06 to 0.23. A change
/// to a query's own cost moves both modes.
fn tail(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(11))
        .copied()
        .unwrap_or(0.0)
}

/// The interquartile mean of latencies in ns, in µs. A failed request
/// (at [`FAILED`]) sorts last, so failures beyond a quarter of the
/// requests dominate it.
fn iqm_us(ns: &[u64]) -> f64 {
    trimmed_mean(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>()) / 1e3
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else {
        (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
    }
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `count` distinct users drawn by the run's seed.
fn sample_users(net: &TrustNetwork, seed: u64, count: usize) -> Vec<User> {
    let mut rng = inputs::SplitMix(seed ^ 0x5a3e);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < count.min(net.user_count()) {
        let u = User(rng.below(net.user_count()) as u32);
        if seen.insert(u) {
            out.push(u);
        }
    }
    out
}

/// Set-up timings of one repetition.
struct Setup {
    import_s: f64,
    open_s: f64,
    frontend_s: f64,
    /// Import, open, frontend and server start.
    total_s: f64,
    /// Open, frontend, server start and the first read's reply.
    restart_ms: f64,
    recovery: RecoveryStats,
}

/// What the phases outside serving measured.
struct Phases {
    setups: Vec<Setup>,
    catchups: Vec<cold::CatchUp>,
    cold: cold::ColdQueries,
}

/// The part of `total` that step `step` of `steps` runs.
fn share(total: usize, step: usize, steps: usize) -> usize {
    total * (step + 1) / steps - total * step / steps
}

/// The set-up repetitions of one run, with the phases that ride on them.
///
/// Each repetition imports the fixture and starts a server on it; its
/// second half is a leader restart: `Store::open`, `Frontend::new`,
/// `Server::start` and the first `CERT` reply over TCP. Each set-up is
/// followed by its share of the empty-follower catch-ups. The first
/// repetition's server serves; the others run between the serving
/// chunks, each with a server of its own. The cold queries run in equal
/// shares after every serving chunk. So each phase's samples spread over
/// the whole run: on a shared machine memory-bound work slows down for
/// seconds at a time (the same cold query takes 60 ms or 95 ms, switching
/// between the two after a few seconds even in a loop that does nothing
/// else), and samples taken back to back would often all fall into one
/// stretch.
///
/// Restart, follower and cold-query answers must equal the leader's on
/// the quiet fixture.
struct Prep<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    work: &'a Path,
    sample: &'a [User],
    /// Cold queries probe a fixed user set, like the network it belongs
    /// to: a cold query's cost depends on the queried user's region.
    cold_users: Vec<User>,
    /// The leader's answers on the fixture: the sample users', then the
    /// cold-query users'.
    leader: Vec<check::Answer>,
    phases: Phases,
}

impl<'a> Prep<'a> {
    fn new(spec: &'a Spec, inputs: &'a Inputs, work: &'a Path, sample: &'a [User]) -> Self {
        Prep {
            spec,
            inputs,
            work,
            sample,
            cold_users: sample_users(&inputs.fixture, inputs::DATASET_SEED, spec.cold_queries),
            leader: Vec::new(),
            phases: Phases {
                setups: Vec::new(),
                catchups: Vec::new(),
                cold: cold::ColdQueries::default(),
            },
        }
    }

    /// Runs the next repetition, with its store in `dir` under the work
    /// directory, and returns its server, still up.
    fn rep(&mut self, dir: &str, verdict: &mut Verdict) -> Live {
        let (spec, net, sample) = (self.spec, &self.inputs.fixture, self.sample);
        let rep = self.phases.setups.len();
        let phases = &mut self.phases;
        // Span request ids: set-ups count from 0, catch-ups from 200, cold
        // query batches from 300 (serving requests carry their client and
        // stream position).
        trace::set_request(rep as u64);
        let leader_dir = self.work.join(dir);
        let import_s = fixture::import(&leader_dir, self.inputs);
        let t = Instant::now();
        let live = Live::start(&leader_dir);
        let probe = rep % sample.len();
        let mut conn = Conn::connect(live.server.addr()).expect("client connects after start");
        let line = format!("CERT {}\n", net.user_name(sample[probe]));
        let reply = trace::span("restart.first_read", || conn.ok(&line));
        drop(conn);
        phases.setups.push(Setup {
            import_s,
            open_s: live.open_s,
            frontend_s: live.frontend_s,
            total_s: import_s + live.setup_s(),
            restart_ms: t.elapsed().as_secs_f64() * 1e3,
            recovery: live.recovery.clone(),
        });

        let view = live.server.frontend().epochs().load();
        let lsn = view.lsn();
        if self.leader.is_empty() {
            self.leader = sample
                .iter()
                .chain(&self.cold_users)
                .map(|&u| check::from_view(net, &view, u))
                .collect();
        }
        drop(view);
        let leader = &self.leader;
        verdict.attempted += 1;
        verdict.require(
            check::reply_text(&reply) == Some(&leader[probe].cert),
            || {
                format!(
                    "restarted leader answered `{reply}`, leader has {:?}",
                    leader[probe]
                )
            },
        );

        let replayed_units = live.recovery.replayed_units as u64;
        let leader_addr = live.server.addr().to_string();
        for _ in 0..share(spec.catchup_reps, rep, spec.setup_reps) {
            trace::set_request(200 + phases.catchups.len() as u64);
            let c = cold::catch_up(&self.work.join("follower"), &leader_addr, net, sample);
            verdict.require(c.watermark == lsn, || {
                format!("follower caught up at lsn {}, leader at {lsn}", c.watermark)
            });
            let bad = check::mismatches("follower", sample, &c.answers, &leader[..sample.len()]);
            verdict.require(bad == 0, || {
                format!("{bad} follower answers differ from the leader's")
            });
            // An empty follower bootstraps from the leader's snapshot,
            // then replays exactly the units the leader's own recovery
            // replays.
            verdict.require(
                c.counters.bootstraps == 1 && c.counters.units_applied == replayed_units,
                || {
                    format!(
                        "follower applied {} units after {} bootstraps, leader replays \
                         {replayed_units}",
                        c.counters.units_applied, c.counters.bootstraps
                    )
                },
            );
            phases.catchups.push(c);
        }
        live
    }

    /// Runs the repetitions that follow serving chunk `chunk`, each
    /// stopping its server before the next starts, then the chunk's share
    /// of the cold queries.
    fn between_chunks(&mut self, chunk: usize, verdict: &mut Verdict) {
        let chunks = self.spec.chunks;
        for _ in 0..share(self.spec.setup_reps - 1, chunk, chunks) {
            drop(self.rep("leader", verdict).stop());
        }
        trace::set_request(300 + chunk as u64);
        let done = self.phases.cold.ms.len();
        let count = share(self.spec.cold_queries, chunk, chunks);
        let users = &self.cold_users[done..done + count];
        self.phases.cold.run(&self.inputs.fixture, users);
    }

    /// Checks the cold queries' answers once every repetition has run.
    fn finish(self, verdict: &mut Verdict) -> Phases {
        let sample_len = self.sample.len();
        let bad = check::mismatches(
            "cold query",
            &self.cold_users,
            &self.phases.cold.answers,
            &self.leader[sample_len..],
        );
        verdict.require(bad == 0, || {
            format!("{bad} cold-query answers differ from the leader's")
        });
        self.phases
    }
}

/// Serving throughput and latencies are medians over this many equal
/// slices of the serving time, so that they move only when most of it was
/// slow.
const SLICES: usize = 10;

/// What the closed-loop clients did, with the server's counters around it.
struct Served {
    logs: Vec<ClientLog>,
    before: client::Counters,
    after: client::Counters,
    /// The control connection, still open.
    control: Conn,
}

impl Served {
    fn reads_ns(&self) -> Vec<u64> {
        self.logs.iter().flat_map(|l| l.reads_ns.clone()).collect()
    }

    fn writes_ns(&self) -> Vec<u64> {
        self.logs.iter().flat_map(|l| l.writes_ns.clone()).collect()
    }

    /// One kind's latencies, split by when each request completed into
    /// [`SLICES`] equal slices of the serving window.
    fn slices(&self, writes: bool) -> Vec<Vec<u64>> {
        let window = self.elapsed_s() * 1e9;
        let mut out = vec![Vec::new(); SLICES];
        for l in &self.logs {
            let (ns, at) = if writes {
                (&l.writes_ns, &l.writes_at)
            } else {
                (&l.reads_ns, &l.reads_at)
            };
            for (&ns, &at) in ns.iter().zip(at) {
                let slice = (at as f64 / window * SLICES as f64) as usize;
                out[slice.min(SLICES - 1)].push(ns);
            }
        }
        out
    }

    /// The median over slices of `f` of each slice's latencies of one
    /// kind. A slice in which no request of the kind completed counts as
    /// one request that took the slice's length: a request in flight
    /// waited at least that long.
    fn slice_median(&self, writes: bool, f: impl Fn(&[u64]) -> f64) -> f64 {
        let slice_ns = (self.elapsed_s() * 1e9 / SLICES as f64) as u64;
        let per: Vec<f64> = self
            .slices(writes)
            .iter()
            .map(|s| if s.is_empty() { f(&[slice_ns]) } else { f(s) })
            .collect();
        median(&per)
    }

    /// The median over slices of each slice's completed requests of one
    /// kind per second.
    fn slice_ops_per_s(&self, writes: bool) -> f64 {
        let slice_s = self.elapsed_s() / SLICES as f64;
        let per: Vec<f64> = self
            .slices(writes)
            .iter()
            .map(|s| s.iter().filter(|&&n| n != FAILED).count() as f64 / slice_s)
            .collect();
        median(&per)
    }

    fn elapsed_s(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| l.elapsed.as_secs_f64())
            .fold(0.0, f64::max)
    }

    fn acked(&self) -> Vec<&[usize]> {
        self.logs.iter().map(|l| l.acked.as_slice()).collect()
    }

    fn unknown_writes(&self) -> u64 {
        self.logs.iter().map(|l| l.unknown).sum()
    }

    /// Whether the server applied writes whose replies the clients never
    /// got: then which of them it applied is unknown, and so is the final
    /// network.
    fn final_state_unknown(&self) -> bool {
        let oks: u64 = self.logs.iter().map(|l| l.acked.len() as u64).sum();
        self.after.acked - self.before.acked > oks
    }
}

/// Runs one closed-loop client per stream for `run_for` in all, in
/// `chunks` chunks with `between(chunk)` after each, then checks the
/// server's counters against what the clients sent.
fn serve(
    addr: SocketAddr,
    inputs: &Inputs,
    run_for: Duration,
    chunks: usize,
    verdict: &mut Verdict,
    mut between: impl FnMut(usize, &mut Verdict),
) -> Served {
    let before = client::counters(&mut Conn::connect(addr).expect("control connection"));
    let mut logs: Vec<ClientLog> = inputs
        .streams
        .iter()
        .map(|_| ClientLog::default())
        .collect();
    for chunk in 0..chunks {
        let chunk_for = run_for / chunks as u32;
        std::thread::scope(|s| {
            for (stream, log) in inputs.streams.iter().zip(&mut logs) {
                s.spawn(move || client::closed_loop(addr, stream, &inputs.fixture, chunk_for, log));
            }
        });
        between(chunk, verdict);
    }
    // Quiesced: every client got its last reply before returning.
    let mut control = Conn::connect(addr).expect("control connection");
    let after = client::counters(&mut control);
    let served = Served {
        logs,
        before,
        after,
        control,
    };
    let sent_writes = served.writes_ns().len() as u64;
    let acked_writes: u64 = served.logs.iter().map(|l| l.acked.len() as u64).sum();
    let unknown = served.unknown_writes();
    verdict.attempted += served.logs.iter().map(ClientLog::attempted).sum::<u64>();
    verdict.failed += served.logs.iter().map(ClientLog::failed).sum::<u64>();
    let d = |f: fn(&client::Counters) -> u64| f(&after) - f(&before);
    let (fsyncs, units, groups) = (d(|c| c.fsyncs), d(|c| c.units), d(|c| c.groups));
    let (acked, failed, epochs) = (d(|c| c.acked), d(|c| c.failed), d(|c| c.epoch));
    println!(
        "# serve: {} reads, {sent_writes} writes in {:.2}s; STATS deltas fsyncs={fsyncs} \
         units={units} groups={groups} acked={acked} failed={failed} epochs={epochs}",
        served.reads_ns().len(),
        served.elapsed_s()
    );
    verdict.require(fsyncs == units, || {
        format!("{fsyncs} fsyncs for {units} committed units")
    });
    // Writes that got no reply may or may not have reached the server.
    verdict.require(
        acked + failed <= sent_writes && acked + failed + unknown >= sent_writes,
        || {
            format!(
                "server acked {acked} + failed {failed} of {sent_writes} writes sent \
                 ({unknown} without a reply)"
            )
        },
    );
    verdict.require(
        acked >= acked_writes && acked <= acked_writes + unknown,
        || {
            format!(
                "server acked {acked} writes, clients saw {acked_writes} OKs \
                 ({unknown} without a reply)"
            )
        },
    );
    verdict.require(epochs <= groups, || {
        format!("{epochs} epochs advanced over {groups} groups")
    });
    served
}

/// The users whose state the acknowledged writes changed (at most 1000).
fn written_users(streams: &[Vec<inputs::Op>], acked: &[&[usize]]) -> Vec<User> {
    let mut written = BTreeSet::new();
    for (stream, acked) in streams.iter().zip(acked) {
        for &pos in acked.iter() {
            if let inputs::Op::Write(edit) = &stream[pos] {
                written.insert(inputs::key(edit));
            }
        }
    }
    written.into_iter().take(1000).collect()
}

/// Compares served `CERT`/`POSS` answers, pinned at `lsn`, with a
/// from-scratch resolution of `final_net`.
fn check_served(
    control: &mut Conn,
    final_net: &TrustNetwork,
    users: &[User],
    lsn: u64,
    verdict: &mut Verdict,
) {
    let mut got = Vec::new();
    for &u in users {
        let mut text = |verb: &str| {
            verdict.attempted += 1;
            let line = format!("{verb} {} @{lsn}\n", final_net.user_name(u));
            match control.request(&line) {
                Ok(reply) if reply.starts_with("OK ") => {
                    check::reply_text(&reply).unwrap_or("").to_string()
                }
                other => {
                    verdict.failed += 1;
                    format!("{other:?}")
                }
            }
        };
        let cert = text("CERT");
        let poss = text("POSS");
        got.push(check::Answer { cert, poss });
    }
    let want = check::reference(final_net, users);
    let bad = check::mismatches("final, served", users, &got, &want);
    verdict.require(bad == 0, || {
        format!("{bad} served answers differ from a from-scratch resolution")
    });
}

/// One in-process replay of the streams (the traced run's second half).
struct InProcess {
    pass: inproc::Pass,
    wal_bytes: u64,
    fsyncs: u64,
    publishes: u64,
    publish_users: usize,
}

/// Replays the streams in-process on a freshly imported fixture at
/// `dir`, then checks the session's final epoch against a from-scratch
/// resolution of the fixture plus the writes the replay applied.
fn in_process(
    inputs: &Inputs,
    dir: &Path,
    run_for: Duration,
    sample: &[User],
    traced: bool,
    verdict: &mut Verdict,
) -> InProcess {
    /// Requests per client: bounds the spans kept in memory.
    const MAX_OPS: usize = 50_000;
    fixture::import(dir, inputs);
    let recovered = Store::open(dir).expect("fixture store recovers");
    let (store, mut session) = (recovered.store, recovered.session);
    let sink = session.take_durability().expect("store sink attached");
    session.set_durability(Box::new(inproc::TimedSink(sink)));
    // The first epoch, as `Frontend::new` publishes it.
    session.epoch().expect("first epoch");
    let slot = session.epoch_slot();
    let session = Mutex::new(session);
    let net = &inputs.fixture;
    let (wal0, fsync0, epoch0) = (store.wal_len(), store.counters().fsync_count, slot.epoch());
    let pass = inproc::replay(&session, &inputs.streams, net, run_for, MAX_OPS, traced);
    let (wal1, fsync1, epoch1) = (store.wal_len(), store.counters().fsync_count, slot.epoch());
    verdict.attempted += (pass.reads_ns.len() + pass.writes_ns.len()) as u64;
    verdict.failed += pass.failed;

    let acked: Vec<&[usize]> = pass.acked.iter().map(Vec::as_slice).collect();
    let mut final_net = net.clone();
    check::apply_logs(&mut final_net, &inputs.streams, &acked);
    let mut users = sample.to_vec();
    users.extend(written_users(&inputs.streams, &acked));
    let mut session = session.into_inner().expect("session lock");
    let view = session.epoch().expect("final epoch");
    let got: Vec<check::Answer> = users
        .iter()
        .map(|&u| check::from_view(&final_net, &view, u))
        .collect();
    let want = check::reference(&final_net, &users);
    let bad = check::mismatches("final, in-process", &users, &got, &want);
    verdict.require(bad == 0, || {
        format!("{bad} in-process answers differ from a from-scratch resolution")
    });
    drop((session, store));
    let _ = std::fs::remove_dir_all(dir);
    InProcess {
        pass,
        wal_bytes: wal1 - wal0,
        fsyncs: fsync1 - fsync0,
        publishes: epoch1 - epoch0,
        publish_users: view.user_count(),
    }
}

fn run(spec: &Spec, args: &Args) -> (Metrics, Verdict) {
    let mut verdict = Verdict::default();
    if args.trace {
        // Client threads record as threads 0.., this one after them.
        trace::enable(spec.clients as u32);
    }
    let work = fixture::work_dir(spec.name, args.seed);
    std::fs::create_dir_all(&work).expect("work directory");

    // Progress lines carry the seconds since the run began.
    let clock = Instant::now();
    let stamp = |what: &str| {
        let t = clock.elapsed().as_secs_f64();
        println!("# {t:7.2}s {what} (peak RSS {:.1} MiB)", peak_rss_mb());
    };
    let t = Instant::now();
    let inputs = inputs::generate(spec, args.seed);
    let net = &inputs.fixture;
    println!(
        "# {} seed={} users={} mappings={} tail={} generated in {:.2}s",
        spec.name,
        args.seed,
        net.user_count(),
        net.mapping_count(),
        inputs.tail.len(),
        t.elapsed().as_secs_f64()
    );
    let sample = sample_users(net, args.seed, 1000);
    let mut prep = Prep::new(spec, &inputs, &work, &sample);
    let live = prep.rep("serving", &mut verdict);
    stamp("set up");
    let addr = live.server.addr();

    let serve_for = if args.trace {
        Duration::from_secs_f64(args.seconds as f64 / 2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let mut served = serve(
        addr,
        &inputs,
        serve_for,
        spec.chunks,
        &mut verdict,
        |chunk, verdict| prep.between_chunks(chunk, verdict),
    );
    stamp("served; set up again; followers caught up; cold queries run");
    if served.final_state_unknown() {
        println!("# the server applied writes whose replies were lost: answers not compared");
    } else {
        let mut final_net = net.clone();
        check::apply_logs(&mut final_net, &inputs.streams, &served.acked());
        let mut users = sample.clone();
        users.extend(written_users(&inputs.streams, &served.acked()));
        let pin = served.after.lsn;
        check_served(&mut served.control, &final_net, &users, pin, &mut verdict);
    }
    drop(live.stop());
    stamp("checked");
    let phases = prep.finish(&mut verdict);

    let metrics = if args.trace {
        // An untraced and a traced replay, each on a fresh fixture.
        let run_for = Duration::from_secs_f64(args.seconds as f64 / 4.0);
        let dir = work.join("replay");
        let plain = in_process(&inputs, &dir, run_for, &sample, false, &mut verdict);
        let traced = in_process(&inputs, &dir, run_for, &sample, true, &mut verdict);
        layer_metrics(spec, args, &phases, &served, &plain.pass, traced)
    } else {
        end_to_end_metrics(&phases, &served)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    stamp("finished");

    println!(
        "# samples: reads={} writes={} setups={} catchups={} cold_queries={}; failed {} of {} \
         requests attempted",
        served.reads_ns().len(),
        served.writes_ns().len(),
        phases.setups.len(),
        phases.catchups.len(),
        phases.cold.ms.len(),
        verdict.failed,
        verdict.attempted
    );
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<34} {value:>16.3} {unit}");
    }
    (metrics, verdict)
}

fn end_to_end_metrics(phases: &Phases, served: &Served) -> Metrics {
    let ok = |ns: &[u64]| ns.iter().filter(|&&n| n != FAILED).count() as f64;
    let us = |ns: &[u64], q: f64| percentile(ns, q) / 1e3;
    let mut m = Metrics::default();
    for (kind, writes) in [("read", false), ("write", true)] {
        m.put(
            format!("{kind}_ops_per_s"),
            served.slice_ops_per_s(writes),
            "1/s",
        );
        m.put(
            format!("{kind}_iqm_us"),
            served.slice_median(writes, iqm_us),
            "us",
        );
        let p95 = served.slice_median(writes, |s| percentile(s, 0.95) / 1e3);
        m.put(format!("{kind}_p95_us"), p95, "us");
    }
    let (reads, writes) = (served.reads_ns(), served.writes_ns());
    let elapsed = served.elapsed_s();
    println!(
        "# over the whole serving window: reads {:.1}/s iqm {:.3}us p50 {:.3}us p95 {:.3}us \
         p99 {:.3}us; writes {:.1}/s iqm {:.3}us p50 {:.3}us p95 {:.3}us p99 {:.3}us",
        ok(&reads) / elapsed,
        iqm_us(&reads),
        us(&reads, 0.5),
        us(&reads, 0.95),
        us(&reads, 0.99),
        ok(&writes) / elapsed,
        iqm_us(&writes),
        us(&writes, 0.5),
        us(&writes, 0.95),
        us(&writes, 0.99)
    );
    let restarts: Vec<f64> = phases.setups.iter().map(|s| s.restart_ms).collect();
    m.put("restart_ms", trimmed_mean(&restarts), "ms");
    let catchups: Vec<f64> = phases.catchups.iter().map(|c| c.ms).collect();
    m.put("catchup_ms", trimmed_mean(&catchups), "ms");
    m.put("cold_query_ms", tail(&phases.cold.ms), "ms");
    let setups: Vec<f64> = phases.setups.iter().map(|s| s.total_s).collect();
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    println!("# setup_s samples: {setups:.3?}");
    println!("# restart_ms samples: {restarts:.1?}");
    println!("# catchup_ms samples: {catchups:.1?}");
    println!("# cold_query_ms samples: {:.1?}", phases.cold.ms);
    m
}

fn layer_metrics(
    spec: &Spec,
    args: &Args,
    phases: &Phases,
    served: &Served,
    plain: &inproc::Pass,
    traced: InProcess,
) -> Metrics {
    let InProcess {
        pass: mut traced,
        wal_bytes,
        fsyncs,
        publishes,
        publish_users,
    } = traced;
    let mut spans = std::mem::take(&mut traced.spans);
    spans.push(trace::take());
    let layers = trace::layers(&spans);
    println!("# layer self time (traced in-process replay and set-up/cold phases)");
    println!(
        "# {:<22} {:>9} {:>12} {:>12}",
        "span", "count", "self_ms", "self_p50_us"
    );
    for (name, l) in &layers {
        println!(
            "# {:<22} {:>9} {:>12.3} {:>12.3}",
            name,
            l.self_ns.len(),
            l.self_ns.iter().sum::<u64>() as f64 / 1e6,
            percentile(&l.self_ns, 0.5) / 1e3
        );
    }
    let out = PathBuf::from(".bench_out").join(format!("spans-{}-{}.csv", spec.name, args.seed));
    match trace::dump(&out, &spans) {
        Ok(()) => println!("# spans written to {}", out.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", out.display()),
    }
    let span_us = |name: &str, q: f64| {
        layers
            .get(name)
            .map_or(0.0, |l| percentile(&l.total_ns, q) / 1e3)
    };
    let self_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| percentile(&l.self_ns, 0.5) / 1e3)
    };

    // The socket figure splits into the in-process path and the serve
    // layer's share (socket, protocol, hub queue and wake-up).
    let socket_read = served.slice_median(false, iqm_us);
    let socket_write = served.slice_median(true, iqm_us);
    let read = iqm_us(&traced.reads_ns);
    let write = iqm_us(&traced.writes_ns);
    println!(
        "# read iqm: socket {socket_read:.2}us = in-process {read:.2}us + serve {:.2}us; \
         write iqm: socket {socket_write:.2}us = in-process {write:.2}us + serve {:.2}us",
        socket_read - read,
        socket_write - write
    );
    let all = |p: &inproc::Pass| [p.reads_ns.as_slice(), &p.writes_ns].concat();
    let tracing_overhead = iqm_us(&all(&traced)) - iqm_us(&all(plain));
    println!(
        "# tracing overhead (traced - untraced in-process request iqm): {tracing_overhead:.3}us"
    );

    let logs = &served.logs;
    let attempted: u64 = logs.iter().map(ClientLog::attempted).sum();
    let failed: u64 = logs.iter().map(ClientLog::failed).sum();
    let (before, after) = (&served.before, &served.after);
    let (acked, groups) = (after.acked - before.acked, after.groups - before.groups);
    let writes = traced.writes_ns.len().max(1) as f64;
    let loads = (traced.fast_loads + traced.slow_loads).max(1) as f64;
    let dirty: Vec<f64> = traced.dirty_nodes.iter().map(|&d| d as f64).collect();

    let mut m = Metrics::default();
    m.put("serve.read_overhead_us", socket_read - read, "us");
    m.put("serve.write_overhead_us", socket_write - write, "us");
    let err_replies: u64 = logs.iter().map(|l| l.err_replies).sum();
    m.put("serve.err_replies", err_replies as f64, "count");
    m.put(
        "serve.op_fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("trustq.parse_us", span_us("trustq.parse", 0.5), "us");
    m.put("trustq.parse_errors", traced.parse_errors as f64, "count");
    m.put("epoch.load_us", span_us("epoch.load", 0.5), "us");
    m.put("epoch.load_p99_us", span_us("epoch.load", 0.99), "us");
    m.put(
        "epoch.fast_load_ratio",
        traced.fast_loads as f64 / loads,
        "ratio",
    );
    m.put("epoch.lookup_us", span_us("epoch.lookup", 0.5), "us");
    m.put("epoch.publish_us", span_us("epoch.publish", 0.5), "us");
    m.put("epoch.publishes", publishes as f64, "count");
    m.put("epoch.publish_users", publish_users as f64, "count");
    m.put("session.apply_us", span_us("session.apply", 0.5), "us");
    // `Session::commit` minus its WAL child: the engine's drain.
    m.put("engine.drain_us", self_us("session.commit"), "us");
    m.put("engine.dirty_nodes", mean(&dirty), "count");
    m.put("wal.commit_us", span_us("wal.commit", 0.5), "us");
    m.put("wal.bytes_per_write", wal_bytes as f64 / writes, "B");
    m.put("wal.fsyncs_per_write", fsyncs as f64 / writes, "count");
    m.put(
        "group.size_mean",
        acked as f64 / groups.max(1) as f64,
        "count",
    );
    let group_fsyncs = after.fsyncs - before.fsyncs;
    m.put(
        "group.fsyncs_per_ack",
        group_fsyncs as f64 / acked.max(1) as f64,
        "count",
    );
    m.put("trace.overhead_us", tracing_overhead, "us");

    let setup =
        |f: fn(&Setup) -> f64| trimmed_mean(&phases.setups.iter().map(f).collect::<Vec<_>>());
    let follower = |f: fn(&cold::CatchUp) -> f64| {
        trimmed_mean(&phases.catchups.iter().map(f).collect::<Vec<_>>())
    };
    m.put(
        "open.snapshot_load_ms",
        setup(|s| s.recovery.snapshot_load_us / 1e3),
        "ms",
    );
    m.put(
        "open.replay_ms",
        setup(|s| s.recovery.replay_us / 1e3),
        "ms",
    );
    m.put(
        "open.replayed_units",
        setup(|s| s.recovery.replayed_units as f64),
        "count",
    );
    m.put("open.first_epoch_ms", setup(|s| s.frontend_s * 1e3), "ms");
    m.put("follower.bootstrap_ms", follower(|c| c.bootstrap_ms), "ms");
    m.put("follower.apply_ms", follower(|c| c.apply_ms), "ms");
    m.put(
        "follower.bytes_shipped",
        follower(|c| c.counters.bytes_shipped as f64),
        "B",
    );
    m.put(
        "follower.units_applied",
        follower(|c| c.counters.units_applied as f64),
        "count",
    );
    m.put("follower.steps", follower(|c| c.steps as f64), "count");
    for s in Strategy::ALL {
        let count = phases.cold.strategies.iter().filter(|&&x| x == s).count();
        m.put(format!("plan.strategy.{}", s.name()), count as f64, "count");
    }
    let nodes: Vec<f64> = phases.cold.plan_nodes.iter().map(|&n| n as f64).collect();
    m.put("plan.nodes", trimmed_mean(&nodes), "count");
    m.put("query.exec_ms", trimmed_mean(&phases.cold.ms), "ms");
    m.put("setup.import_s", setup(|s| s.import_s), "s");
    m.put("setup.open_s", setup(|s| s.open_s), "s");
    m.put("setup.frontend_s", setup(|s| s.frontend_s), "s");
    m
}
