//! The phases a user waits on outside steady serving: a new follower
//! catching up, and cold point queries on a fresh session.

use crate::check::{answer, from_view, Answer};
use crate::trace::span;
use std::path::Path;
use std::time::Instant;
use trustmap::relstore::trustq;
use trustmap::serve::TcpTransport;
use trustmap::store::{Follower, FollowerCounters, Step};
use trustmap::{Session, Strategy, TrustNetwork, User};

/// One follower catch-up from an empty directory.
pub struct CatchUp {
    pub ms: f64,
    pub bootstrap_ms: f64,
    pub apply_ms: f64,
    pub steps: u64,
    pub counters: FollowerCounters,
    pub watermark: u64,
    /// The follower's answers for the sample users at its watermark.
    pub answers: Vec<Answer>,
}

/// Opens an empty follower at `dir` and steps it over `TcpTransport`
/// until the leader reports it caught up; every applied chunk publishes
/// an epoch, so the follower serves its first epoch at the leader's LSN
/// by then.
pub fn catch_up(dir: &Path, leader: &str, net: &TrustNetwork, sample: &[User]) -> CatchUp {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut follower = span("follower.open", || {
        Follower::open(dir).expect("empty follower opens")
    });
    let mut transport = TcpTransport::new(leader);
    let (mut bootstrap_ms, mut apply_ms, mut steps) = (0.0, 0.0, 0u64);
    loop {
        let ts = Instant::now();
        let step = span("follower.step", || follower.step(&mut transport))
            .expect("follower steps over loopback");
        let step_ms = ts.elapsed().as_secs_f64() * 1e3;
        steps += 1;
        match step {
            Step::Applied { .. } => apply_ms += step_ms,
            Step::Bootstrapped { .. } => bootstrap_ms += step_ms,
            Step::CaughtUp { .. } => break,
            Step::Rejected { reason } => panic!("follower rejected a chunk: {reason}"),
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let view = follower.epoch_slot().load();
    let answers = sample.iter().map(|&u| from_view(net, &view, u)).collect();
    let out = CatchUp {
        ms,
        bootstrap_ms,
        apply_ms,
        steps,
        counters: follower.counters(),
        watermark: follower.watermark(),
        answers,
    };
    drop(follower);
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Cold `Session::query(CERT #u)` calls, one sample per query.
#[derive(Default)]
pub struct ColdQueries {
    pub ms: Vec<f64>,
    pub strategies: Vec<Strategy>,
    pub plan_nodes: Vec<u64>,
    pub answers: Vec<Answer>,
}

impl ColdQueries {
    /// Queries each of `users` in turn on one session built with
    /// `Session::new` from `net`.
    pub fn run(&mut self, net: &TrustNetwork, users: &[User]) {
        let mut session = Session::new(net.clone());
        for &u in users {
            let query = trustq::parse_query(&format!("CERT #{}", u.index())).expect("query parses");
            let t = Instant::now();
            let result = span("session.query", || session.query(&query)).expect("cold query runs");
            self.ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.strategies.push(result.report.strategy);
            self.plan_nodes.push(result.report.plan_nodes);
            let row = &result.rows[0];
            // A CERT row carries the (sorted) possible set too; compare both.
            self.answers.push(answer(net, row.cert, &row.poss));
        }
    }
}
