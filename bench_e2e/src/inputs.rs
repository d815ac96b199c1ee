//! The workloads and the inputs generated from a seed.
//!
//! The program under test only ever receives what is generated here: a
//! trust network to import, an optional tail of edits committed after
//! the import's snapshot, and one request stream per client connection.
//!
//! Each workload's network, key popularity and write history are its
//! dataset: they come from [`DATASET_SEED`], as does the fixture tail, so
//! every run serves the same community with the same hot keys and sends
//! the same writes in the same order, as well as the same sequence of
//! request kinds. The run's seed draws each read's key from that
//! popularity, and the users the correctness check samples. A write's
//! cost depends on its key (a hot user with a large forward closure makes
//! every write to it expensive) and on the state earlier writes left (new
//! mappings between hot users grow the regions later writes dirty), and a
//! closed loop's throughput on the share of slow requests it sends: with
//! writes drawn per seed, one seed's write p95 came out four times
//! another's, a property of the seed rather than of the program.

use trustmap::workloads::{edit_stream, power_law, serve_stream, EditMix, ServeMix, ServeOp};
use trustmap::{Edit, NegSet, SignedEdit, TrustNetwork, User, Value};

/// One workload: the shape of its inputs and how often each
/// non-serving phase repeats per run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub users: usize,
    pub read_fraction: f64,
    /// Closed-loop client connections (and, in the traced run, client
    /// threads): at most two, one per core of the benchmark machine.
    pub clients: usize,
    /// Edits committed after the import's snapshot, in 16-edit units.
    pub tail: usize,
    /// Requests generated per run (the clients cycle through them).
    pub stream_len: usize,
    /// Serving runs in this many chunks, with set-up repetitions and
    /// cold queries between them, so each phase spreads over the whole
    /// run. The machine the benchmark runs on is shared: the same fixed
    /// work runs up to 1.6 times slower in some seconds than in others,
    /// and in two of ten runs with one stretch of serving a spell of
    /// contention that left the set-ups alone halved read throughput and
    /// raised read p95 up to ten times. Spread out, a spell has to cover
    /// most of the run to move the serving figures.
    pub chunks: usize,
    pub setup_reps: usize,
    pub catchup_reps: usize,
    pub cold_queries: usize,
}

/// Seeds each workload's network and its key popularity.
pub const DATASET_SEED: u64 = 2010;

/// Edits per fixture-tail unit.
pub const TAIL_UNIT: usize = 16;

/// The Zipf exponent of key popularity, in every workload.
pub const ZIPF_S: f64 = 1.1;

pub const SPECS: [Spec; 3] = [
    // The read path does almost all the work; the 1% of writes keeps
    // epochs turning over, so reads also cross epoch boundaries.
    Spec {
        name: "read-mostly-100k",
        users: 100_000,
        read_fraction: 0.99,
        clients: 2,
        tail: 0,
        stream_len: 1_000_000,
        chunks: 8,
        setup_reps: 8,
        catchup_reps: 10,
        cold_queries: 64,
    },
    // Epoch publish, engine apply, WAL/fsync and group commit do most of
    // the work. A read that follows its own connection's write waits for
    // the new epoch and often frees the old one, so the share of such
    // reads is about the write share; at 75% writes the read median sits
    // inside that slow mode instead of on the boundary between the two.
    Spec {
        name: "write-heavy-100k",
        users: 100_000,
        read_fraction: 0.25,
        clients: 2,
        tail: 0,
        stream_len: 200_000,
        chunks: 8,
        setup_reps: 8,
        catchup_reps: 10,
        cold_queries: 64,
    },
    // Recovery replay, log shipping and the planner's cold queries: what
    // the serving workloads touch only during set-up, here with a
    // 125-unit tail to replay and ship. Its serving phase uses one
    // client. The signed network the first version used (skeptic
    // pipeline, ~25 ms writes that each publish a skeptic epoch) made
    // the serving figures follow the shared machine's memory speed: in
    // one set of ten runs write p95 ranged 28–54 ms, IQR/median 0.38.
    // Cold queries run three after each of 32 chunks: with 16 of them,
    // two after each of 8 set-ups, the cold-query figure spread by 0.21
    // and 0.29 of its median in two sets of ten runs.
    Spec {
        name: "cold-start-100k",
        users: 100_000,
        read_fraction: 0.9,
        clients: 1,
        tail: 2000,
        stream_len: 200_000,
        chunks: 32,
        setup_reps: 8,
        catchup_reps: 8,
        cold_queries: 96,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One client request.
#[derive(Debug, Clone)]
pub enum Op {
    Read { user: User, poss: bool },
    Write(SignedEdit),
}

impl Op {
    /// The request line of the serve protocol.
    pub fn line(&self, net: &TrustNetwork) -> String {
        let user = |u: User| net.user_name(u);
        let value = |v: Value| net.domain().name(v);
        match self {
            Op::Read { user: u, poss } => {
                format!("{} {}\n", if *poss { "POSS" } else { "CERT" }, user(*u))
            }
            Op::Write(SignedEdit::Believe(u, v)) => format!("BELIEVE {} {}\n", user(*u), value(*v)),
            Op::Write(SignedEdit::Revoke(u)) => format!("REVOKE {}\n", user(*u)),
            Op::Write(SignedEdit::Reject(u, neg)) => {
                format!("REJECT {} {}\n", user(*u), value(single(neg)))
            }
            Op::Write(SignedEdit::Trust {
                child,
                parent,
                priority,
            }) => format!("TRUST {} {} {priority}\n", user(*child), user(*parent)),
        }
    }
}

/// The one value of a generated constraint (the generators only emit
/// one-value constraints, which is all the `REJECT` verb can carry).
pub fn single(neg: &NegSet) -> Value {
    match neg {
        NegSet::Finite(values) if values.len() == 1 => *values.first().expect("one value"),
        other => panic!("generated constraints reject one value, got {other:?}"),
    }
}

/// The user whose state a write changes. Writes to one key always go to
/// the same client, so the final network does not depend on how the
/// clients' writes interleave.
pub fn key(edit: &SignedEdit) -> User {
    match edit {
        SignedEdit::Believe(u, _) | SignedEdit::Revoke(u) | SignedEdit::Reject(u, _) => *u,
        SignedEdit::Trust { child, .. } => *child,
    }
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// The network after the fixture tail: what the store holds when
    /// serving starts.
    pub fixture: TrustNetwork,
    /// The network imported into the store, when a tail follows it
    /// (otherwise the fixture itself).
    import: Option<TrustNetwork>,
    pub tail: Vec<SignedEdit>,
    /// One request stream per client.
    pub streams: Vec<Vec<Op>>,
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let w = power_law(spec.users, 2, 4, 0.2, DATASET_SEED);
    let mix = ServeMix {
        read_fraction: spec.read_fraction,
        zipf_s: ZIPF_S,
        ..Default::default()
    };
    // The dataset's request population fixes the sequence of request
    // kinds, which client sends each request (by position), and each
    // client's writes: the population's writes to the keys the client
    // owns, in order. The run's seed draws each read from the
    // population's reads of the same kind, so every run sends the same
    // mix in the same order and only the keys read change with the seed.
    let population = serve_stream(&w, spec.stream_len, mix, DATASET_SEED);
    let client_of_write = |op: &ServeOp| match op {
        ServeOp::Write(edit) => key(&to_signed(*edit)).index() % spec.clients,
        _ => 0,
    };
    let mut pools: Vec<Vec<Vec<ServeOp>>> = vec![vec![Vec::new(); spec.clients]; 3];
    for op in &population {
        pools[kind(op)][client_of_write(op)].push(*op);
    }
    let mut rng = SplitMix(seed ^ 0x5e7e);
    let mut next_write = vec![0usize; spec.clients];
    let pattern: Vec<(usize, ServeOp)> = population
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let client = i % spec.clients;
            let pool = &pools[kind(op)][if kind(op) == 2 { client } else { 0 }];
            // An empty pool (no population write routes to this client)
            // keeps the population's own request.
            let drawn = if pool.is_empty() {
                *op
            } else if kind(op) == 2 {
                next_write[client] += 1;
                pool[(next_write[client] - 1) % pool.len()]
            } else {
                pool[rng.below(pool.len())]
            };
            (client, drawn)
        })
        .collect();
    drop((population, pools));
    let tail: Vec<SignedEdit> = edit_stream(&w, spec.tail, EditMix::default(), DATASET_SEED)
        .into_iter()
        .map(to_signed)
        .collect();

    let mut streams: Vec<Vec<Op>> = vec![Vec::new(); spec.clients];
    for (client, op) in pattern {
        match op {
            ServeOp::Cert(user) | ServeOp::Poss(user) => {
                let poss = matches!(op, ServeOp::Poss(_));
                streams[client].push(Op::Read { user, poss });
            }
            ServeOp::Write(edit) => {
                // Writes to one key all go to the client that owns it.
                let edit = to_signed(edit);
                streams[key(&edit).index() % spec.clients].push(Op::Write(edit));
            }
        }
    }
    let (import, fixture) = if tail.is_empty() {
        (None, w.net)
    } else {
        let mut fixture = w.net.clone();
        for edit in &tail {
            trustmap::workloads::apply_signed_edit(&mut fixture, edit);
        }
        (Some(w.net), fixture)
    };
    Inputs {
        fixture,
        import,
        tail,
        streams,
    }
}

/// The splitmix64 sequence: the benchmark's own seeded draws.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Inputs {
    pub fn import(&self) -> &TrustNetwork {
        self.import.as_ref().unwrap_or(&self.fixture)
    }
}

/// A request's kind: 0 `CERT`, 1 `POSS`, 2 write.
fn kind(op: &ServeOp) -> usize {
    match op {
        ServeOp::Cert(_) => 0,
        ServeOp::Poss(_) => 1,
        ServeOp::Write(_) => 2,
    }
}

fn to_signed(edit: Edit) -> SignedEdit {
    match edit {
        Edit::Believe(u, v) => SignedEdit::Believe(u, v),
        Edit::Revoke(u) => SignedEdit::Revoke(u),
        Edit::Trust {
            child,
            parent,
            priority,
        } => SignedEdit::Trust {
            child,
            parent,
            priority,
        },
    }
}
