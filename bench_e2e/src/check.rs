//! The correctness check: served answers against a from-scratch
//! resolution of the same network.

use crate::inputs::Op;
use trustmap::workloads::apply_signed_edit;
use trustmap::{resolve_network, TrustNetwork, User, Value};
use trustmap_core::epoch::EpochView;

/// One user's answers as the protocol renders them: the certain value
/// (`-` for none) and the comma-joined possible values (`-` for none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub cert: String,
    pub poss: String,
}

fn render(names: impl Iterator<Item = String>) -> String {
    let names: Vec<String> = names.collect();
    if names.is_empty() {
        "-".into()
    } else {
        names.join(",")
    }
}

/// Renders from a certain value and a sorted possible set.
pub fn answer(net: &TrustNetwork, cert: Option<Value>, poss: &[Value]) -> Answer {
    let name = |v: &Value| net.domain().name(*v).to_owned();
    Answer {
        cert: render(cert.iter().map(name)),
        poss: render(poss.iter().map(name)),
    }
}

/// What an epoch view serves for `user`.
pub fn from_view(net: &TrustNetwork, view: &EpochView, user: User) -> Answer {
    answer(net, view.cert(user), &view.poss(user))
}

/// Resolves `net` from scratch with Algorithm 1 (`resolve_network`) and
/// returns the answers for `users`.
pub fn reference(net: &TrustNetwork, users: &[User]) -> Vec<Answer> {
    let r = resolve_network(net).expect("reference resolution");
    users
        .iter()
        .map(|&u| answer(net, r.cert[u.index()], &r.poss[u.index()]))
        .collect()
}

/// Parses a `CERT`/`POSS` reply (`OK <text> epoch=<e> lsn=<l>`).
pub fn reply_text(reply: &str) -> Option<&str> {
    reply.strip_prefix("OK ")?.split_whitespace().next()
}

/// Applies the clients' acknowledged writes (`acked[c]` holds client
/// `c`'s stream positions in send order). Writes to one key all come from
/// one client, so this reproduces the server's final state whatever the
/// interleaving across clients was.
pub fn apply_logs(net: &mut TrustNetwork, streams: &[Vec<Op>], acked: &[&[usize]]) {
    for (stream, acked) in streams.iter().zip(acked) {
        for &pos in acked.iter() {
            if let Op::Write(edit) = &stream[pos] {
                apply_signed_edit(net, edit);
            }
        }
    }
}

/// Counts mismatches between two answer lists, printing the first few.
pub fn mismatches(what: &str, users: &[User], got: &[Answer], want: &[Answer]) -> usize {
    let mut bad = 0;
    for ((u, g), w) in users.iter().zip(got).zip(want) {
        if g != w {
            if bad < 5 {
                eprintln!(
                    "mismatch ({what}) at user #{}: got {g:?}, want {w:?}",
                    u.index()
                );
            }
            bad += 1;
        }
    }
    bad
}
