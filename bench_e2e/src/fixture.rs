//! Building the store and starting the server the way `trustmap
//! snapshot --import` and `trustmap serve` do.

use crate::inputs::{Inputs, TAIL_UNIT};
use crate::trace::span;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trustmap::serve::{Frontend, ServeConfig, Server};
use trustmap::store::{RecoveryStats, Store};
use trustmap::Session;

/// Imports the network into a fresh store at `dir` as one rewrite unit
/// and snapshots it, then commits the fixture tail (if any) in
/// 16-edit units. Returns the seconds the import and snapshot took; the
/// tail is fixture, not set-up.
pub fn import(dir: &Path, inputs: &Inputs) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let net = inputs.import().clone();
    let t = Instant::now();
    let mut recovered = span("store.import", || {
        let mut recovered = Store::open(dir).expect("fresh store opens");
        recovered
            .session
            .apply(move |n| {
                *n = net;
                Ok(())
            })
            .expect("import commits");
        recovered
            .store
            .snapshot_now(&recovered.session)
            .expect("snapshot after import");
        recovered
    });
    let import_s = t.elapsed().as_secs_f64();
    for unit in inputs.tail.chunks(TAIL_UNIT) {
        let session = &mut recovered.session;
        session.begin_batch().expect("batch opens");
        for edit in unit {
            session
                .apply_signed_edit(edit.clone())
                .expect("tail edits are valid");
        }
        session.commit().expect("tail unit commits");
    }
    import_s
}

/// A running server over a recovered store.
pub struct Live {
    pub server: Server,
    pub recovery: RecoveryStats,
    pub open_s: f64,
    /// `Frontend::new`, which publishes the first epoch.
    pub frontend_s: f64,
    pub start_s: f64,
}

impl Live {
    /// `Store::open` → `Frontend::new` → `Server::start`, with
    /// `ServeConfig::default()`, on an ephemeral loopback port.
    pub fn start(dir: &Path) -> Live {
        let config = ServeConfig::default();
        let t = Instant::now();
        let recovered = span("store.open", || Store::open(dir).expect("store recovers"));
        let open_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let frontend = span("frontend.new", || {
            Arc::new(Frontend::new(
                recovered.session,
                Some(recovered.store),
                &config,
            ))
        });
        let frontend_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let server = Server::start(frontend, "127.0.0.1:0", &config).expect("server binds");
        let start_s = t.elapsed().as_secs_f64();
        Live {
            server,
            recovery: recovered.stats,
            open_s,
            frontend_s,
            start_s,
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.open_s + self.frontend_s + self.start_s
    }

    /// Stops the server (clients must have hung up) and the writer, and
    /// returns the writer's session.
    pub fn stop(self) -> Session {
        let frontend = Arc::clone(self.server.frontend());
        self.server.stop();
        frontend.shutdown().expect("writer stops once")
    }
}

/// The scratch directory of one run, inside the working directory.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()))
}
