//! In-memory span recording for the traced run.
//!
//! Spans are recorded only around calls this benchmark makes into the
//! library's layers. Each thread keeps its own span list and a stack of
//! open spans, so recording takes no lock; the lists are collected when
//! the traced phase ends and written out as one CSV file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span. `parent` is an index into the same thread's list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans one thread recorded, in start order.
#[derive(Debug, Default)]
pub struct ThreadSpans {
    pub thread: u32,
    pub spans: Vec<Span>,
}

#[derive(Default)]
struct Local {
    enabled: bool,
    thread: u32,
    request: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Starts recording on the calling thread under the given thread id.
pub fn enable(thread: u32) {
    origin();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.enabled = true;
        l.thread = thread;
    });
}

/// Stops recording on the calling thread and hands back its spans.
pub fn take() -> ThreadSpans {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.enabled = false;
        l.open.clear();
        ThreadSpans {
            thread: l.thread,
            spans: std::mem::take(&mut l.spans),
        }
    })
}

/// Sets the request id that spans opened from now on carry.
pub fn set_request(request: u64) {
    LOCAL.with(|l| l.borrow_mut().request = request);
}

/// Runs `f` inside a span named `name` (a plain call when recording is
/// off on this thread).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.enabled {
            return None;
        }
        let index = l.spans.len() as u32;
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: l.open.last().copied(),
            request: l.request,
        };
        l.spans.push(span);
        l.open.push(index);
        Some(index)
    });
    let Some(index) = index else {
        return f();
    };
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        let span = &mut l.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
    });
    out
}

/// Per-name duration samples: total time and self time (total minus the
/// time covered by direct children) of every span with that name.
#[derive(Debug, Default)]
pub struct Layer {
    pub total_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
}

/// Groups every recorded span by name.
pub fn layers(threads: &[ThreadSpans]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for t in threads {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.total_ns.push(s.dur_ns());
            layer.self_ns.push(s.dur_ns().saturating_sub(children));
        }
    }
    out
}

/// Writes every span as one CSV row: a process-unique id
/// (`thread << 32 | index`), the parent's id (empty for a root), the
/// request id, the name, and start/end in ns since the first span.
pub fn dump(path: &Path, threads: &[ThreadSpans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
    for t in threads {
        let base = (t.thread as u64) << 32;
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| (base | p as u64).to_string())
                .unwrap_or_default();
            writeln!(
                out,
                "{},{parent},{},{},{},{}",
                base | i as u64,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
