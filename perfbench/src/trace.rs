//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into the workspace crates, a counting global allocator, and
//! the `/proc` readings each run reports alongside its metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation (and reallocation) made by the process.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made so far by the whole process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layers a span can be charged to. `Root` is the traced loop
/// itself: its self time is the named residual of the workload (the
/// generator scan of the dynamic runners, the client loop of the
/// service workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Root,
    SetupTopology,
    SetupRouter,
    SetupNetwork,
    Gen,
    Plan,
    Inject,
    EngineRun,
    Stats,
    Static,
    Core(usize),
    SpecParse,
    SpecToJson,
    ServeSubmit,
    ServeDrain,
    ServeOpen,
}

/// Planner names, in the order of [`Layer::Core`] indices.
pub const CORE_NAMES: [&str; 12] = [
    "sorted_mp",
    "sorted_mc",
    "greedy_st",
    "len",
    "kmb",
    "xfirst",
    "divided_greedy",
    "dual_path",
    "multi_path",
    "fixed_path",
    "dc_xfirst",
    "multi_unicast",
];

const FIXED: usize = 15;
const SLOTS: usize = FIXED + CORE_NAMES.len();

impl Layer {
    fn index(self) -> usize {
        match self {
            Layer::Root => 0,
            Layer::SetupTopology => 1,
            Layer::SetupRouter => 2,
            Layer::SetupNetwork => 3,
            Layer::Gen => 4,
            Layer::Plan => 5,
            Layer::Inject => 6,
            Layer::EngineRun => 7,
            Layer::Stats => 8,
            Layer::Static => 9,
            Layer::SpecParse => 10,
            Layer::SpecToJson => 11,
            Layer::ServeSubmit => 12,
            Layer::ServeDrain => 13,
            Layer::ServeOpen => 14,
            Layer::Core(i) => FIXED + i,
        }
    }

    fn name(index: usize) -> String {
        const NAMES: [&str; FIXED] = [
            "root",
            "setup.topology",
            "setup.router",
            "setup.network",
            "gen",
            "plan",
            "inject",
            "engine.run",
            "stats",
            "static",
            "spec.parse",
            "spec.to_json",
            "serve.submit",
            "serve.drain",
            "serve.open",
        ];
        if index >= FIXED {
            format!("core.{}", CORE_NAMES[index - FIXED])
        } else {
            NAMES[index].to_string()
        }
    }
}

/// Per-layer totals over every span closed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

struct Open {
    layer: usize,
    start_ns: u64,
    child_ns: u64,
    allocs_at_start: u64,
    child_allocs: u64,
    span: u32,
}

struct Span {
    layer: u8,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// Span records kept in memory. The buffer is reserved up front so that
/// recording never allocates inside a measured span.
const SPAN_CAPACITY: usize = 400_000;

/// A span tracer. Spans nest: a layer's self time is its span minus the
/// spans opened inside it, so the self times of all layers sum to the
/// root span. Totals cover every span; the span records themselves are
/// kept only while `record` is set (the first traced repetition) and
/// the buffer has room, and are written out by [`Tracer::write_spans`].
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    totals: [Total; SLOTS],
    spans: Vec<Span>,
    pub record: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(64),
            totals: [Total::default(); SLOTS],
            spans: Vec::with_capacity(SPAN_CAPACITY),
            record: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for `layer`, on behalf of request `request` (the
    /// multicast sequence number, the job id, or the route index).
    pub fn enter(&mut self, layer: Layer, request: u64) {
        let start_ns = self.now_ns();
        let span = if self.record && self.spans.len() < self.spans.capacity() {
            let parent = self.open.last().map_or(NO_SPAN, |o| o.span);
            self.spans.push(Span {
                layer: layer.index() as u8,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_SPAN
        };
        self.open.push(Open {
            layer: layer.index(),
            start_ns,
            child_ns: 0,
            allocs_at_start: allocs(),
            child_allocs: 0,
            span,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let allocs_now = allocs();
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("exit matches an enter");
        let dur = end_ns - o.start_ns;
        let used = allocs_now - o.allocs_at_start;
        let t = &mut self.totals[o.layer];
        t.calls += 1;
        t.self_ns += dur.saturating_sub(o.child_ns);
        t.self_allocs += used.saturating_sub(o.child_allocs);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += used;
        }
        if o.span != NO_SPAN {
            self.spans[o.span as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(layer, request);
        let r = f();
        self.exit();
        r
    }

    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer.index()]
    }

    /// Allocations charged to any layer so far.
    pub fn allocs_sum(&self) -> u64 {
        self.totals.iter().map(|t| t.self_allocs).sum()
    }

    /// Sum of every layer's self time: the host time of all root spans.
    pub fn self_ns_sum(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    /// Writes the recorded spans as CSV: one row per span with its
    /// layer name, start and end (ns since the tracer started), parent
    /// row (-1 for a root) and request id.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,layer,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                Layer::name(s.layer as usize),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time this thread has waited on a run queue, in seconds
/// (`/proc/thread-self/schedstat`, second field).
pub fn runqueue_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}
