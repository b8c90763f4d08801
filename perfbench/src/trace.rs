//! Host-time spans recorded from the benchmark's own files, around calls
//! into the program's public API — nothing is added inside the program.
//!
//! Spans stay in memory while the benchmark runs and are written once, at
//! exit, as Chrome trace-event JSON (the format of the `trace_export`
//! golden; open it in Perfetto or `chrome://tracing`). Timestamps are host
//! microseconds, not simulated ticks.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use edea::core::CoreError;
use edea::nn::workload::NetworkId;
use edea::serve::{Backend, BackendRun};
use edea::tensor::Batch;
use edea::EdeaConfig;

use crate::clock::Clock;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One host-time interval around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `accelerator.L03` or `serve.backend`.
    pub name: String,
    /// Host nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in the same clock; equal to `start_ns` while still open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Recording thread (small sequential ids, for the trace viewer).
    pub thread: u64,
    /// Identifiers and sizes: `request`, `batch`, `network`, `images`.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in host nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Parent for spans opened by a [`Traced`] backend.
    root: Option<SpanId>,
    /// Backend calls so far: the `batch` id of the next backend span.
    calls: u64,
}

/// An in-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    inner: Mutex<Inner>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            clock: Clock::start(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        args: Vec<(&'static str, u64)>,
    ) -> SpanId {
        let name = name.into();
        let thread = thread_tag();
        let mut inner = self.lock();
        let now = self.clock.now_ns();
        inner.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            thread,
            args,
        });
        inner.spans.len() - 1
    }

    /// Closes a span and returns its duration in host nanoseconds.
    pub fn end(&self, id: SpanId) -> u64 {
        let now = self.clock.now_ns();
        let mut inner = self.lock();
        let span = &mut inner.spans[id];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Runs `f` inside a span and returns its result with the span's id
    /// and duration in host nanoseconds.
    pub fn scope<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        args: Vec<(&'static str, u64)>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, SpanId, u64) {
        let id = self.begin(name, parent, args);
        let r = f(id);
        let ns = self.end(id);
        (r, id, ns)
    }

    /// Sets the parent of the spans [`Traced`] backends open from now on.
    pub fn set_root(&self, root: Option<SpanId>) {
        self.lock().root = root;
    }

    /// Copies of the spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The direct children of `parent` named `name`.
    #[must_use]
    pub fn children(&self, parent: SpanId, name: &str) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .cloned()
            .collect()
    }

    /// Renders every span as Chrome trace-event JSON, with `meta` (a JSON
    /// object) under `otherData`.
    #[must_use]
    pub fn chrome_trace(&self, meta: &str) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"perfbench (host time)\"}}",
        );
        for (i, s) in inner.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"args\":{{\"span\":{i}",
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.name
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{meta}}}\n"
        );
        out
    }
}

/// A delegating [`Backend`] that records one `serve.backend` span per
/// executed batch and otherwise changes nothing: every method forwards to
/// the wrapped backend, so a pool of these serves bit-identically to a
/// pool of the inner backends (the benchmark checks the reports equal).
#[derive(Debug, Clone)]
pub struct Traced<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> Traced<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn span<R>(&self, network: NetworkId, images: usize, f: impl FnOnce() -> R) -> R {
        let (parent, batch) = {
            let mut inner = self.tracer.lock();
            inner.calls += 1;
            (inner.root, inner.calls - 1)
        };
        let args = vec![
            ("batch", batch),
            ("network", u64::from(network.0)),
            ("images", images as u64),
        ];
        self.tracer.scope("serve.backend", parent, args, |_| f()).0
    }
}

impl<B: Backend> Backend for Traced<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EdeaConfig {
        self.inner.config()
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        self.inner.input_shape()
    }

    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        self.span(NetworkId::PRIMARY, inputs.len(), || self.inner.run(inputs))
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        self.inner.dispatch_cycles(batch)
    }

    fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
        self.inner.input_shape_for(network)
    }

    fn run_for(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        self.span(network, inputs.len(), || {
            self.inner.run_for(network, inputs)
        })
    }

    fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
        self.inner.dispatch_cycles_for(network, batch)
    }

    fn switch_bytes(&self, network: NetworkId) -> u64 {
        self.inner.switch_bytes(network)
    }
}
