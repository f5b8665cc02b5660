//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls the workloads make *into* each layer
//! (spans inside the crates are a later issue). One preallocated vector
//! per OS thread, no locks and no allocation while recording; vectors are
//! handed to a process-wide collector when their thread exits or calls
//! [`flush`].
//!
//! Two kinds of span:
//!
//! * **scoped** ([`begin`]/[`end`]) — nest by call structure on one OS
//!   thread. A scoped span must not stay open across a user-level context
//!   switch (`yield_now`, `suspend`, a blocking AMPI call): the flow that
//!   resumes next would inherit it as a parent it never had.
//! * **complete** ([`complete`]) — an interval with explicit ends and no
//!   place in the nesting, for waits and whole requests that do cross
//!   switches. Excluded from self-time arithmetic, reported as waiting.

use flows_sys::time::monotonic_ns;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// No parent: a root of the nesting (or a complete span).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the prefix before the dot is the layer.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing scoped span in the same thread's vector.
    pub parent: u32,
    /// The request / message / iteration this span worked for.
    pub op: u32,
    /// Scoped (nests, has self time) or complete (a wait).
    pub scoped: bool,
}

/// Spans of one OS thread, in begin order.
#[derive(Debug, Default)]
pub struct ThreadSpans {
    pub thread: String,
    pub spans: Vec<Span>,
    /// Spans not recorded because the vector was full.
    pub dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());

/// Spans kept per OS thread; at 48 bytes each this is 48 MiB at most.
const CAPACITY: usize = 1 << 20;

struct Local {
    spans: Vec<Span>,
    current: u32,
    dropped: u64,
}

impl Drop for Local {
    fn drop(&mut self) {
        hand_over(self);
    }
}

fn hand_over(l: &mut Local) {
    if l.spans.is_empty() && l.dropped == 0 {
        return;
    }
    let thread = std::thread::current().name().map_or_else(
        || format!("{:?}", std::thread::current().id()),
        str::to_string,
    );
    // A poisoned collector only means another thread panicked while
    // pushing; the vector itself is still valid.
    let mut all = COLLECTED.lock().unwrap_or_else(|e| e.into_inner());
    all.push(ThreadSpans {
        thread,
        spans: std::mem::take(&mut l.spans),
        dropped: std::mem::take(&mut l.dropped),
    });
    l.current = NO_PARENT;
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { spans: Vec::new(), current: NO_PARENT, dropped: 0 })
    };
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(yes: bool) {
    ENABLED.store(yes, Ordering::Relaxed);
}

/// Is recording on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Token returned by [`begin`]; `NONE` when nothing was recorded.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Open {
    pub const NONE: Open = Open(NO_PARENT);
}

/// Open a scoped span.
///
/// Never inlined (like [`end`] and [`complete`]): inlined into a rank's
/// main, the thread-pointer read behind `LOCAL` could be hoisted across a
/// blocking call, and after a migration to another PE's OS thread the
/// rank would write into the old thread's vector.
#[inline(never)]
pub fn begin(name: &'static str, op: u32) -> Open {
    if !enabled() {
        return Open::NONE;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.spans.capacity() == 0 {
            l.spans.reserve_exact(CAPACITY);
        }
        if l.spans.len() == CAPACITY {
            l.dropped += 1;
            return Open::NONE;
        }
        let idx = l.spans.len() as u32;
        let parent = l.current;
        l.spans.push(Span {
            name,
            start: monotonic_ns(),
            end: 0,
            parent,
            op,
            scoped: true,
        });
        l.current = idx;
        Open(idx)
    })
}

/// Close a scoped span.
#[inline(never)]
pub fn end(open: Open) {
    if open.0 == NO_PARENT {
        return;
    }
    let now = monotonic_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        // The vector may have been flushed while the span was open (a rank
        // finishing on this OS thread); the token then points at nothing.
        let Some(s) = l.spans.get_mut(open.0 as usize) else {
            return;
        };
        s.end = now;
        l.current = s.parent;
    })
}

/// Record a complete span with explicit ends.
#[inline(never)]
pub fn complete(name: &'static str, start: u64, end: u64, op: u32) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.spans.capacity() == 0 {
            l.spans.reserve_exact(CAPACITY);
        }
        if l.spans.len() == CAPACITY {
            l.dropped += 1;
            return;
        }
        l.spans.push(Span {
            name,
            start,
            end,
            parent: NO_PARENT,
            op,
            scoped: false,
        });
    })
}

/// Hand the calling thread's spans to the collector now (threads the
/// benchmark does not own exit on their own schedule).
pub fn flush() {
    LOCAL.with(|l| hand_over(&mut l.borrow_mut()));
}

/// Take everything collected so far.
pub fn drain() -> Vec<ThreadSpans> {
    flush();
    std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every scoped span: its duration minus the part of that
/// interval its direct children cover. Complete spans and spans never
/// closed get 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let dur = |s: &Span| {
        if s.scoped {
            s.end.saturating_sub(s.start)
        } else {
            0
        }
    };
    let mut own: Vec<u64> = spans.iter().map(dur).collect();
    for s in spans.iter().filter(|s| s.scoped && s.parent != NO_PARENT) {
        let p = &spans[s.parent as usize];
        // Only the part of the child inside the parent's interval counts.
        let lo = s.start.max(p.start);
        let hi = s.end.min(p.end);
        own[s.parent as usize] = own[s.parent as usize].saturating_sub(hi.saturating_sub(lo));
    }
    own
}

/// Busy and waiting time per span name over a set of threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of self times (scoped spans).
    pub self_ns: u64,
    /// Sum of durations (complete spans): time work waited.
    pub wait_ns: u64,
}

pub fn totals_by_name(
    threads: &[ThreadSpans],
) -> std::collections::BTreeMap<&'static str, NameTotals> {
    let mut out = std::collections::BTreeMap::<&'static str, NameTotals>::new();
    for t in threads {
        let own = self_times(&t.spans);
        for (s, own) in t.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            if s.scoped {
                e.self_ns += own;
            } else {
                e.wait_ns += s.end.saturating_sub(s.start);
            }
        }
    }
    out
}

/// The layer of a span name: everything before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): one
/// `X` event per span, one tid per OS thread, at most `max_per_thread`
/// events from each so the file stays loadable.
pub fn chrome_json(threads: &[ThreadSpans], max_per_thread: usize) -> String {
    let t0 = threads
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.start))
        .min()
        .unwrap_or(0);
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, t) in threads.iter().enumerate() {
        let meta = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            t.thread.replace(['"', '\\'], "_")
        );
        for line in std::iter::once(meta).chain(t.spans.iter().take(max_per_thread).map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                if s.scoped { layer_of(s.name) } else { "wait" },
                s.start.saturating_sub(t0) as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.op
            )
        })) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}
