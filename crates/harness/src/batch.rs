//! Sender-side coalescing of route XRLs into vectorized frames.
//!
//! A [`RouteBatcher`] sits between a route-emitting stage (BGP's RIB
//! output, the RIB's FEA output) and the XRL router.  It is the only way
//! routes leave either process: it buffers rows and ships them as
//! `add_routes` / `delete_routes` frames, flushing when
//!
//! - the buffer reaches `batch_size` rows (size-based flush),
//! - the configured `flush_ms` timer expires (time-based flush), or —
//!   with `flush_ms == 0` — the event loop goes idle (a deferred flush
//!   runs after all currently queued events), so a *single* route still
//!   leaves in the same loop iteration and keeps the Fig-10 latency
//!   shape.
//!
//! A batch of one is the per-route case: with `batch_size == 1` and
//! nothing held back, `push` ships the row as a one-row frame on the spot,
//! without touching the buffer.
//!
//! Ordering is preserved: rows are buffered in arrival order and a flush
//! emits one frame per run of consecutive same-direction rows, so an
//! add/delete/add sequence can never be reordered into delete/add/add.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use xorp_event::EventLoop;
use xorp_net::Ipv4Net;
use xorp_profiler::tracing::{self as xtrace, SpanRecorder, TraceContext};
use xorp_profiler::PointHandle;
use xorp_xrl::AtomValue;

use crate::xrl_ifaces::BulkRouteSink;

/// One buffered route row: direction, prefix (for the profiling payload,
/// formatted only when the point is enabled), encoded atoms, and the
/// ambient trace context at push time (sampled routes only).
struct Row {
    add: bool,
    net: Ipv4Net,
    atoms: Vec<AtomValue>,
    trace: Option<TraceContext>,
}

/// The `"add 10.0.0.0/24"` / `"del …"` payload of the route-flow points.
pub(crate) fn payload(add: bool, net: Ipv4Net) -> String {
    format!("{} {net}", if add { "add" } else { "del" })
}

/// What a batcher ships through; fixed at construction.
struct Out {
    /// The typed `add_routes`/`delete_routes` pair frames are shipped
    /// through (an interned stub of the destination interface).
    sink: BulkRouteSink,
    /// Profiling point stamped per row when its frame is sent.  A
    /// pre-resolved handle: dormant stamping costs one relaxed load.
    sent_point: PointHandle,
    /// Span recorder for the `batch` hop.  A shipped frame rides the
    /// first traced row's context (the *carrier*) and every other traced
    /// row coalesced into it records a fan-in link.
    tracer: SpanRecorder,
}

impl Out {
    /// Ship one same-direction run of rows as one frame.
    fn ship(&self, el: &mut EventLoop, add: bool, run: &mut [Row]) {
        // The first traced row carries the frame's context; the other
        // traced rows coalesced into it record fan-in links so their
        // traces keep causality instead of dead-ending at the merge.
        let traced = run.iter().find_map(|r| r.trace).map(|ctx| {
            for r in run.iter() {
                if let Some(c) = r.trace {
                    if c.trace_id != ctx.trace_id {
                        self.tracer.fan_in(c, ctx.trace_id);
                    }
                }
            }
            let span = self.tracer.begin(ctx, "batch");
            let prev = xtrace::set_current(Some(span.ctx));
            (span, prev)
        });
        // Stamp before the send: once the frame is on the wire the peer's
        // reader thread may stamp its arrival point first, breaking
        // pipeline monotonicity.
        let mut encoded = Vec::with_capacity(run.len());
        for row in run.iter_mut() {
            self.sent_point.record(|| payload(add, row.net));
            encoded.push(AtomValue::List(std::mem::take(&mut row.atoms)));
        }
        self.sink.send(el, add, encoded);
        if let Some((span, prev)) = traced {
            xtrace::set_current(prev);
            self.tracer.finish(span);
        }
    }
}

struct Inner {
    out: Out,
    batch_size: usize,
    /// `None` flushes on idle (deferred); `Some(d)` arms a timer.
    flush_after: Option<Duration>,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    pending: Vec<Row>,
    /// A flush is already scheduled (timer or deferral) — don't stack
    /// another one per row.
    scheduled: bool,
    /// Backpressure gate: while closed (`true`), flushes hold and rows
    /// accumulate; reopening flushes immediately.
    gated: bool,
}

/// Coalesces per-route ops into `add_routes`/`delete_routes` XRL frames.
#[derive(Clone)]
pub struct RouteBatcher {
    inner: Rc<Inner>,
}

impl RouteBatcher {
    pub fn new(
        sink: BulkRouteSink,
        batch_size: usize,
        flush_ms: u64,
        sent_point: PointHandle,
        tracer: SpanRecorder,
    ) -> RouteBatcher {
        RouteBatcher {
            inner: Rc::new(Inner {
                out: Out {
                    sink,
                    sent_point,
                    tracer,
                },
                batch_size: batch_size.max(1),
                flush_after: (flush_ms > 0).then(|| Duration::from_millis(flush_ms)),
                state: RefCell::default(),
            }),
        }
    }

    /// Queue one route row for `net`; flush if the batch is full,
    /// otherwise make sure a flush is scheduled.
    pub fn push(&self, el: &mut EventLoop, add: bool, net: Ipv4Net, atoms: Vec<AtomValue>) {
        let mut row = Row {
            add,
            net,
            atoms,
            trace: xtrace::current(),
        };
        let (full, arm) = {
            let mut s = self.inner.state.borrow_mut();
            if self.inner.batch_size == 1 && !s.gated && s.pending.is_empty() {
                // A batch of one: the row is the whole frame.
                drop(s);
                self.inner.out.ship(el, add, std::slice::from_mut(&mut row));
                return;
            }
            s.pending.push(row);
            let full = s.pending.len() >= self.inner.batch_size;
            let arm = !full && !s.scheduled;
            if arm {
                s.scheduled = true;
            }
            (full, arm)
        };
        if full {
            self.flush(el);
        } else if arm {
            let me = self.clone();
            match self.inner.flush_after {
                Some(d) => {
                    el.after(d, move |el| me.flush(el));
                }
                None => el.defer(move |el| me.flush(el)),
            }
        }
    }

    /// Close or open the backpressure gate.  While closed, `flush` holds
    /// rows in the buffer (the destination lane signalled Xoff); opening
    /// the gate ships whatever accumulated.
    pub fn set_gate(&self, el: &mut EventLoop, closed: bool) {
        self.inner.state.borrow_mut().gated = closed;
        if !closed {
            self.flush(el);
        }
    }

    /// Ship everything buffered, one frame per same-direction run.
    pub fn flush(&self, el: &mut EventLoop) {
        let mut rows = {
            let mut s = self.inner.state.borrow_mut();
            s.scheduled = false;
            if s.gated || s.pending.is_empty() {
                return;
            }
            std::mem::take(&mut s.pending)
        };
        let mut start = 0;
        while start < rows.len() {
            let add = rows[start].add;
            let end = rows[start..]
                .iter()
                .position(|r| r.add != add)
                .map_or(rows.len(), |n| start + n);
            self.inner.out.ship(el, add, &mut rows[start..end]);
            start = end;
        }
        // Hand the emptied buffer back so the next batch reuses its
        // allocation.
        rows.clear();
        let mut s = self.inner.state.borrow_mut();
        if s.pending.is_empty() {
            s.pending = rows;
        }
    }

    /// Rows currently buffered (test observability).
    pub fn pending_count(&self) -> usize {
        self.inner.state.borrow().pending.len()
    }
}
