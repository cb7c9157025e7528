//! Micro-measurements of the two layers the replay cannot run in one
//! process: an XRL frame over loopback TCP, and an event-loop wakeup.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::xrl_ifaces::{self, fea};
use xorp_harness::{BackboneRoute, Process};
use xorp_net::{Ipv4Net, ProtocolId, RouteEntry};
use xorp_xrl::{AtomValue, Finder, TypedResponder, XrlRouter};

use crate::report::median;

/// Frames timed for the round trip, and for the windowed rate.
const RTT_FRAMES: usize = 2000;
const RATE_WINDOW: usize = 100;
const RATE_TIME: Duration = Duration::from_millis(1000);
/// Wakeups timed, and the pause before each so the loop is asleep.
const WAKES: usize = 2000;
const WAKE_IDLE: Duration = Duration::from_micros(300);

pub struct XrlMicro {
    pub rtt_us_p50: f64,
    pub frames_per_s: f64,
}

/// A `fea/1.0` target that decodes every frame and installs nothing.
struct Sink;

impl fea::Server for Sink {
    fn add_route(
        &self,
        el: &mut EventLoop,
        _net: Ipv4Net,
        _nexthop: Ipv4Addr,
        _ifname: String,
        _metric: u32,
        responder: TypedResponder<()>,
    ) {
        responder.ok(el, ());
    }

    fn delete_route(&self, el: &mut EventLoop, _net: Ipv4Net, responder: TypedResponder<()>) {
        responder.ok(el, ());
    }

    fn add_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        match xrl_ifaces::decode_add_rows(&routes) {
            Ok(rows) => responder.ok(el, (rows.len() as u32,)),
            Err(e) => responder.fail(el, e),
        }
    }

    fn delete_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        match xrl_ifaces::decode_delete_rows(&routes) {
            Ok(rows) => responder.ok(el, (rows.len() as u32,)),
            Err(e) => responder.fail(el, e),
        }
    }

    fn route_count(&self, el: &mut EventLoop, responder: TypedResponder<(u32,)>) {
        responder.ok(el, (0,));
    }
}

/// Send one frame of `batch` table routes the way the router's hops do:
/// `add_route` at batch 1, `add_routes` otherwise.
fn send_frame(
    client: &fea::Client,
    el: &mut EventLoop,
    rows: &[RouteEntry<Ipv4Addr>],
    done: Rc<Cell<usize>>,
) {
    let cb = move |_el: &mut EventLoop, ok: bool| {
        assert!(ok, "sink rejected a frame");
        done.set(done.get() + 1);
    };
    if let [r] = rows {
        let w = xrl_ifaces::RouteWire::from_entry(r.net, r);
        client.add_route(el, w.net, w.nexthop, w.ifname, w.metric, move |el, res| {
            cb(el, res.is_ok())
        });
    } else {
        let frame = rows
            .iter()
            .map(|r| AtomValue::List(xrl_ifaces::add_row(r.net, r)))
            .collect();
        client.add_routes(el, frame, move |el, res| cb(el, res.is_ok()));
    }
}

fn run_until(el: &mut EventLoop, mut done: impl FnMut() -> bool) {
    while !done() {
        if !el.run_one() {
            el.run_for(Duration::from_micros(100));
        }
    }
}

/// Round-trip time of one frame of `batch` routes to an idle sink
/// process, one outstanding; and frames per second with
/// [`RATE_WINDOW`] outstanding.
pub fn xrl(table: &[BackboneRoute], batch: usize) -> XrlMicro {
    let finder = Finder::new();
    let sink = Process::spawn("sink", finder.clone(), |_el, router| {
        router
            .register_target("fea", "fea-0", true)
            .expect("register sink");
        fea::register(router, "fea-0", Sink);
    });
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().expect("enable tcp");
    router
        .register_target("routerbench", "routerbench-0", false)
        .expect("register sender");
    let client = fea::Client::new(&router, "fea");
    let rows: Vec<RouteEntry<Ipv4Addr>> = table
        .iter()
        .take(batch)
        .map(|r| {
            let mut e = RouteEntry::new(r.net, r.attrs.clone(), 0, ProtocolId::Ebgp);
            e.ifname = Some("eth0".into());
            e
        })
        .collect();
    let done = Rc::new(Cell::new(0usize));

    // Warm up: resolve the target and open the connection.
    for i in 1..=10 {
        send_frame(&client, &mut el, &rows, done.clone());
        run_until(&mut el, || done.get() == i);
    }

    let mut rtt = Vec::with_capacity(RTT_FRAMES);
    for _ in 0..RTT_FRAMES {
        let before = done.get();
        let t0 = Instant::now();
        send_frame(&client, &mut el, &rows, done.clone());
        run_until(&mut el, || done.get() > before);
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let base = done.get();
    let mut sent = 0;
    let t0 = Instant::now();
    while t0.elapsed() < RATE_TIME {
        while sent - (done.get() - base) < RATE_WINDOW {
            send_frame(&client, &mut el, &rows, done.clone());
            sent += 1;
        }
        if !el.run_one() {
            el.run_for(Duration::from_micros(100));
        }
    }
    let frames_per_s = (done.get() - base) as f64 / t0.elapsed().as_secs_f64();
    run_until(&mut el, || done.get() - base == sent);
    router.shutdown(&mut el);
    sink.stop();
    XrlMicro {
        rtt_us_p50: median(&rtt),
        frames_per_s,
    }
}

/// Median time from `Process::post` to an idle loop until the closure
/// runs, in microseconds.
pub fn event_wake() -> f64 {
    let p = Process::spawn("idle", Finder::new(), |_el, _router| {});
    let (tx, rx) = mpsc::channel::<Duration>();
    let mut wake = Vec::with_capacity(WAKES);
    for _ in 0..WAKES {
        std::thread::sleep(WAKE_IDLE);
        let tx = tx.clone();
        let t0 = Instant::now();
        p.post(move |_el| {
            tx.send(t0.elapsed())
                .expect("benchmark thread waits for the wakeup");
        });
        let d = rx.recv().expect("idle loop runs the posted closure");
        wake.push(d.as_secs_f64() * 1e6);
    }
    p.stop();
    median(&wake)
}
