//! The replay: a workload's generated inputs through each layer's public
//! functions in one process, on one event loop, with every call wrapped
//! in a benchmark-side span.
//!
//! The hops mirror the router's: BGP's best-route stream is cut into
//! frames as the router's batcher cuts it (at most the workload's batch
//! size, and never across UPDATEs), encoded and decoded with the router's
//! route codec and wire format, applied to the RIB, and the RIB's FEA
//! stream goes the same way into the FIB.  What the replay
//! leaves out is exactly what the process split adds: the TCP crossing,
//! the loop wakeups and the time work waits in queues.  Nexthops resolve
//! synchronously, as in `benches/route_latency.rs`.

use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_fea::{test_iface, Fea, FibEntry};
use xorp_harness::xrl_ifaces::{self, RouteWire};
use xorp_harness::BackboneRoute;
use xorp_net::{AsNum, Ipv4Net, PathAttributes, Prefix, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_rib::{BatchOp, RedistWatcher, Rib};
use xorp_stages::RouteOp;
use xorp_xrl::marshal::Frame;
use xorp_xrl::{AtomValue, XrlArgs};

use crate::e2e::{backup_attrs, probe_step};
use crate::report::Tally;
use crate::{Scale, Workload, UPDATE_ROUTES};

type Route = RouteEntry<Ipv4Addr>;
type Op = RouteOp<Ipv4Addr, Route>;

/// The connected route every router starts with.
const CONNECTED: &str = "192.168.0.0/16";

/// Synchronous stand-in for the RIB's nexthop registration: everything
/// inside the connected /16 resolves with the connected route's metric.
struct Connected;

impl NexthopService<Ipv4Addr> for Connected {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        let valid: Prefix<Ipv4Addr> = CONNECTED.parse().expect("connected prefix parses");
        cb(
            el,
            RibNexthopAnswer {
                valid,
                metric: valid.contains_addr(addr).then_some(1),
            },
        );
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Layer {
    Bgp,
    Encode,
    Decode,
    Rib,
    Fea,
}

const LAYERS: usize = 5;

/// The spans of one traced unit, summed per layer as they close.  Layer
/// calls never nest, so a layer's self time is the sum of its spans.
#[derive(Default)]
struct SpanLog {
    open: Option<(Layer, Instant)>,
    ns: [f64; LAYERS],
}

impl SpanLog {
    fn begin(&mut self, layer: Layer) {
        self.open = Some((layer, Instant::now()));
    }

    fn end(&mut self) {
        let (layer, t0) = self.open.take().expect("span ended without a begin");
        self.ns[layer as usize] += t0.elapsed().as_nanos() as f64;
    }
}

/// Work counted at the layer boundaries.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Routes in the UPDATEs given to BGP.
    pub routes_in: u64,
    /// Route ops BGP emitted, which are the ops the RIB takes in.
    pub bgp_out: u64,
    /// Route ops the RIB emitted toward the FEA (= FIB writes).
    pub rib_out: u64,
    pub rib_replaces: u64,
    /// Rows encoded, and their wire bytes, over both hops.
    pub rows: u64,
    pub bytes: u64,
}

impl Counts {
    fn add(&mut self, d: Counts) {
        self.routes_in += d.routes_in;
        self.bgp_out += d.bgp_out;
        self.rib_out += d.rib_out;
        self.rib_replaces += d.rib_replaces;
        self.rows += d.rows;
        self.bytes += d.bytes;
    }

    fn since(self, base: Counts) -> Counts {
        Counts {
            routes_in: self.routes_in - base.routes_in,
            bgp_out: self.bgp_out - base.bgp_out,
            rib_out: self.rib_out - base.rib_out,
            rib_replaces: self.rib_replaces - base.rib_replaces,
            rows: self.rows - base.rows,
            bytes: self.bytes - base.bytes,
        }
    }
}

/// The measured phase, cut into units of work that alternate between
/// traced (spans recorded) and untraced.
#[derive(Default)]
pub struct ReplayOut {
    /// Self times (ns) summed over the traced units.
    pub bgp_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub rib_ns: f64,
    pub fea_ns: f64,
    /// Work counted in the traced units.
    pub counts: Counts,
    /// Wall time and input routes of the traced and the untraced units.
    pub traced_ns: f64,
    pub plain_ns: f64,
    pub plain_routes: u64,
}

impl ReplayOut {
    /// Extra wall time per route with spans on, as a share of the time
    /// without.
    pub fn tracing_overhead(&self) -> f64 {
        let per_route = |ns: f64, routes: u64| ns / routes.max(1) as f64;
        per_route(self.traced_ns, self.counts.routes_in)
            / per_route(self.plain_ns, self.plain_routes)
            - 1.0
    }
}

#[derive(Clone, Copy)]
enum Hop {
    /// BGP → RIB: `rib/1.0`, deletions carry the protocol.
    Rib,
    /// RIB → FEA: `fea/1.0`, deletions carry only the prefix.
    Fea,
}

enum Wire {
    Add(RouteWire),
    Del(Ipv4Net, ProtocolId),
}

fn is_add(op: &Op) -> bool {
    !matches!(op, RouteOp::Delete { .. })
}

struct Pipeline {
    el: EventLoop,
    bgp: BgpProcess<Ipv4Addr>,
    bgp_out: Rc<RefCell<Vec<Op>>>,
    rib: Rib<Ipv4Addr>,
    rib_out: Rc<RefCell<Vec<Op>>>,
    fea: Fea,
    batch: usize,
    seq: u64,
    counts: Counts,
    /// Recording spans (traced units of the measured phase only).
    log: Option<SpanLog>,
}

impl Pipeline {
    /// The router's three processes as one: same peers, same RIB→FEA
    /// redistribution watcher, same connected route.
    fn new(batch: usize) -> Pipeline {
        let mut el = EventLoop::new_virtual();
        let mut fea = Fea::new();
        fea.configure_interface(test_iface("eth0", "192.168.0.1", 16));

        let mut rib = Rib::<Ipv4Addr>::new(false);
        let rib_out = Rc::new(RefCell::new(Vec::new()));
        let sink = rib_out.clone();
        rib.add_redist_watcher(
            &mut el,
            RedistWatcher::new(
                "fea",
                None,
                FilterBank::accept_by_default(),
                Rc::new(move |_el, op| sink.borrow_mut().push(op)),
            ),
        );
        let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1)));
        attrs.ebgp = false;
        let mut connected = RouteEntry::new(
            CONNECTED.parse().expect("connected prefix parses"),
            Arc::new(attrs),
            1,
            ProtocolId::Connected,
        );
        connected.ifname = Some("eth0".into());
        rib.add_route(&mut el, connected);

        let mut bgp = BgpProcess::new(
            BgpConfig {
                local_as: AsNum(65000),
                router_id: Ipv4Addr::new(10, 255, 0, 1),
                local_addr: IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1)),
                hold_time: 90,
            },
            Rc::new(Connected),
        );
        if batch > 1 {
            bgp.set_coalesce(batch);
        }
        let bgp_out = Rc::new(RefCell::new(Vec::new()));
        let out = bgp_out.clone();
        bgp.set_rib_output(&mut el, move |_el, _origin, op| out.borrow_mut().push(op));
        for (id, asn) in [(1, 65001), (2, 65002)] {
            bgp.add_peer(
                &mut el,
                PeerConfig::simple(PeerId(id), AsNum(asn)),
                Some(Rc::new(|_el, _update| {})),
            );
            bgp.peering_up(&mut el, PeerId(id));
        }
        el.run_until_idle();
        let mut p = Pipeline {
            el,
            bgp,
            bgp_out,
            rib,
            rib_out,
            fea,
            batch,
            seq: 0,
            counts: Counts::default(),
            log: None,
        };
        p.ship_rib_out();
        p
    }

    fn begin(&mut self, layer: Layer) {
        if let Some(log) = &mut self.log {
            log.begin(layer);
        }
    }

    fn end(&mut self) {
        if let Some(log) = &mut self.log {
            log.end();
        }
    }

    /// Ingest one UPDATE, then ship what BGP emitted as the router's
    /// batcher does: a frame whenever `batch` rows are pending, and the
    /// rest from its deferred flush, which the loop runs before it takes
    /// the next UPDATE.  Frames never span UPDATEs.
    fn update(&mut self, peer: u32, update: UpdateIn<Ipv4Addr>, routes: usize) {
        self.begin(Layer::Bgp);
        self.bgp.apply_update(&mut self.el, PeerId(peer), update);
        self.el.run_until_idle();
        self.end();
        self.counts.routes_in += routes as u64;
        let ops: Vec<Op> = self.bgp_out.borrow_mut().drain(..).collect();
        for chunk in ops.chunks(self.batch) {
            self.hop_rib(chunk);
        }
    }

    /// Ship the RIB's pending output; its batcher, too, flushes after
    /// each frame the RIB applies.
    fn ship_rib_out(&mut self) {
        let ops: Vec<Op> = self.rib_out.borrow_mut().drain(..).collect();
        for chunk in ops.chunks(self.batch) {
            self.hop_fea(chunk);
        }
    }

    /// The frames for `ops`: one per run of same-direction rows.
    fn runs(ops: &[Op]) -> impl Iterator<Item = &[Op]> {
        ops.chunk_by(|a, b| is_add(a) == is_add(b))
    }

    /// Encode one same-direction run as the router's XRL frame would
    /// carry it; returns the encoded frame.
    fn encode(&mut self, hop: Hop, run: &[Op]) -> Vec<u8> {
        let add = is_add(&run[0]);
        let mut args = XrlArgs::new();
        if self.batch == 1 {
            // The per-route methods' positional arguments.
            match (&run[0], hop) {
                (
                    RouteOp::Add { net, route }
                    | RouteOp::Replace {
                        net, new: route, ..
                    },
                    _,
                ) => {
                    let w = RouteWire::from_entry(*net, route);
                    args.push_value(AtomValue::Ipv4Net(w.net));
                    args.push_value(AtomValue::Ipv4(w.nexthop));
                    args.push_value(AtomValue::Text(w.ifname));
                    args.push_value(AtomValue::U32(w.metric));
                    if let Hop::Rib = hop {
                        args.push_value(AtomValue::Text(w.proto.name()));
                    }
                }
                (RouteOp::Delete { net, old }, Hop::Rib) => {
                    args.push_value(AtomValue::Ipv4Net(*net));
                    args.push_value(AtomValue::Text(old.proto.name()));
                }
                (RouteOp::Delete { net, .. }, Hop::Fea) => {
                    args.push_value(AtomValue::Ipv4Net(*net))
                }
            }
        } else {
            let rows = run
                .iter()
                .map(|op| {
                    AtomValue::List(match (op, hop) {
                        (
                            RouteOp::Add { net, route }
                            | RouteOp::Replace {
                                net, new: route, ..
                            },
                            _,
                        ) => xrl_ifaces::add_row(*net, route),
                        (RouteOp::Delete { net, old }, Hop::Rib) => {
                            xrl_ifaces::delete_row(*net, Some(old.proto))
                        }
                        (RouteOp::Delete { net, .. }, Hop::Fea) => {
                            xrl_ifaces::delete_row(*net, None)
                        }
                    })
                })
                .collect();
            args.push_value(AtomValue::List(rows));
        }
        self.seq += 1;
        let frame = Frame::Request {
            seq: self.seq,
            sender: 1,
            target: match hop {
                Hop::Rib => "rib-0",
                Hop::Fea => "fea-0",
            }
            .to_string(),
            key: [0; 16],
            path: String::new(),
            method_id: Some(u32::from(add)),
            args,
            priority: false,
            trace: None,
        };
        let bytes = frame.encode().to_vec();
        self.counts.rows += run.len() as u64;
        self.counts.bytes += bytes.len() as u64;
        bytes
    }

    /// Decode a frame back into wire routes, as the receiving handler
    /// does.  Every frame here was encoded just above, so a decode error
    /// is a codec bug.
    fn decode(&self, hop: Hop, add: bool, bytes: Vec<u8>) -> Vec<Wire> {
        let Frame::Request { args, .. } =
            Frame::decode(bytes[4..].to_vec().into()).expect("frame decodes")
        else {
            panic!("request frame decoded as another kind");
        };
        let proto = |s: String| ProtocolId::from_name(&s).unwrap_or(ProtocolId::Ebgp);
        if self.batch == 1 {
            let net: Ipv4Net = args.get_arg(0, "net").expect("net");
            let w = if add {
                Wire::Add(RouteWire {
                    net,
                    nexthop: args.get_arg(1, "nexthop").expect("nexthop"),
                    ifname: args.get_arg(2, "ifname").expect("ifname"),
                    metric: args.get_arg(3, "metric").expect("metric"),
                    proto: match hop {
                        Hop::Rib => proto(args.get_arg(4, "proto").expect("proto")),
                        Hop::Fea => ProtocolId::Ebgp,
                    },
                })
            } else {
                Wire::Del(
                    net,
                    match hop {
                        Hop::Rib => proto(args.get_arg(1, "proto").expect("proto")),
                        Hop::Fea => ProtocolId::Ebgp,
                    },
                )
            };
            return vec![w];
        }
        let rows: Vec<AtomValue> = args.get_arg(0, "routes").expect("routes");
        if add {
            xrl_ifaces::decode_add_rows(&rows)
                .expect("add rows decode")
                .into_iter()
                .map(Wire::Add)
                .collect()
        } else {
            xrl_ifaces::decode_delete_rows(&rows)
                .expect("delete rows decode")
                .into_iter()
                .map(|(net, proto)| Wire::Del(net, proto))
                .collect()
        }
    }

    /// The RIB handler's conversion of a wire route into a RIB entry.
    fn rib_entry(w: RouteWire) -> Route {
        let mut attrs = PathAttributes::new(IpAddr::V4(w.nexthop));
        attrs.ebgp = w.proto == ProtocolId::Ebgp;
        let mut route = RouteEntry::new(w.net, Arc::new(attrs), w.metric, w.proto);
        if !w.ifname.is_empty() {
            route.ifname = Some(w.ifname.as_str().into());
        }
        route
    }

    /// BGP → RIB: `ops` as frames, through the codec, into the RIB.
    fn hop_rib(&mut self, ops: &[Op]) {
        self.counts.bgp_out += ops.len() as u64;
        for run in Self::runs(ops) {
            let add = is_add(&run[0]);
            self.begin(Layer::Encode);
            let frame = self.encode(Hop::Rib, run);
            self.end();
            self.begin(Layer::Decode);
            let wires = self.decode(Hop::Rib, add, frame);
            self.end();
            self.begin(Layer::Rib);
            if self.batch == 1 {
                for w in wires {
                    match w {
                        Wire::Add(w) => self.rib.add_route(&mut self.el, Self::rib_entry(w)),
                        Wire::Del(net, proto) => {
                            self.rib.delete_route(&mut self.el, proto, net);
                        }
                    }
                }
            } else {
                let batch = wires
                    .into_iter()
                    .map(|w| match w {
                        Wire::Add(w) => BatchOp::Add(Self::rib_entry(w)),
                        Wire::Del(net, proto) => BatchOp::Delete { proto, net },
                    })
                    .collect();
                self.rib.apply_batch(&mut self.el, batch);
            }
            self.el.run_until_idle();
            self.end();
            self.ship_rib_out();
        }
    }

    /// RIB → FEA: `ops` as frames, through the codec, into the FIB.
    fn hop_fea(&mut self, ops: &[Op]) {
        self.counts.rib_out += ops.len() as u64;
        self.counts.rib_replaces += ops
            .iter()
            .filter(|op| matches!(op, RouteOp::Replace { .. }))
            .count() as u64;
        for run in Self::runs(ops) {
            let add = is_add(&run[0]);
            self.begin(Layer::Encode);
            let frame = self.encode(Hop::Fea, run);
            self.end();
            self.begin(Layer::Decode);
            let wires = self.decode(Hop::Fea, add, frame);
            self.end();
            self.begin(Layer::Fea);
            for w in wires {
                match w {
                    Wire::Add(w) => {
                        self.fea.add_route4(FibEntry {
                            net: w.net,
                            nexthop: IpAddr::V4(w.nexthop),
                            ifname: if w.ifname.is_empty() {
                                "eth0".to_string()
                            } else {
                                w.ifname
                            },
                            metric: w.metric,
                        });
                    }
                    Wire::Del(net, _) => {
                        self.fea.delete_route4(&net);
                    }
                }
            }
            self.end();
        }
    }
}

fn nets(s: &[BackboneRoute]) -> Vec<Ipv4Net> {
    s.iter().map(|r| r.net).collect()
}

/// What a phase must leave behind: table counts, and the ops each layer
/// must have emitted during it.
struct Want {
    bgp: usize,
    fib: usize,
    bgp_out: u64,
    rib_out: u64,
    replaces: u64,
}

/// One UPDATE for the replay: peer, message, routes it carries.
type Update = (u32, UpdateIn<Ipv4Addr>, usize);

/// The replay of one workload, with the phases and predictions of the
/// end-to-end run.
struct Replay<'a> {
    p: Pipeline,
    tally: &'a mut Tally,
    out: ReplayOut,
    /// Units of the measured phase run so far.
    units: usize,
}

impl Replay<'_> {
    /// Run one unit of the measured phase.  Even units record spans, odd
    /// ones do not; interleaving them at this grain lets drifts in host
    /// speed hit both alike, so their per-route wall times give the
    /// tracing overhead.
    fn unit(&mut self, body: impl FnOnce(&mut Pipeline)) {
        let traced = self.units.is_multiple_of(2);
        self.units += 1;
        if traced {
            self.p.log = Some(SpanLog::default());
        }
        let base = self.p.counts;
        let t0 = Instant::now();
        body(&mut self.p);
        let ns = t0.elapsed().as_nanos() as f64;
        let d = self.p.counts.since(base);
        match self.p.log.take() {
            Some(log) => {
                let own = log.ns;
                self.out.bgp_ns += own[Layer::Bgp as usize];
                self.out.encode_ns += own[Layer::Encode as usize];
                self.out.decode_ns += own[Layer::Decode as usize];
                self.out.rib_ns += own[Layer::Rib as usize];
                self.out.fea_ns += own[Layer::Fea as usize];
                self.out.counts.add(d);
                self.out.traced_ns += ns;
            }
            None => {
                self.out.plain_ns += ns;
                self.out.plain_routes += d.routes_in;
            }
        }
    }

    /// Run `updates` and check the counts.  `unit` is `Some(n)` for the
    /// measured phase, whose work is cut into units of `n` UPDATEs.
    fn phase(&mut self, what: &str, want: Want, updates: Vec<Update>, unit: Option<usize>) {
        let base = self.p.counts;
        let ops: usize = updates.iter().map(|u| u.2).sum();
        let mut updates = updates.into_iter().peekable();
        while updates.peek().is_some() {
            let group: Vec<Update> = updates.by_ref().take(unit.unwrap_or(usize::MAX)).collect();
            let body = move |p: &mut Pipeline| {
                for (peer, update, routes) in group {
                    p.update(peer, update, routes);
                }
            };
            if unit.is_some() {
                self.unit(body);
            } else {
                body(&mut self.p);
            }
        }
        let c = self.p.counts.since(base);
        let got = (
            self.p.bgp.route_count(),
            self.p.fea.route_count4(),
            self.p.rib.route_count(),
            c.bgp_out,
            c.rib_out,
            c.rib_replaces,
        );
        let expect = (
            want.bgp,
            want.fib,
            want.fib,
            want.bgp_out,
            want.rib_out,
            want.replaces,
        );
        if got == expect {
            self.tally.ok(ops as u64);
        } else {
            self.tally.fail(
                ops as u64,
                format!(
                    "replay {what}: expected (bgp, fib, rib, bgp ops, rib ops, replaces) = {expect:?}, got {got:?}"
                ),
            );
        }
    }
}

fn announce(s: &[BackboneRoute]) -> Vec<Update> {
    s.chunks(UPDATE_ROUTES)
        .map(|c| {
            let update = UpdateIn {
                withdrawn: vec![],
                announce: Some((c[0].attrs.clone(), nets(c))),
            };
            (1, update, c.len())
        })
        .collect()
}

fn backup(s: &[BackboneRoute]) -> Vec<Update> {
    let attrs = backup_attrs();
    s.chunks(UPDATE_ROUTES)
        .map(|c| {
            let update = UpdateIn {
                withdrawn: vec![],
                announce: Some((attrs.clone(), nets(c))),
            };
            (2, update, c.len())
        })
        .collect()
}

fn withdraw(peer: u32, s: &[BackboneRoute]) -> Vec<Update> {
    s.chunks(UPDATE_ROUTES)
        .map(|c| {
            let update = UpdateIn {
                withdrawn: nets(c),
                announce: None,
            };
            (peer, update, c.len())
        })
        .collect()
}

/// Announce and withdraw `pairs` probes, one at a time.
fn probes(pairs: usize) -> Vec<Update> {
    (0..pairs)
        .flat_map(|i| {
            let (peer, net, nexthop) = probe_step(i);
            let attrs = Arc::new(PathAttributes::new(IpAddr::V4(nexthop)));
            let add = UpdateIn {
                withdrawn: vec![],
                announce: Some((attrs, vec![net])),
            };
            let del = UpdateIn {
                withdrawn: vec![net],
                announce: None,
            };
            [(peer, add, 1), (peer, del, 1)]
        })
        .collect()
}

/// Replay workload `w`.  The measured phase is the one whose end-to-end
/// per-route time the budget compares against: the announce flood
/// (`fullfeed`), the probes (`probe`), the churn rounds (`churn`).  Its
/// units are single UPDATEs (one frame per hop each), or probe pairs.
pub fn run(w: Workload, table: &[BackboneRoute], scale: &Scale, tally: &mut Tally) -> ReplayOut {
    let mut r = Replay {
        p: Pipeline::new(w.batch_size()),
        tally,
        out: ReplayOut::default(),
        units: 0,
    };
    let n = table.len();
    let nn = n as u64;
    let full = |bgp_out: u64, rib_out: u64| Want {
        bgp: n,
        fib: n + 1,
        bgp_out,
        rib_out,
        replaces: 0,
    };
    let empty = Want {
        bgp: 0,
        fib: 1,
        bgp_out: nn,
        rib_out: nn,
        replaces: 0,
    };
    match w {
        Workload::FullFeed => {
            r.phase("announce", full(nn, nn), announce(table), Some(1));
            r.phase("withdraw", empty, withdraw(1, table), None);
        }
        Workload::Probe => {
            r.phase("announce", full(nn, nn), announce(table), None);
            let pairs = scale.replay_probes;
            let ops = 2 * pairs as u64;
            r.phase("probes", full(ops, ops), probes(pairs), Some(2));
            r.phase("withdraw", empty, withdraw(1, table), None);
        }
        Workload::Churn => {
            r.phase("announce", full(nn, nn), announce(table), None);
            r.phase(
                "backup announce",
                Want {
                    bgp: 2 * n,
                    ..full(0, 0)
                },
                backup(table),
                None,
            );
            let slices: Vec<&[BackboneRoute]> = table
                .chunks(scale.churn_slice)
                .take(scale.replay_rounds)
                .collect();
            let mm: u64 = slices.iter().map(|s| s.len() as u64).sum();
            // The four churn phases over every slice, checked as one; the
            // end-to-end run checks each phase on its own.
            let want = Want {
                bgp: 2 * n,
                fib: n + 1,
                bgp_out: 3 * mm,
                rib_out: 3 * mm,
                replaces: mm,
            };
            let updates = slices
                .iter()
                .flat_map(|s| [withdraw(1, s), withdraw(2, s), announce(s), backup(s)])
                .flatten()
                .collect();
            r.phase("churn rounds", want, updates, Some(1));
            r.phase(
                "backup withdraw",
                Want {
                    bgp: n,
                    ..full(0, 0)
                },
                withdraw(2, table),
                None,
            );
            r.phase("withdraw", empty, withdraw(1, table), None);
        }
    }
    r.out
}
