//! The workloads end to end, through the real three-process router.
//!
//! Every phase is flooded (all UPDATEs posted at once) and then waited
//! on until the router is quiescent and BGP, RIB and FEA hold the counts
//! the benchmark predicts.  Phases never overlap: letting a phase run
//! into the next one lets the fanout coalesce per prefix, and the router
//! then does far less work than the workload claims.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xorp_bgp::bgp::UpdateIn;
use xorp_harness::{test_route, BackboneRoute, MultiProcessRouter, RouterOptions};
use xorp_net::{AsPath, PathAttributes};
use xorp_profiler::{points, MetricValue, Metrics};

use crate::report::{median, metric, percentile, Metric, Tally};
use crate::{Scale, Workload, UPDATE_ROUTES};

/// The benchmark's own profiler point: stamped at the call into
/// `announce_one`/`withdraw_one`, in the same epoch as `route_kernel`.
const BENCH_CALL: &str = "bench_probe_call";
/// Longest a flood may take to reach the FIB, and then to quiesce,
/// before its phase counts as failed.  Together they keep a run that
/// hangs well inside three minutes.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest one probe may take to reach the FIB.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a router may take to install its connected route.
const SETUP_TIMEOUT: Duration = Duration::from_secs(10);
/// Fewest probe pairs after one churn round.
const MIN_CHURN_PROBES: usize = 200;
/// Poll interval while waiting for a flood to reach the FIB: each poll
/// is a call onto the FEA's loop, so fewer polls perturb less.
const FLOOD_POLL: Duration = Duration::from_millis(2);

/// Probe nexthop on the peering that supplied the table (Fig 11).
const SAME_PEER_NEXTHOP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
/// Probe and backup nexthop on the other peering (Fig 12).
const OTHER_PEER_NEXTHOP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 200);

/// Peer 2's attributes for its backup copy of the table: an AS path
/// longer than any the generator gives peer 1 (at most 6), so peer 1
/// always wins and the backup only shows when peer 1 withdraws.
pub fn backup_attrs() -> Arc<PathAttributes> {
    let mut attrs = PathAttributes::new(IpAddr::V4(OTHER_PEER_NEXTHOP));
    attrs.as_path = AsPath::from_sequence(65002..65010);
    Arc::new(attrs)
}

/// The probe for step `i`: even steps on peer 1, odd steps on peer 2,
/// over the paper's 255 test prefixes.
pub fn probe_step(i: usize) -> (u32, xorp_net::Ipv4Net, Ipv4Addr) {
    let net = test_route((i % 255) as u32);
    if i.is_multiple_of(2) {
        (1, net, SAME_PEER_NEXTHOP)
    } else {
        (2, net, OTHER_PEER_NEXTHOP)
    }
}

/// High-water marks and counters from the router's metrics registry,
/// read once after the run.
#[derive(Default, Debug)]
pub struct Registry {
    pub fanout_queue_max: f64,
    pub fanout_batch_p50: f64,
    pub bgp_pending_max: f64,
    pub rib_pending_max: f64,
    /// Sheds plus retransmissions on every process's XRL router.
    pub xrl_failed_total: f64,
    /// `{bgp,rib,fea}.event.bulk_depth` high-water marks.
    pub bulk_depth_max: [f64; 3],
    pub rib_batch_p50: f64,
}

fn gauge_max(m: &Metrics, name: &str) -> f64 {
    match m.get(name) {
        Some(MetricValue::Gauge { max, .. }) => max as f64,
        _ => 0.0,
    }
}

fn counter(m: &Metrics, name: &str) -> u64 {
    match m.get(name) {
        Some(MetricValue::Counter(v)) => v,
        _ => 0,
    }
}

fn histogram_p50(m: &Metrics, name: &str) -> f64 {
    match m.get(name) {
        Some(MetricValue::Histogram(h)) => h.quantile(0.5) as f64,
        _ => 0.0,
    }
}

/// Route operations the RIB has applied through `apply_batch` (the sum
/// of its `batch_size` histogram).  The batched path is the only one
/// that records it, so this counts only when `batch_size > 1`.
fn rib_batched_ops(m: &Metrics) -> u64 {
    match m.get("rib.batch_size") {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0,
    }
}

fn xrl_failures(m: &Metrics) -> u64 {
    ["bgp", "rib", "fea"]
        .iter()
        .map(|p| {
            counter(m, &format!("{p}.xrl.shed_total"))
                + counter(m, &format!("{p}.xrl.retransmit_total"))
        })
        .sum()
}

impl Registry {
    fn read(m: &Metrics) -> Registry {
        Registry {
            fanout_queue_max: gauge_max(m, "bgp.fanout.queue_len"),
            fanout_batch_p50: histogram_p50(m, "bgp.fanout.batch_size"),
            bgp_pending_max: gauge_max(m, "bgp.xrl.pending"),
            rib_pending_max: gauge_max(m, "rib.xrl.pending"),
            xrl_failed_total: xrl_failures(m) as f64,
            bulk_depth_max: [
                gauge_max(m, "bgp.event.bulk_depth"),
                gauge_max(m, "rib.event.bulk_depth"),
                gauge_max(m, "fea.event.bulk_depth"),
            ],
            rib_batch_p50: histogram_p50(m, "rib.batch_size"),
        }
    }
}

/// Raw samples of one end-to-end run.
#[derive(Default)]
pub struct E2eOut {
    pub setup_s: Vec<f64>,
    pub load_rps: Vec<f64>,
    pub withdraw_rps: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub probe_add_ms: Vec<f64>,
    pub probe_del_ms: Vec<f64>,
    pub churn_rps: Vec<f64>,
    /// §8.2 view: BGP ingress to FIB per probe add (traced runs only).
    pub bgpin_kernel_ms: Vec<f64>,
    pub registry: Registry,
}

impl E2eOut {
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", median(&self.setup_s)),
            metric("load_rps", "1/s", median(&self.load_rps)),
            metric("withdraw_rps", "1/s", median(&self.withdraw_rps)),
            metric("rss_mb", "MB", median(&self.rss_mb)),
            metric("probe_add_p50_ms", "ms", median(&self.probe_add_ms)),
            metric("probe_del_p50_ms", "ms", median(&self.probe_del_ms)),
            metric("churn_rps", "1/s", median(&self.churn_rps)),
        ]
    }
}

/// `VmRSS` of this process (the router's threads live in it), in MB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn wait_until(timeout: Duration, poll: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(poll);
    }
}

/// What the router must hold after a phase.  `rib_ops` is cumulative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expect {
    bgp: usize,
    rib: usize,
    fea: usize,
    rib_ops: u64,
}

impl Expect {
    fn after(self, bgp: isize, fib: isize, rib_ops: usize) -> Expect {
        Expect {
            bgp: self
                .bgp
                .checked_add_signed(bgp)
                .expect("bgp count stays positive"),
            rib: self
                .rib
                .checked_add_signed(fib)
                .expect("rib count stays positive"),
            fea: self
                .fea
                .checked_add_signed(fib)
                .expect("fib count stays positive"),
            rib_ops: self.rib_ops + rib_ops as u64,
        }
    }
}

/// One flood: which peer does what with which routes.
enum Flood<'t> {
    Announce(&'t [BackboneRoute]),
    Backup(&'t [BackboneRoute]),
    Withdraw(u32, &'t [BackboneRoute]),
}

struct Bench<'a> {
    router: MultiProcessRouter,
    batched: bool,
    state: Expect,
    tally: &'a mut Tally,
}

impl Bench<'_> {
    /// What the router holds.  Unbatched, the RIB keeps no op count, so
    /// the prediction stands in for it.
    fn counts(&self, want: Expect) -> Expect {
        Expect {
            bgp: self.router.bgp_route_count(),
            rib: self.router.rib_route_count(),
            fea: self.router.fea_route_count(),
            rib_ops: if self.batched {
                rib_batched_ops(&self.router.metrics)
            } else {
                want.rib_ops
            },
        }
    }

    /// Nothing queued or in flight on either hop, seen twice in a row.
    /// Each accessor runs on the owning loop after everything posted
    /// before it, and a sender only clears a request on the reply, which
    /// the receiver sends after applying the frame.
    fn settle(&self) -> bool {
        let r = &self.router;
        let mut streak = 0;
        wait_until(SETTLE_TIMEOUT, Duration::from_micros(200), || {
            let idle = r.bgp_fanout_queue_len() == 0
                && r.bgp_outstanding_xrls() == 0
                && r.rib_fea_backlog() == 0
                && r.rib_outstanding_xrls() == 0;
            streak = if idle { streak + 1 } else { 0 };
            streak >= 2
        })
    }

    /// Settle and compare every count with the prediction.
    fn verify(&mut self, what: &str, ops: u64, want: Expect) -> bool {
        let settled = self.settle();
        let got = self.counts(want);
        if settled && got == want {
            self.tally.ok(ops);
            self.state = want;
            true
        } else {
            self.tally.fail(
                ops,
                format!("{what}: expected {want:?}, router holds {got:?} (settled: {settled})"),
            );
            false
        }
    }

    /// Post one flood and wait for it; returns the seconds until the FIB
    /// count reached its prediction (what `load_rps`/`withdraw_rps` time).
    fn phase(&mut self, what: &str, flood: Flood, want: Expect) -> Option<f64> {
        let t0 = Instant::now();
        let routes = match flood {
            Flood::Announce(s) => {
                for chunk in s.chunks(UPDATE_ROUTES) {
                    self.router.feed_backbone(1, chunk);
                }
                s.len()
            }
            Flood::Backup(s) => {
                let attrs = backup_attrs();
                for chunk in s.chunks(UPDATE_ROUTES) {
                    self.router.apply_update(
                        2,
                        UpdateIn {
                            withdrawn: vec![],
                            announce: Some((attrs.clone(), chunk.iter().map(|r| r.net).collect())),
                        },
                    );
                }
                s.len()
            }
            Flood::Withdraw(peer, s) => {
                for chunk in s.chunks(UPDATE_ROUTES) {
                    self.router.withdraw_backbone(peer, chunk);
                }
                s.len()
            }
        };
        let r = &self.router;
        wait_until(PHASE_TIMEOUT, FLOOD_POLL, || {
            r.fea_route_count() == want.fea
        });
        let fib = t0.elapsed().as_secs_f64();
        if !self.verify(what, routes as u64, want) {
            return None;
        }
        let settled = t0.elapsed().as_secs_f64();
        eprintln!(
            "{what}: {routes} routes, in the FIB after {fib:.3} s, settled after {settled:.3} s"
        );
        Some(fib)
    }

    /// Closed-loop probes, one outstanding: announce, wait for the FIB
    /// stamp, withdraw, wait again.  Only the benchmark's call point and
    /// `route_kernel` (plus `route_bgpin` when traced) are on, and the
    /// kernel ring is drained with `take`, so the probes are not
    /// perturbed by a poller copying the rings.
    fn probes(&mut self, pairs: usize, traced: bool, out: &mut E2eOut) -> bool {
        let prof = self.router.profiler.clone();
        let mut on = vec![BENCH_CALL, points::KERNEL];
        if traced {
            on.push(points::BGP_IN);
        }
        for p in &on {
            prof.enable(p);
            prof.take(p);
        }
        let t0 = Instant::now();
        let mut ok = true;
        'probes: for i in 0..pairs {
            let (peer, net, nexthop) = probe_step(i);
            for add in [true, false] {
                let key = format!("{} {net}", if add { "add" } else { "del" });
                prof.record(BENCH_CALL, || key.clone());
                if add {
                    self.router.announce_one(peer, net, nexthop);
                } else {
                    self.router.withdraw_one(peer, net);
                }
                let mut kernel = None;
                wait_until(PROBE_TIMEOUT, Duration::from_micros(20), || {
                    kernel = prof
                        .take(points::KERNEL)
                        .into_iter()
                        .find(|r| r.payload == key);
                    kernel.is_some()
                });
                let call = prof.take(BENCH_CALL).into_iter().find(|r| r.payload == key);
                let (Some(kernel), Some(call)) = (kernel, call) else {
                    self.tally.fail(
                        1,
                        format!("probe {key} on peer {peer} never reached the FIB"),
                    );
                    ok = false;
                    break 'probes;
                };
                self.tally.ok(1);
                let ms = kernel.nanos.saturating_sub(call.nanos) as f64 / 1e6;
                if add {
                    out.probe_add_ms.push(ms);
                    if let Some(bgp_in) = prof
                        .take(points::BGP_IN)
                        .into_iter()
                        .find(|r| r.payload == key)
                    {
                        out.bgpin_kernel_ms
                            .push(kernel.nanos.saturating_sub(bgp_in.nanos) as f64 / 1e6);
                    }
                } else {
                    out.probe_del_ms.push(ms);
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let n = out.probe_add_ms.len();
        let tail = &out.probe_add_ms[n.saturating_sub(pairs)..];
        eprintln!(
            "probes: {pairs} announce/withdraw pairs in {secs:.3} s, add p50 {:.4} ms p99 {:.4} ms",
            percentile(tail, 0.5),
            percentile(tail, 0.99)
        );
        for p in &on {
            prof.disable(p);
            prof.take(p);
        }
        let want = self.state.after(0, 0, 2 * pairs);
        ok && self.verify("probes", 0, want)
    }
}

/// Time `reps` router set-ups (construction until the connected route is
/// in the FIB) and keep the last router.
fn set_up(
    w: Workload,
    reps: usize,
    out: &mut E2eOut,
    tally: &mut Tally,
) -> Option<MultiProcessRouter> {
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(r) = kept.take() {
            MultiProcessRouter::stop(r);
        }
        let t0 = Instant::now();
        let r = MultiProcessRouter::new(RouterOptions {
            batch_size: w.batch_size(),
            ..RouterOptions::default()
        });
        if !wait_until(SETUP_TIMEOUT, Duration::from_micros(100), || {
            r.fea_route_count() == 1
        }) {
            tally.fail(
                1,
                "set-up: the connected route never reached the FIB".into(),
            );
            r.stop();
            return None;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        tally.ok(1);
        kept = Some(r);
    }
    kept
}

/// Run workload `w`: `repeats` load/probe/withdraw cycles (`fullfeed`,
/// `probe`) or churn rounds (`churn`).
pub fn run(
    w: Workload,
    table: &[BackboneRoute],
    scale: &Scale,
    repeats: usize,
    traced: bool,
    tally: &mut Tally,
) -> E2eOut {
    let mut out = E2eOut::default();
    let Some(router) = set_up(w, scale.setup_reps, &mut out, tally) else {
        return out;
    };
    let mut b = Bench {
        router,
        batched: w.batch_size() > 1,
        state: Expect {
            bgp: 0,
            rib: 1,
            fea: 1,
            rib_ops: 0,
        },
        tally,
    };
    let pairs = scale.probe_pairs(w);
    match w {
        Workload::FullFeed | Workload::Probe => feed_cycles(
            &mut b,
            table,
            pairs,
            repeats,
            w == Workload::FullFeed,
            traced,
            &mut out,
        ),
        Workload::Churn => churn(
            &mut b,
            table,
            scale.churn_slice,
            pairs,
            repeats,
            traced,
            &mut out,
        ),
    }
    let failures = xrl_failures(&b.router.metrics);
    b.tally.check(failures == 0, || {
        format!("{failures} XRLs were shed or retransmitted")
    });
    if traced {
        out.registry = Registry::read(&b.router.metrics);
    }
    b.router.stop();
    out
}

/// `fullfeed` and `probe`: load the table, probe it, withdraw it, and
/// (`probe_empty`) probe the empty table too.  Probe latency depends on
/// which cores the loop threads share, and only a flood reshuffles that,
/// so probing after every flood samples twice as many placements.
fn feed_cycles(
    b: &mut Bench,
    table: &[BackboneRoute],
    pairs: usize,
    cycles: usize,
    probe_empty: bool,
    traced: bool,
    out: &mut E2eOut,
) {
    let n = table.len();
    for _ in 0..cycles {
        let want = b.state.after(n as isize, n as isize, n);
        let Some(load) = b.phase("announce", Flood::Announce(table), want) else {
            return;
        };
        out.load_rps.push(n as f64 / load);
        out.rss_mb.push(rss_mb());
        if !b.probes(pairs, traced, out) {
            return;
        }
        let want = b.state.after(-(n as isize), -(n as isize), n);
        let Some(wd) = b.phase("withdraw", Flood::Withdraw(1, table), want) else {
            return;
        };
        out.withdraw_rps.push(n as f64 / wd);
        out.churn_rps.push(2.0 * n as f64 / (load + wd));
        if probe_empty && !b.probes(pairs, traced, out) {
            return;
        }
    }
}

/// `churn`: peer 1 best, peer 2 backup, then rounds over table slices,
/// then both withdraw.
fn churn(
    b: &mut Bench,
    table: &[BackboneRoute],
    slice: usize,
    pairs: usize,
    rounds: usize,
    traced: bool,
    out: &mut E2eOut,
) {
    let n = table.len() as isize;
    let want = b.state.after(n, n, n as usize);
    if b.phase("announce", Flood::Announce(table), want).is_none() {
        return;
    }
    out.rss_mb.push(rss_mb());
    let want = b.state.after(n, 0, 0);
    if b.phase("backup announce", Flood::Backup(table), want)
        .is_none()
    {
        return;
    }
    // Probes follow every round: each flood reshuffles where the loop
    // threads run, and probe latency depends on that placement, so the
    // probes sample as many placements as the run has rounds.
    let pairs = (pairs / rounds).max(MIN_CHURN_PROBES);
    for s in table.chunks(slice).cycle().take(rounds) {
        let r0 = Instant::now();
        let m = s.len() as isize;
        let u = s.len();
        let steps = [
            (
                "churn: best withdrawn, backup takes over",
                Flood::Withdraw(1, s),
                -m,
                0,
                u,
            ),
            ("churn: backup withdrawn", Flood::Withdraw(2, s), -m, -m, u),
            ("churn: best re-announced", Flood::Announce(s), m, m, u),
            ("churn: backup re-announced", Flood::Backup(s), m, 0, 0),
        ];
        let mut fib_secs = [0.0; 4];
        for (i, (what, flood, bgp, fib, ops)) in steps.into_iter().enumerate() {
            let want = b.state.after(bgp, fib, ops);
            let Some(secs) = b.phase(what, flood, want) else {
                return;
            };
            fib_secs[i] = secs;
        }
        out.churn_rps
            .push(4.0 * u as f64 / r0.elapsed().as_secs_f64());
        // The round's FIB deletions and FIB additions are this workload's
        // withdrawal and load.
        out.withdraw_rps.push(u as f64 / fib_secs[1]);
        out.load_rps.push(u as f64 / fib_secs[2]);
        if !b.probes(pairs, traced, out) {
            return;
        }
    }
    let want = b.state.after(-n, 0, 0);
    if b.phase("backup withdraw", Flood::Withdraw(2, table), want)
        .is_none()
    {
        return;
    }
    let want = b.state.after(-n, -n, n as usize);
    b.phase("withdraw", Flood::Withdraw(1, table), want);
}
