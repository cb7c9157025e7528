//! Failure handling across the process boundary: the Finder dying
//! mid-session (§6.2 — every process's watchdog re-registers its targets
//! and watches against the restarted broker), and a protocol process dying
//! (§4.1 — the RIB hears the death through its class watch and withdraws
//! every route the dead protocol originated).

use std::collections::BTreeSet;
use std::time::Duration;

use xorp_harness::stats::{covered_hops, stitch_spans};
use xorp_harness::{backbone_table, test_route, MultiProcessRouter, RouterOptions, WorkloadConfig};
use xorp_profiler::tracing::Span;
use xorp_xrl::FaultConfig;

/// One watchdog period in `crates/harness/src/process.rs` is 100 ms; wait
/// a few of them where repair has to happen.
const REPAIR_WINDOW: Duration = Duration::from_secs(5);

#[test]
fn finder_restart_reregisters_and_bgp_death_withdraws_routes() {
    let mut router = MultiProcessRouter::new(RouterOptions::default());
    let nexthop = "192.168.1.1".parse().unwrap();

    // Converge three EBGP routes (plus the pre-installed connected route).
    for i in 0..3 {
        router.announce_one(1, test_route(i), nexthop);
    }
    assert!(
        router.wait_for(Duration::from_secs(10), || router.rib_route_count() == 4),
        "initial routes never converged (rib={})",
        router.rib_route_count()
    );

    // The Finder dies and restarts with no state.
    router.kill_finder();
    assert!(
        router.finder.instances_of("bgp").is_empty()
            && router.finder.instances_of("rib").is_empty()
            && router.finder.instances_of("fea").is_empty(),
        "kill_finder left registrations behind"
    );

    // Every process's watchdog must re-register within its next ticks.
    assert!(
        router.wait_for(REPAIR_WINDOW, || {
            ["bgp", "rib", "fea"]
                .iter()
                .all(|c| router.finder.instances_of(c).len() == 1)
        }),
        "targets did not re-register after Finder restart: bgp={:?} rib={:?} fea={:?}",
        router.finder.instances_of("bgp"),
        router.finder.instances_of("rib"),
        router.finder.instances_of("fea"),
    );

    // Routing still works through the repaired registrations: a fresh
    // announcement crosses BGP -> RIB -> FEA.
    router.announce_one(1, test_route(5), nexthop);
    assert!(
        router.wait_for(Duration::from_secs(10), || router.rib_route_count() == 5),
        "announcement after Finder restart never reached the RIB (rib={})",
        router.rib_route_count()
    );

    // Give the watchdogs one more full period so the RIB's re-established
    // class watch is guaranteed in place before BGP dies.
    std::thread::sleep(Duration::from_millis(300));

    // BGP dies.  Its targets deregister; the Finder notifies the RIB's
    // watch on class "bgp"; the RIB flushes every EBGP route (§4.1).
    router.kill_bgp();
    assert!(!router.bgp_alive());
    assert!(
        router.wait_for(REPAIR_WINDOW, || router.rib_route_count() == 1
            && router.fea_route_count() == 1),
        "dead protocol's routes were not withdrawn (rib={}, fea={})",
        router.rib_route_count(),
        router.fea_route_count()
    );
    router.stop();
}

/// A Finder restart must not change how the typed hops talk: wire-v2
/// method ids come from the interface declarations, not from Finder
/// state, so once the watchdogs have repaired the registrations a sampled
/// route's context still rides every hop and its trace covers the whole
/// bgp_in → fanout → batch → rib → fea chain.
#[test]
fn traces_cover_every_hop_after_finder_restart() {
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: 8,
        ..Default::default()
    });
    let nexthop = "192.168.1.1".parse().unwrap();
    router.announce_one(1, test_route(0), nexthop);
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 2),
        "initial route never converged (fea={})",
        router.fea_route_count()
    );

    router.kill_finder();
    assert!(
        router.wait_for(REPAIR_WINDOW, || {
            ["bgp", "rib", "fea"]
                .iter()
                .all(|c| router.finder.instances_of(c).len() == 1)
        }),
        "targets did not re-register after Finder restart"
    );
    // One more watchdog period: every router has flushed its resolve
    // cache by then, so the next sends resolve against the new Finder.
    std::thread::sleep(Duration::from_millis(300));

    router.tracer.set_sampling(1);
    router.announce_one(1, test_route(1), nexthop);
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 3),
        "route after Finder restart never reached the FIB (fea={})",
        router.fea_route_count()
    );

    let full_chain: BTreeSet<String> = ["bgp_in", "fanout", "batch", "rib", "fea"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut seen = Vec::new();
    let complete = router.wait_for(Duration::from_secs(10), || {
        let mut all: Vec<Span> = Vec::new();
        for p in ["bgp", "rib", "fea"] {
            all.extend(router.tracer.snapshot(p));
        }
        let views = stitch_spans(all);
        seen = views
            .iter()
            .filter(|v| v.is_root())
            .map(|v| covered_hops(&views, v.trace_id))
            .collect();
        seen.iter().any(|hops| hops.is_superset(&full_chain))
    });
    assert!(
        complete,
        "no trace covered the full chain; hops seen: {seen:?}"
    );
    router.stop();
}

/// The full three-process pipeline still converges — every route exactly
/// once — when every XRL hop runs over a 5%-lossy plan (the harness
/// `fault` knob turns retries on for all processes).
#[test]
fn backbone_feed_converges_over_lossy_xrl_plane() {
    let router = MultiProcessRouter::new(RouterOptions {
        fault: Some(FaultConfig::lossy(0xBEEF, 0.05)),
        ..Default::default()
    });
    let table = backbone_table(&WorkloadConfig {
        routes: 300,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(60), || router.fea_route_count() == 301),
        "lossy feed never converged (fea={} rib={} bgp={})",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count()
    );
    // Exactly once: counts match precisely, nothing double-installed.
    assert_eq!(router.bgp_route_count(), 300);
    assert_eq!(router.rib_route_count(), 301);
    router.stop();
}
