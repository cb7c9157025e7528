//! End-to-end: a route received by BGP crosses two real TCP XRL hops and
//! lands in the FEA's FIB, stamping all eight §8.2 profiling points.

use std::time::Duration;

use xorp_harness::{backbone_table, test_route, MultiProcessRouter, RouterOptions, WorkloadConfig};
use xorp_profiler::{points, MetricValue};

#[test]
fn route_reaches_kernel_with_all_profiling_points() {
    let router = MultiProcessRouter::new(RouterOptions {
        consistency_check: true,
        ..Default::default()
    });
    router.profiler.enable_route_flow();

    // The FEA starts with the pre-installed connected route.
    assert!(router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 1));
    router.announce_one(1, test_route(0), "192.168.1.1".parse().unwrap());
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() >= 2),
        "route never reached the FEA (fea={}, rib={}, bgp={})",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count(),
    );

    for (point, _) in xorp_harness::stats::POINT_LABELS {
        let recs = router.profiler.snapshot(point);
        assert!(
            recs.iter().any(|r| r.payload == "add 10.0.1.0/24"),
            "missing record at {point}"
        );
    }
    // Timestamps are monotone along the pipeline.
    let stamps: Vec<u64> = xorp_harness::stats::POINT_LABELS
        .iter()
        .map(|(p, _)| {
            router
                .profiler
                .snapshot(p)
                .iter()
                .find(|r| r.payload == "add 10.0.1.0/24")
                .unwrap()
                .nanos
        })
        .collect();
    for w in stamps.windows(2) {
        assert!(w[1] >= w[0], "{stamps:?}");
    }
    assert!(router.rib_violations().is_empty());
    router.stop();
}

/// One route path: at batch size 1 a route still crosses BGP→RIB as a
/// one-row `rib/1.0/add_routes` frame (the interface has no per-route
/// method left) and the RIB applies it through `Rib::apply_batch`, whose
/// `batch_size` histogram records one one-op batch per route edit.
#[test]
fn batch_of_one_travels_the_batched_path() {
    let iface = xorp_harness::xrl_ifaces::rib::interface();
    assert!(iface.find("add_routes").is_some() && iface.find("delete_routes").is_some());
    assert!(iface.find("add_route").is_none() && iface.find("delete_route").is_none());

    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: 1,
        ..Default::default()
    });
    let batches = || match router.metrics.get("rib.batch_size") {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum, h.max),
        _ => (0, 0, 0),
    };
    router.announce_one(1, test_route(0), "192.168.1.1".parse().unwrap());
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 2),
        "route never reached the FIB (fea={})",
        router.fea_route_count()
    );
    router.withdraw_one(1, test_route(0));
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 1),
        "withdrawal never reached the FIB (fea={})",
        router.fea_route_count()
    );
    // The announcement and the withdrawal: two batches of one op each.
    assert!(
        router.wait_for(Duration::from_secs(10), || batches() == (2, 2, 1)),
        "rib.batch_size (count, sum, max) = {:?}, want (2, 2, 1)",
        batches()
    );
    router.stop();
}

#[test]
fn withdrawal_removes_from_kernel() {
    let router = MultiProcessRouter::new(RouterOptions::default());
    router.announce_one(1, test_route(5), "192.168.1.1".parse().unwrap());
    assert!(router.wait_for(Duration::from_secs(10), || router.fea_route_count() >= 2));
    router.withdraw_one(1, test_route(5));
    // Only the connected route remains.
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 1),
        "withdrawal never reached the FEA"
    );
    router.stop();
}

#[test]
fn backbone_feed_fills_all_tables() {
    let router = MultiProcessRouter::new(RouterOptions::default());
    let table = backbone_table(&WorkloadConfig {
        routes: 2000,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(30), || router.fea_route_count() >= 2001),
        "fea={} rib={} bgp={}",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count()
    );
    assert_eq!(router.bgp_route_count(), 2000);
    // RIB/FEA hold the backbone routes + the pre-installed connected route.
    assert_eq!(router.rib_route_count(), 2001);
    router.stop();
}

#[test]
fn better_route_from_second_peer_replaces_in_fib() {
    let router = MultiProcessRouter::new(RouterOptions::default());
    // Peer 1's route has the longer path (the harness announce uses an
    // empty AS path, so use two announcements with distinct nexthops and
    // rely on peer-id tie-breaking: peer 1 wins ties).
    router.profiler.enable(points::KERNEL);
    router.announce_one(2, test_route(9), "192.168.1.2".parse().unwrap());
    assert!(router.wait_for(Duration::from_secs(10), || router.fea_route_count() >= 2));
    router.announce_one(1, test_route(9), "192.168.1.1".parse().unwrap());
    // Peer 1 has the lower peer id: it wins the tie, so the FIB entry is
    // replaced — a second kernel install for the same prefix.
    let key = format!("add {}", test_route(9));
    assert!(router.wait_for(Duration::from_secs(10), || {
        router
            .profiler
            .snapshot(points::KERNEL)
            .iter()
            .filter(|r| r.payload == key)
            .count()
            >= 2
    }));
    assert_eq!(router.fea_route_count(), 2);
    router.stop();
}
