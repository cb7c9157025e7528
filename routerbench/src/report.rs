//! Correctness tally, statistics and the output formats: the per-layer
//! metric set, the budget table, and the final JSON line.

use crate::e2e::E2eOut;
use crate::micro::XrlMicro;
use crate::replay::ReplayOut;
use crate::Workload;

/// Operations attempted and failed, plus every failed check.  A run is
/// correct only when no check failed.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// `ops` operations completed and were checked.
    pub fn ok(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// `ops` operations were attempted and missed their check.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.attempted += ops;
        self.failed += ops;
        self.errors.push(why);
    }

    /// A check not tied to operations of its own (for example the XRL
    /// plane's failure counters).
    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.errors.push(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none (the run's tally then says why).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The result line.  Non-finite values cannot appear in JSON and would
/// mean a broken measurement, so they print as 0.
pub fn json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Every per-layer metric, and the budget table printed on the way.
pub fn per_layer(
    w: Workload,
    e2e: &E2eOut,
    xrl: &XrlMicro,
    wake_us_p50: f64,
    traced: &ReplayOut,
) -> Vec<Metric> {
    let c = &traced.counts;
    let per_route = |ns: f64| ns / c.routes_in.max(1) as f64;
    let layers_us = per_route(
        traced.bgp_ns + traced.encode_ns + traced.decode_ns + traced.rib_ns + traced.fea_ns,
    ) / 1e3;
    let (e2e_us, e2e_label) = match w {
        Workload::FullFeed => (1e6 / median(&e2e.load_rps), "1/load_rps"),
        Workload::Probe => (median(&e2e.probe_add_ms) * 1e3, "probe_add_p50_ms"),
        Workload::Churn => (1e6 / median(&e2e.churn_rps), "1/churn_rps"),
    };
    let unexplained = (e2e_us - layers_us) / e2e_us;

    println!(
        "budget ({}, replay self time per {}, us):",
        w.name(),
        if w == Workload::Probe {
            "probe route"
        } else {
            "route"
        }
    );
    for (layer, ns) in [
        ("bgp", traced.bgp_ns),
        ("codec", traced.encode_ns + traced.decode_ns),
        ("rib", traced.rib_ns),
        ("fea", traced.fea_ns),
    ] {
        println!("  {layer:<28}{:>12.3}", per_route(ns) / 1e3);
    }
    println!("  {:<28}{layers_us:>12.3}", "sum of layers");
    println!(
        "  {:<28}{e2e_us:>12.3}",
        format!("end to end ({e2e_label})")
    );
    println!(
        "  {:<28}{:>12.3}  ({:.1}% of end to end)",
        "remainder",
        e2e_us - layers_us,
        unexplained * 100.0
    );
    println!(
        "  not summed: xrl rtt p50 {:.1} us per {}-route frame, event wake p50 {:.1} us",
        xrl.rtt_us_p50,
        w.batch_size().min(crate::UPDATE_ROUTES),
        wake_us_p50
    );

    let r = &e2e.registry;
    vec![
        metric(
            "bgp.apply_update.us_per_route",
            "us",
            per_route(traced.bgp_ns) / 1e3,
        ),
        metric(
            "bgp.ops_out_per_route_in",
            "ops/route",
            c.bgp_out as f64 / c.routes_in.max(1) as f64,
        ),
        metric("bgp.fanout.queue_len.max", "count", r.fanout_queue_max),
        metric("bgp.fanout.batch_size.p50", "count", r.fanout_batch_p50),
        metric(
            "codec.encode.ns_per_route",
            "ns",
            traced.encode_ns / c.rows.max(1) as f64,
        ),
        metric(
            "codec.decode.ns_per_route",
            "ns",
            traced.decode_ns / c.rows.max(1) as f64,
        ),
        metric(
            "codec.bytes_per_route",
            "B",
            c.bytes as f64 / c.rows.max(1) as f64,
        ),
        metric("xrl.rtt_us.p50", "us", xrl.rtt_us_p50),
        metric("xrl.frames_per_s", "1/s", xrl.frames_per_s),
        metric("bgp.xrl.pending.max", "count", r.bgp_pending_max),
        metric("rib.xrl.pending.max", "count", r.rib_pending_max),
        metric("xrl.failed_total", "count", r.xrl_failed_total),
        metric("event.wake_us.p50", "us", wake_us_p50),
        metric("bgp.event.bulk_depth.max", "count", r.bulk_depth_max[0]),
        metric("rib.event.bulk_depth.max", "count", r.bulk_depth_max[1]),
        metric("fea.event.bulk_depth.max", "count", r.bulk_depth_max[2]),
        metric(
            "rib.apply.us_per_route",
            "us",
            traced.rib_ns / c.bgp_out.max(1) as f64 / 1e3,
        ),
        metric(
            "rib.ops_out_per_route_in",
            "ops/route",
            c.rib_out as f64 / c.bgp_out.max(1) as f64,
        ),
        metric(
            "rib.replace_share",
            "share",
            c.rib_replaces as f64 / c.rib_out.max(1) as f64,
        ),
        metric("rib.batch_size.p50", "count", r.rib_batch_p50),
        metric(
            "fea.install.ns_per_route",
            "ns",
            traced.fea_ns / c.rib_out.max(1) as f64,
        ),
        metric("budget.layers_us_per_route", "us", layers_us),
        metric("budget.e2e_us_per_route", "us", e2e_us),
        metric("budget.unexplained_share", "share", unexplained),
        metric(
            "budget.bgpin_to_kernel_p50_ms",
            "ms",
            median(&e2e.bgpin_kernel_ms),
        ),
        metric(
            "probe.add_p99_ms",
            "ms",
            percentile(&e2e.probe_add_ms, 0.99),
        ),
        metric(
            "probe.del_p99_ms",
            "ms",
            percentile(&e2e.probe_del_ms, 0.99),
        ),
        metric("trace.overhead_share", "share", traced.tracing_overhead()),
    ]
}
