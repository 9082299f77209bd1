//! The gateway benchmark: four workloads driven through the program's
//! public entry points (`Gateway`, `ShardedGateway`, and
//! `gw_phy::Appliance` over UDP pairs), every output checked against
//! the reference formats in [`refwire`], and a traced mode that times
//! each layer from the benchmark's own code. See README.md.

pub mod appliance;
pub mod check;
pub mod egress;
pub mod ingress;
pub mod inputs;
pub mod layers;
pub mod reference;
pub mod refwire;
pub mod util;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ATM→FDDI through one `Gateway`, management on.
    AtmIngress,
    /// FDDI→ATM through one `Gateway`, management off.
    FddiEgress,
    /// The `AtmIngress` inputs through a one-shard threaded
    /// `ShardedGateway`.
    ShardedIngress,
    /// `Appliance` over UDP loopback pairs, closed loop.
    ApplianceUdp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AtmIngress,
        Workload::FddiEgress,
        Workload::ShardedIngress,
        Workload::ApplianceUdp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AtmIngress => "atm_ingress",
            Workload::FddiEgress => "fddi_egress",
            Workload::ShardedIngress => "sharded_ingress",
            Workload::ApplianceUdp => "appliance_udp",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// True when every delivered output checked out and the gateway's
    /// books balanced after the drain.
    pub correct: bool,
    /// Frames offered.
    pub attempted: u64,
    /// Frames not delivered intact.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer by run mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// budgets, check findings).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run one workload.
pub fn run(config: &RunConfig) -> Outcome {
    match config.workload {
        Workload::AtmIngress | Workload::ShardedIngress => ingress::run(config),
        Workload::FddiEgress => egress::run(config),
        Workload::ApplianceUdp => appliance::run(config),
    }
}

/// Per-layer metric names with their units, in the order
/// `BENCHMARK.json` lists them. A traced run reports every one; a layer
/// its workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.hec.ns_per_cell", "ns/cell"),
    ("wire.crc10.ns_per_cell", "ns/cell"),
    ("wire.crc32.ns_per_kib", "ns/KiB"),
    ("sar.reassemble.ns_per_cell", "ns/cell"),
    ("sar.segment.ns_per_cell", "ns/cell"),
    ("core.aic.receive.ns_per_cell", "ns/cell"),
    ("core.spp.ingest_cell.ns_per_cell", "ns/cell"),
    ("core.mpp.from_spp.ns_per_frame", "ns/frame"),
    ("core.buffers.tx.ns_per_frame", "ns/frame"),
    ("core.aic.transmit.ns_per_cell", "ns/cell"),
    ("core.spp.fragment.ns_per_cell", "ns/cell"),
    ("core.mpp.from_fddi.ns_per_frame", "ns/frame"),
    ("core.buffers.rx.ns_per_frame", "ns/frame"),
    ("core.deliver_cells.ns_per_cell", "ns/cell"),
    ("core.pop_fddi_tx.ns_per_frame", "ns/frame"),
    ("core.advance_into.ns_per_call", "ns/call"),
    ("core.fddi_frame_in.ns_per_cell", "ns/cell"),
    ("core.glue.ns_per_cell", "ns/cell"),
    ("core.stage_sum.ns_per_cell", "ns/cell"),
    ("core.install_congram.us_per_vc", "us/vc"),
    ("mgmt.ns_per_cell", "ns/cell"),
    ("core.shard.deliver_cells.ns_per_cell", "ns/cell"),
    ("ring.hop.ns", "ns"),
    ("core.shard.advance_into.ns_per_call", "ns/call"),
    ("core.shard.tax.ns_per_cell", "ns/cell"),
    ("phy.appliance.step.us_per_call", "us/call"),
    ("phy.steps_per_frame", "count"),
    ("phy.udp.send.ns_per_datagram", "ns/datagram"),
    ("phy.udp.pump.ns_per_call", "ns/call"),
    ("phy.datagrams_per_frame", "count"),
    ("phy.retransmits_per_datagram", "ratio"),
    ("alloc.per_cell", "count"),
    ("alloc.per_frame", "count"),
    ("core.spp_pool.hit_ratio", "ratio"),
    ("core.mpp_pool.hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// End-to-end metric names with their units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_sec", "cells/s"),
    ("frames_per_sec", "frames/s"),
    ("service_p50_us", "us"),
    ("service_p99_us", "us"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Put a traced run's metrics in [`PER_LAYER`] order, adding 0 for the
/// layers the workload does not exercise.
pub fn complete_per_layer(outcome: &mut Outcome) {
    let measured = std::mem::take(&mut outcome.metrics);
    for &(name, unit) in PER_LAYER {
        let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        outcome.metric(name, value, unit);
    }
}
