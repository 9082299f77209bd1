//! `atm_ingress` and `sharded_ingress`: ATM→FDDI through one gateway.
//!
//! Each batch of cells goes through `deliver_cells`, then
//! `advance_into`, then `pop_fddi_tx` until the transmit buffer is
//! empty; each popped frame is checked and handed back with
//! `recycle_frame`. Host time counts only the calls into the program.

use crate::check::{fddi_delivery, Ledger};
use crate::inputs::{Congram, IngressInputs, CELL_TIME_NS, GATEWAY_STATION, INGRESS_BATCH};
use crate::refwire::{Crc, CELL};
use crate::util::{self, SpanName, Tally, Tracer, Windows};
use crate::{layers, Outcome, RunConfig, Workload};
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::shard::{ShardExecutor, ShardedGateway};
use gw_gateway::GatewayConfig;
use gw_sim::time::SimTime;
use gw_wire::atm::Vci;
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::Icn;
use std::time::Instant;

/// Gateways built (and timed) per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// The calls the ingress loop makes, on either gateway arrangement.
pub trait Ingress {
    /// See [`Gateway::deliver_cells`].
    fn deliver_cells(&mut self, now: SimTime, cells: &[[u8; CELL]], out: &mut Vec<Output>);
    /// See [`Gateway::advance_into`].
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Output>);
    /// See [`Gateway::pop_fddi_tx`].
    fn pop_fddi_tx(&mut self, now: SimTime) -> Option<(Vec<u8>, bool)>;
    /// See [`Gateway::recycle_frame`].
    fn recycle_frame(&mut self, frame: Vec<u8>);
    /// The gateway whose counters, pools and residue the checks read.
    fn gateway(&self) -> &Gateway;
}

impl Ingress for Gateway {
    fn deliver_cells(&mut self, now: SimTime, cells: &[[u8; CELL]], out: &mut Vec<Output>) {
        Gateway::deliver_cells(self, now, cells, out)
    }
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Output>) {
        Gateway::advance_into(self, now, out)
    }
    fn pop_fddi_tx(&mut self, now: SimTime) -> Option<(Vec<u8>, bool)> {
        Gateway::pop_fddi_tx(self, now)
    }
    fn recycle_frame(&mut self, frame: Vec<u8>) {
        Gateway::recycle_frame(self, frame)
    }
    fn gateway(&self) -> &Gateway {
        self
    }
}

impl Ingress for ShardedGateway {
    fn deliver_cells(&mut self, now: SimTime, cells: &[[u8; CELL]], out: &mut Vec<Output>) {
        ShardedGateway::deliver_cells(self, now, cells, out)
    }
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Output>) {
        ShardedGateway::advance_into(self, now, out)
    }
    fn pop_fddi_tx(&mut self, now: SimTime) -> Option<(Vec<u8>, bool)> {
        ShardedGateway::pop_fddi_tx(self, now)
    }
    fn recycle_frame(&mut self, frame: Vec<u8>) {
        ShardedGateway::recycle_frame(self, frame)
    }
    fn gateway(&self) -> &Gateway {
        self.inner()
    }
}

/// The gateway configuration: `gwd`'s (defaults, management plane on)
/// or the same with management off.
pub fn config(management: bool) -> GatewayConfig {
    GatewayConfig {
        management: management.then(gw_mgmt::MgmtConfig::default),
        ..GatewayConfig::default()
    }
}

/// Install `congrams` through `install` (a gateway's
/// `install_congram`); returns the nanoseconds it took.
fn install(congrams: &[Congram], mut install: impl FnMut(Vci, Icn, Icn, FddiAddr, bool)) -> u64 {
    let t = Instant::now();
    for c in congrams {
        install(Vci(c.vci), Icn(c.atm_icn), Icn(c.fddi_icn), FddiAddr::station(c.station), c.sync);
    }
    util::ns_since(t)
}

/// A single-threaded gateway with `congrams`; the install time rides
/// along.
pub fn single(congrams: &[Congram], management: bool) -> (Gateway, u64) {
    let mut gw = Gateway::new(config(management), FddiAddr::station(GATEWAY_STATION), 100_000_000);
    let ns = install(congrams, |v, a, f, d, s| gw.install_congram(v, a, f, d, s));
    (gw, ns)
}

/// A gateway with `shards` SAR shards, each on its own worker thread,
/// with `congrams`.
pub fn sharded(congrams: &[Congram], shards: usize) -> (ShardedGateway, u64) {
    let mut gw = ShardedGateway::new(
        config(true),
        FddiAddr::station(GATEWAY_STATION),
        100_000_000,
        shards,
        ShardExecutor::Threads,
    );
    let ns = install(congrams, |v, a, f, d, s| gw.install_congram(v, a, f, d, s));
    (gw, ns)
}

/// Build the program under test [`SETUP_REPS`] times with `build`
/// (which returns what it built and its install time in ns), timing
/// each build; returns the last build, the build times in seconds and
/// the per-VC install times in microseconds.
pub fn setup<G>(mut build: impl FnMut() -> (G, u64), congrams: usize) -> (G, Vec<f64>, Vec<f64>) {
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut installs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let (gw, install_ns) = build();
        builds.push(t.elapsed().as_secs_f64());
        installs.push(install_ns as f64 / 1e3 / congrams as f64);
        last = Some(gw);
    }
    (last.expect("at least one build"), builds, installs)
}

/// Span names of the per-call spans.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    round: SpanName,
    deliver: SpanName,
    advance: SpanName,
    pop: SpanName,
    recycle: SpanName,
}

impl Spans {
    fn new(tracer: &mut Tracer, sharded: bool) -> Spans {
        let (deliver, advance) = if sharded {
            ("core.shard.deliver_cells", "core.shard.advance_into")
        } else {
            ("core.deliver_cells", "core.advance_into")
        };
        Spans {
            round: tracer.name("round"),
            deliver: tracer.name(deliver),
            advance: tracer.name(advance),
            pop: tracer.name("core.pop_fddi_tx"),
            recycle: tracer.name("core.recycle_frame"),
        }
    }
}

/// Drives rounds of an ingress input through a gateway and checks what
/// comes out.
pub struct Rounds<'a> {
    inputs: &'a IngressInputs,
    crc: &'a Crc,
    ledger: Ledger,
    out: Vec<Output>,
    popped: Vec<Vec<u8>>,
    frame_start: Vec<u64>,
    starts: Vec<u32>,
    order: Vec<(u32, u32)>,
    /// `(frame, FCS)` of each delivery of the last round, in delivery
    /// order.
    pub last_order: Vec<(u32, u32)>,
    /// The single-threaded gateway's delivery order, when checking
    /// that another arrangement reproduces it.
    pub reference: Option<Vec<(u32, u32)>>,
    /// Cells between two `advance_into` calls.
    pub batch: usize,
    /// Cells per `deliver_cells` call within a batch (untraced rounds).
    pub cells_per_call: usize,
    now: SimTime,
    /// Host nanoseconds spent in calls into the program (measured
    /// rounds only).
    pub busy_ns: u64,
    /// Host time per batch.
    pub service: Windows,
    /// Host time from a frame's first batch to its pop.
    pub latency: Windows,
    /// Frames offered.
    pub attempted: u64,
    /// Frames not delivered intact.
    pub failed: u64,
    /// Wrong deliveries and outputs nothing should have produced.
    pub corrupt: u64,
    /// Cells offered in measured rounds.
    pub cells: u64,
    /// Frames delivered intact in measured rounds.
    pub delivered: u64,
    /// Frames popped in measured rounds.
    pub popped_frames: u64,
    /// `(cells/s, frames/s)` of each measured round.
    pub rates: Vec<(f64, f64)>,
}

impl<'a> Rounds<'a> {
    /// Rounds over `inputs`.
    pub fn new(inputs: &'a IngressInputs, crc: &'a Crc) -> Rounds<'a> {
        let n = inputs.frames.len();
        // Frames in order of their first cell, to stamp their start.
        let mut starts: Vec<u32> = (0..n as u32).collect();
        starts.sort_by_key(|&f| inputs.first_cell[f as usize]);
        Rounds {
            inputs,
            crc,
            ledger: Ledger::new(n),
            out: Vec::with_capacity(4 * INGRESS_BATCH),
            popped: Vec::with_capacity(4 * INGRESS_BATCH),
            frame_start: vec![0; n],
            starts,
            order: Vec::with_capacity(2 * n),
            last_order: Vec::with_capacity(2 * n),
            reference: None,
            batch: INGRESS_BATCH,
            cells_per_call: INGRESS_BATCH,
            now: SimTime::ZERO,
            busy_ns: 0,
            service: Windows::new(1 << 16),
            latency: Windows::new(1 << 16),
            attempted: 0,
            failed: 0,
            corrupt: 0,
            cells: 0,
            delivered: 0,
            popped_frames: 0,
            rates: Vec::with_capacity(1 << 16),
        }
    }

    /// One round: every batch of the input, checked. `measure` records
    /// host time and samples; `trace` records spans.
    pub fn round<G: Ingress>(
        &mut self,
        gw: &mut G,
        measure: bool,
        mut trace: Option<(&mut Tracer, Spans)>,
    ) {
        let round = trace.as_mut().map(|(t, s)| {
            let open = t.begin(s.round, u32::MAX);
            (open, t.reserve(open))
        });
        let parent = round.map_or(u32::MAX, |r| r.1);
        let (busy, delivered) = (self.busy_ns, self.delivered);
        let mut next_start = 0;
        let step = SimTime::from_ns(CELL_TIME_NS);
        for (b, batch) in self.inputs.cells.chunks(self.batch).enumerate() {
            let end_cell = (b * self.batch + batch.len()) as u32;
            while next_start < self.starts.len()
                && self.inputs.first_cell[self.starts[next_start] as usize] < end_cell
            {
                self.frame_start[self.starts[next_start] as usize] = self.busy_ns;
                next_start += 1;
            }
            let t0 = Instant::now();
            match trace.as_mut() {
                None => {
                    for cells in batch.chunks(self.cells_per_call) {
                        gw.deliver_cells(self.now, cells, &mut self.out);
                    }
                    gw.advance_into(self.now, &mut self.out);
                    while let Some((f, _)) = gw.pop_fddi_tx(self.now) {
                        self.popped.push(f);
                    }
                }
                Some((t, s)) => {
                    let open = t.begin(s.deliver, parent);
                    gw.deliver_cells(self.now, batch, &mut self.out);
                    t.end(open);
                    let open = t.begin(s.advance, parent);
                    gw.advance_into(self.now, &mut self.out);
                    t.end(open);
                    let open = t.begin(s.pop, parent);
                    while let Some((f, _)) = gw.pop_fddi_tx(self.now) {
                        self.popped.push(f);
                    }
                    t.end(open);
                }
            }
            let t1 = Instant::now();
            if measure {
                self.busy_ns += (t1 - t0).as_nanos() as u64;
            }
            for f in &self.popped {
                let verdict =
                    fddi_delivery(self.crc, &self.inputs.congrams, &self.inputs.frames, f);
                match verdict {
                    Ok((id, fcs)) => {
                        self.ledger.deliver(Some(id), true);
                        self.order.push((id, fcs));
                        if measure {
                            self.latency.push(self.busy_ns - self.frame_start[id as usize]);
                            self.delivered += 1;
                        }
                    }
                    Err(id) => self.ledger.deliver(id, false),
                }
            }
            for o in self.out.drain(..) {
                if !matches!(o, Output::FddiFrameQueued { .. }) {
                    self.corrupt += 1;
                }
            }
            if measure {
                self.popped_frames += self.popped.len() as u64;
            }
            let t2 = Instant::now();
            match trace.as_mut() {
                None => {
                    for f in self.popped.drain(..) {
                        gw.recycle_frame(f);
                    }
                }
                Some((t, s)) => {
                    let open = t.begin(s.recycle, parent);
                    for f in self.popped.drain(..) {
                        gw.recycle_frame(f);
                    }
                    t.end(open);
                }
            }
            let t3 = Instant::now();
            if measure {
                let d = (t1 - t0) + (t3 - t2);
                self.busy_ns += (t3 - t2).as_nanos() as u64;
                self.service.push(d.as_nanos() as u64);
            }
            self.now += SimTime::from_ns(step.as_ns() * batch.len() as u64);
        }
        if let Some(reference) = &self.reference {
            for (i, &(id, fcs)) in self.order.iter().enumerate() {
                if reference.get(i) != Some(&(id, fcs)) {
                    self.ledger.fail(id);
                }
            }
        }
        std::mem::swap(&mut self.order, &mut self.last_order);
        self.order.clear();
        self.attempted += self.inputs.frames.len() as u64;
        self.failed += self.ledger.finish();
        self.corrupt += std::mem::take(&mut self.ledger.corrupt);
        if measure {
            self.cells += self.inputs.cells.len() as u64;
            let s = (self.busy_ns - busy) as f64 / 1e9;
            self.rates.push((
                self.inputs.cells.len() as f64 / s,
                (self.delivered - delivered) as f64 / s,
            ));
        }
        if let (Some((t, _)), Some((open, slot))) = (trace, round) {
            t.close_reserved(open, slot);
        }
    }

    /// A measured round; returns its host time and cells.
    pub fn tallied_round<G: Ingress>(
        &mut self,
        gw: &mut G,
        trace: Option<(&mut Tracer, Spans)>,
    ) -> Tally {
        let (busy, cells) = (self.busy_ns, self.cells);
        self.round(gw, true, trace);
        Tally { busy: self.busy_ns - busy, units: self.cells - cells }
    }

    /// Run timers past every deadline and check the gateway is back to
    /// its ground state with its conservation equations intact.
    pub fn drain<G: Ingress>(&mut self, gw: &mut G) -> Result<(), String> {
        self.now += SimTime::from_ms(100);
        gw.advance_into(self.now, &mut self.out);
        let stray =
            self.out.drain(..).count() + std::iter::from_fn(|| gw.pop_fddi_tx(self.now)).count();
        let residue = gw.gateway().residue();
        let violations = gw.gateway().check_conservation();
        if stray == 0 && residue.is_clean() && violations.is_empty() {
            Ok(())
        } else {
            Err(format!("after drain: {stray} stray outputs, residue {residue:?}, violations {violations:?}"))
        }
    }
}

/// The end-to-end metrics: set-up time (median of the builds), rates
/// (medians over rounds) and the windowed service and latency
/// quantiles.
pub fn end_to_end(
    out: &mut Outcome,
    builds: &mut [f64],
    rates: &[(f64, f64)],
    service: &mut Windows,
    latency: &mut Windows,
) {
    let (service_p50, service_p99) = service.quantiles();
    let (latency_p50, latency_p99) = latency.quantiles();
    let mut cps: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let mut fps: Vec<f64> = rates.iter().map(|r| r.1).collect();
    out.metric("setup_s", util::median(builds), "s");
    // `median` sorted the builds.
    out.notes.push(format!(
        "setup: {} builds, fastest {:.1} us, slowest {:.1} us",
        builds.len(),
        builds.first().map_or(0.0, |s| s * 1e6),
        builds.last().map_or(0.0, |s| s * 1e6)
    ));
    out.metric("cells_per_sec", util::median(&mut cps), "cells/s");
    out.metric("frames_per_sec", util::median(&mut fps), "frames/s");
    // `median` sorted the rates; their spread shows how steady the host was.
    let at = |q: f64| cps.get((q * cps.len() as f64) as usize).copied().unwrap_or(0.0);
    out.notes.push(format!(
        "per-round cells/s: p10 {:.0}, p25 {:.0}, p75 {:.0}, p90 {:.0}",
        at(0.1),
        at(0.25),
        at(0.75),
        at(0.9)
    ));
    out.metric("service_p50_us", service_p50 / 1e3, "us");
    out.metric("service_p99_us", service_p99 / 1e3, "us");
    out.metric("latency_p50_us", latency_p50 / 1e3, "us");
    out.metric("latency_p99_us", latency_p99 / 1e3, "us");
    out.metric("peak_rss_mib", util::peak_rss_mib(), "MiB");
}

/// The delivery order of one round through a fresh single-threaded
/// gateway — the reference the sharded arrangement must reproduce.
pub fn reference_order(inputs: &IngressInputs, crc: &Crc) -> Vec<(u32, u32)> {
    let (mut gw, _) = single(&inputs.congrams, true);
    let mut d = Rounds::new(inputs, crc);
    d.round(&mut gw, false, None);
    std::mem::take(&mut d.last_order)
}

/// Where a traced run writes its spans.
pub fn trace_path(cfg: &RunConfig) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces").join(format!(
        "{}-{}.tsv",
        cfg.workload.name(),
        cfg.seed
    ))
}

/// Run `atm_ingress` or `sharded_ingress`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(cfg.seed, &crc);
    let reference = reference_order(&inputs, &crc);
    let n = inputs.congrams.len();
    if cfg.workload == Workload::ShardedIngress {
        let (gw, builds, installs) = setup(|| sharded(&inputs.congrams, 1), n);
        drive(cfg, &crc, &inputs, gw, builds, installs, reference, || {
            single(&inputs.congrams, true).0
        })
    } else {
        let (gw, builds, installs) = setup(|| single(&inputs.congrams, true), n);
        drive(cfg, &crc, &inputs, gw, builds, installs, reference, || {
            single(&inputs.congrams, false).0
        })
    }
}

/// Measure `gw` on the rounds; in a traced run, also measure
/// `comparator` (management off for `atm_ingress`, the single-threaded
/// gateway for `sharded_ingress`) on the same rounds, and the stages.
#[allow(clippy::too_many_arguments)]
fn drive<G: Ingress, C: Ingress>(
    cfg: &RunConfig,
    crc: &Crc,
    inputs: &IngressInputs,
    mut gw: G,
    mut builds: Vec<f64>,
    mut installs: Vec<f64>,
    reference: Vec<(u32, u32)>,
    comparator: impl FnOnce() -> C,
) -> Outcome {
    let sharded = cfg.workload == Workload::ShardedIngress;
    let mut out = Outcome::default();
    let mut d = Rounds::new(inputs, crc);
    d.reference = Some(reference.clone());
    // Warm-up: pools fill and tables settle before anything is timed.
    d.round(&mut gw, false, None);
    let window = (cfg.seconds * 1e9) as u64;
    let drained;
    if !cfg.trace {
        while d.busy_ns < window {
            d.round(&mut gw, true, None);
        }
        drained = d.drain(&mut gw);
        end_to_end(&mut out, &mut builds, &d.rates, &mut d.service, &mut d.latency);
        out.notes.push(format!(
            "{} rounds; service: {} batches of {INGRESS_BATCH} cells in {} windows; latency: {} frames in {} windows",
            d.rates.len(),
            d.service.len(),
            d.service.windows(),
            d.latency.len(),
            d.latency.windows()
        ));
    } else {
        let mut tracer = Tracer::new(400_000);
        let spans = Spans::new(&mut tracer, sharded);
        let pools = (gw.gateway().spp_pool_stats(), gw.gateway().mpp_pool_stats());
        let mut popped = 0;
        let (traced, plain, allocs) = util::alternate(window / 2, |trace| {
            let before = d.popped_frames;
            let tally = d.tallied_round(&mut gw, trace.then_some((&mut tracer, spans)));
            if trace {
                popped += d.popped_frames - before;
            }
            tally
        });
        let hit_ratio = |before: gw_wire::pool::PoolStats, after: gw_wire::pool::PoolStats| {
            let hits = after.hits - before.hits;
            hits as f64 / (hits + after.misses - before.misses).max(1) as f64
        };
        let spp_hits = hit_ratio(pools.0, gw.gateway().spp_pool_stats());
        let mpp_hits = hit_ratio(pools.1, gw.gateway().mpp_pool_stats());

        // The comparator on the same rounds. Management on and off
        // alternate round by round; the single-threaded gateway runs
        // after the sharded one is gone, so its worker thread does not
        // compete for the cores.
        let mut d2 = Rounds::new(inputs, crc);
        d2.reference = Some(reference);
        let (mut ours, mut theirs) = (Tally::default(), Tally::default());
        if sharded {
            let first = d.drain(&mut gw);
            drop(gw);
            let mut other = comparator();
            d2.round(&mut other, false, None);
            while theirs.busy < window / 4 {
                theirs += d2.tallied_round(&mut other, None);
            }
            drained = first.and(d2.drain(&mut other));
            ours = plain;
        } else {
            let mut other = comparator();
            d2.round(&mut other, false, None);
            while ours.busy < window / 4 || theirs.busy < window / 4 {
                ours += d.tallied_round(&mut gw, None);
                theirs += d2.tallied_round(&mut other, None);
            }
            drained = d.drain(&mut gw).and(d2.drain(&mut other));
        }
        let (ours, compared) = (ours.ns_per_unit(), theirs.ns_per_unit());
        d.attempted += d2.attempted;
        d.failed += d2.failed;
        d.corrupt += d2.corrupt;
        let traced_cells = traced.units;

        let per_cell = |name: SpanName| tracer.total(name).1 as f64 / traced_cells as f64;
        let per_call = |name: SpanName| {
            let (count, ns) = tracer.total(name);
            ns as f64 / count.max(1) as f64
        };
        let deliver = per_cell(spans.deliver);
        let advance = per_call(spans.advance);
        let pop = tracer.total(spans.pop).1 as f64 / popped.max(1) as f64;
        out.metric("alloc.per_cell", allocs as f64 / (traced.units + plain.units) as f64, "count");
        out.metric("trace.overhead_pct", traced.overhead_pct(&plain), "%");
        if sharded {
            out.metric("core.shard.deliver_cells.ns_per_cell", deliver, "ns/cell");
            out.metric("core.shard.advance_into.ns_per_call", advance, "ns/call");
            out.metric("core.shard.tax.ns_per_cell", ours - compared, "ns/cell");
            out.metric("ring.hop.ns", layers::ring_hop(&mut tracer), "ns");
            out.notes.push(format!(
                "ring tax: sharded {ours:.1} ns/cell, single-threaded {compared:.1} ns/cell ({:.2}x)",
                compared / ours
            ));
        } else {
            let stage_sum = layers::ingress(&mut tracer, crc, inputs, &mut out);
            out.metric("core.deliver_cells.ns_per_cell", deliver, "ns/cell");
            out.metric("core.advance_into.ns_per_call", advance, "ns/call");
            out.metric("core.pop_fddi_tx.ns_per_frame", pop, "ns/frame");
            out.metric("core.stage_sum.ns_per_cell", stage_sum, "ns/cell");
            out.metric("core.glue.ns_per_cell", deliver - stage_sum, "ns/cell");
            out.metric("core.install_congram.us_per_vc", util::median(&mut installs), "us/vc");
            out.metric("mgmt.ns_per_cell", ours - compared, "ns/cell");
            out.metric("core.spp_pool.hit_ratio", spp_hits, "ratio");
            out.metric("core.mpp_pool.hit_ratio", mpp_hits, "ratio");
            out.notes.push(format!(
                "budget: deliver_cells {deliver:.1} ns/cell, stage sum {stage_sum:.1} ns/cell ({:.0}% of it), glue {:.1} ns/cell",
                100.0 * stage_sum / deliver,
                deliver - stage_sum
            ));
            out.notes.push(format!("management: on {ours:.1} ns/cell, off {compared:.1} ns/cell"));
        }
        let path = trace_path(cfg);
        match tracer.write(&path) {
            Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    if let Err(e) = &drained {
        out.notes.push(e.clone());
    }
    out.correct = drained.is_ok() && d.corrupt == 0;
    out.attempted = d.attempted;
    out.failed = d.failed;
    out
}
