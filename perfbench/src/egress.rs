//! `fddi_egress`: FDDI→ATM through one gateway, management off. Each
//! frame goes through `fddi_frame_in`; the cells it returns are
//! checked as the frame's delivery.

use crate::check::{atm_delivery, Ledger};
use crate::inputs::{EgressInputs, SizeClass, FDDI_OCTET_NS};
use crate::refwire::Crc;
use crate::util::{self, Tally, Tracer, Windows};
use crate::{ingress, layers, Outcome, RunConfig};
use gw_gateway::gateway::{Gateway, Output};
use gw_sim::time::SimTime;
use std::time::Instant;

/// Drives rounds of egress input through a gateway and checks the
/// cells.
pub struct Rounds<'a> {
    inputs: &'a EgressInputs,
    crc: &'a Crc,
    ledger: Ledger,
    now: SimTime,
    /// Host nanoseconds inside `fddi_frame_in` (measured rounds).
    pub busy_ns: u64,
    /// Host time per `fddi_frame_in`.
    pub service: Windows,
    /// Host nanoseconds per size class: small, mid, max.
    pub class_ns: [u64; 3],
    /// Frames offered.
    pub attempted: u64,
    /// Frames not delivered intact.
    pub failed: u64,
    /// Wrong deliveries.
    pub corrupt: u64,
    /// Cells emitted in measured rounds.
    pub cells: u64,
    /// Frames delivered intact in measured rounds.
    pub delivered: u64,
    /// `(cells/s, frames/s)` of each measured round.
    pub rates: Vec<(f64, f64)>,
}

impl<'a> Rounds<'a> {
    /// Rounds over `inputs`.
    pub fn new(inputs: &'a EgressInputs, crc: &'a Crc) -> Rounds<'a> {
        Rounds {
            inputs,
            crc,
            ledger: Ledger::new(inputs.frames.len()),
            now: SimTime::ZERO,
            busy_ns: 0,
            service: Windows::new(1 << 16),
            class_ns: [0; 3],
            attempted: 0,
            failed: 0,
            corrupt: 0,
            cells: 0,
            delivered: 0,
            rates: Vec::with_capacity(1 << 16),
        }
    }

    /// One round, every frame checked; `measure` records host time,
    /// `trace` one span per call.
    pub fn round(&mut self, gw: &mut Gateway, measure: bool, mut trace: Option<&mut Tracer>) {
        let span = trace.as_mut().map(|t| t.name("core.fddi_frame_in"));
        let (busy, cells, delivered) = (self.busy_ns, self.cells, self.delivered);
        for (id, f) in self.inputs.frames.iter().enumerate() {
            let t0 = Instant::now();
            let out = match (trace.as_mut(), span) {
                (Some(t), Some(span)) => {
                    let open = t.begin(span, u32::MAX);
                    let out = gw.fddi_frame_in(self.now, &f.fddi);
                    t.end(open);
                    out
                }
                _ => gw.fddi_frame_in(self.now, &f.fddi),
            };
            let ns = util::ns_since(t0);
            let cells = out.iter().filter_map(|o| match o {
                Output::AtmCell { cell, .. } => Some(cell),
                _ => None,
            });
            let ok = out.iter().all(|o| matches!(o, Output::AtmCell { .. }))
                && atm_delivery(self.crc, &self.inputs.congrams, &f.data, cells);
            // No cells at all is a lost frame, which the ledger counts
            // missing; cells that do not check out are a wrong delivery.
            if !out.is_empty() {
                self.ledger.deliver(Some(id as u32), ok);
            }
            if measure {
                self.busy_ns += ns;
                self.service.push(ns);
                let class = match f.class {
                    SizeClass::Small => 0,
                    SizeClass::Mid => 1,
                    SizeClass::Max => 2,
                };
                self.class_ns[class] += ns;
                self.cells += out.len() as u64;
                self.delivered += ok as u64;
            }
            self.now += SimTime::from_ns(f.fddi.len() as u64 * FDDI_OCTET_NS);
        }
        if measure {
            let s = (self.busy_ns - busy) as f64 / 1e9;
            self.rates
                .push(((self.cells - cells) as f64 / s, (self.delivered - delivered) as f64 / s));
        }
        self.attempted += self.inputs.frames.len() as u64;
        self.failed += self.ledger.finish();
        self.corrupt += std::mem::take(&mut self.ledger.corrupt);
    }

    /// Run timers past every deadline and check the gateway is back to
    /// its ground state with its conservation equations intact.
    pub fn drain(&mut self, gw: &mut Gateway) -> Result<(), String> {
        self.now += SimTime::from_ms(100);
        let stray = gw.advance(self.now).len();
        let residue = gw.residue();
        let violations = gw.check_conservation();
        if stray == 0 && residue.is_clean() && violations.is_empty() {
            Ok(())
        } else {
            Err(format!("after drain: {stray} stray outputs, residue {residue:?}, violations {violations:?}"))
        }
    }
}

/// Run `fddi_egress`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let crc = Crc::new();
    let inputs = EgressInputs::generate(cfg.seed, &crc);
    let (mut gw, mut builds, _) =
        ingress::setup(|| ingress::single(&inputs.congrams, false), inputs.congrams.len());
    let mut d = Rounds::new(&inputs, &crc);
    d.round(&mut gw, false, None);
    let window = (cfg.seconds * 1e9) as u64;
    let mut out = Outcome::default();
    if !cfg.trace {
        while d.busy_ns < window {
            d.round(&mut gw, true, None);
        }
        // A frame's cells are all out when `fddi_frame_in` returns:
        // its latency is its service time.
        let mut latency = d.service.clone();
        ingress::end_to_end(&mut out, &mut builds, &d.rates, &mut d.service, &mut latency);
        out.notes.push(format!(
            "{} rounds; service: {} frames in {} windows",
            d.rates.len(),
            d.service.len(),
            d.service.windows()
        ));
    } else {
        let mut tracer = Tracer::new(400_000);
        let span = tracer.name("core.fddi_frame_in");
        let mpp = gw.mpp_pool_stats();
        let (traced, plain, allocs) = util::alternate(window / 2, |trace| {
            let (busy, cells) = (d.busy_ns, d.cells);
            d.round(&mut gw, true, trace.then_some(&mut tracer));
            Tally { busy: d.busy_ns - busy, units: d.cells - cells }
        });
        let after = gw.mpp_pool_stats();
        let hits = after.hits - mpp.hits;
        let frame_in = tracer.total(span).1 as f64 / traced.units as f64;
        let stage_sum = layers::egress(&mut tracer, &crc, &inputs, &mut out);
        out.metric("core.fddi_frame_in.ns_per_cell", frame_in, "ns/cell");
        out.metric("alloc.per_cell", allocs as f64 / (traced.units + plain.units) as f64, "count");
        out.metric(
            "core.mpp_pool.hit_ratio",
            hits as f64 / (hits + after.misses - mpp.misses).max(1) as f64,
            "ratio",
        );
        out.metric("trace.overhead_pct", traced.overhead_pct(&plain), "%");
        out.notes.push(format!(
            "budget: fddi_frame_in {frame_in:.1} ns/cell, stage sum {stage_sum:.1} ns/cell ({:.0}% of it)",
            100.0 * stage_sum / frame_in
        ));
        let path = ingress::trace_path(cfg);
        match tracer.write(&path) {
            Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let total: u64 = d.class_ns.iter().sum();
    out.notes.push(format!(
        "host time by size class: 1-cell {:.0}%, mid {:.0}%, max {:.0}%",
        100.0 * d.class_ns[0] as f64 / total as f64,
        100.0 * d.class_ns[1] as f64 / total as f64,
        100.0 * d.class_ns[2] as f64 / total as f64
    ));
    let drained = d.drain(&mut gw);
    if let Err(e) = &drained {
        out.notes.push(e.clone());
    }
    out.correct = drained.is_ok() && d.corrupt == 0;
    out.attempted = d.attempted;
    out.failed = d.failed;
    out
}
