//! `appliance_udp`: `gw_phy::Appliance` between two UDP loopback pairs,
//! the line-side peers played by the benchmark in the same thread.
//! Closed loop: one frame in flight, alternating ATM→FDDI and
//! FDDI→ATM; the next frame leaves only once the last one has arrived
//! and checked out.

use crate::check::{atm_delivery, fddi_delivery, Ledger};
use crate::inputs::{ApplianceInputs, Offer, CELL_TIME_NS, FDDI_OCTET_NS};
use crate::refwire::{Crc, CELL};
use crate::util::{self, SpanName, Tally, Tracer, Windows};
use crate::{ingress, Outcome, RunConfig};
use gw_gateway::gateway::{Gateway, Output};
use gw_phy::{
    udp_cell_pair, udp_frame_pair, Appliance, ApplianceConfig, CellPhy, CongramSpec, FramePhy,
    PhyStats, TransportFaultConfig, UdpCellPhy, UdpFramePhy,
};
use gw_sim::time::SimTime;
use std::time::Instant;

/// Steps without progress after which a frame counts as lost.
const STEP_LIMIT: u32 = 10_000;
/// Gateway time one appliance step stands for.
const STEP_TIME: SimTime = SimTime::from_us(1);

/// The appliance and the benchmark's two line-side peers.
pub struct Rig {
    /// The appliance under test.
    pub app: Appliance,
    /// The ATM peer.
    pub cell_line: UdpCellPhy,
    /// The FDDI peer.
    pub frame_line: UdpFramePhy,
}

/// Bind both UDP pairs, assemble the appliance (management on, as
/// `gwd` runs it) and install the congrams.
pub fn rig(inputs: &ApplianceInputs) -> std::io::Result<Rig> {
    let faults = TransportFaultConfig::none();
    let (cell_gw, cell_line) = udp_cell_pair(&faults)?;
    let (frame_gw, frame_line) = udp_frame_pair(&faults)?;
    let mut app =
        Appliance::new(ingress::config(true), 100_000_000, Box::new(cell_gw), Box::new(frame_gw));
    let congrams = inputs
        .congrams
        .iter()
        .map(|c| CongramSpec {
            vci: c.vci,
            atm_icn: c.atm_icn,
            fddi_icn: c.fddi_icn,
            station: c.station,
            synchronous: c.sync,
        })
        .collect();
    app.apply_config(&ApplianceConfig { congrams });
    Ok(Rig { app, cell_line, frame_line })
}

#[derive(Debug, Clone, Copy)]
struct Spans {
    step: SpanName,
    send: SpanName,
    pump: SpanName,
    poll: SpanName,
    advance: SpanName,
}

/// Drives rounds of appliance input through a [`Rig`].
pub struct Rounds<'a> {
    inputs: &'a ApplianceInputs,
    crc: &'a Crc,
    ledger: Ledger,
    now: SimTime,
    frames_rx: Vec<(SimTime, Vec<u8>, bool)>,
    cells_rx: Vec<(SimTime, [u8; CELL])>,
    advance_out: Vec<Output>,
    send_buf: Vec<u8>,
    /// Host nanoseconds of the measured frames, end to end.
    pub busy_ns: u64,
    /// Per exchange (an ATM→FDDI frame and the FDDI→ATM frame after
    /// it): host time inside `Appliance::step`.
    pub service: Windows,
    exchange_ns: u64,
    /// Per frame: first datagram sent to delivery checked.
    pub latency: Windows,
    /// Appliance steps in measured rounds.
    pub steps: u64,
    /// Datagrams the peers sent in measured rounds.
    pub peer_datagrams: u64,
    /// Frames offered.
    pub attempted: u64,
    /// Frames not delivered intact.
    pub failed: u64,
    /// Wrong deliveries.
    pub corrupt: u64,
    /// ATM cells through the appliance's cell port in measured rounds.
    pub cells: u64,
    /// Frames delivered intact in measured rounds.
    pub delivered: u64,
    /// `(cells/s, frames/s)` of each measured round.
    pub rates: Vec<(f64, f64)>,
    /// Service and latency of ATM→FDDI frames, then of FDDI→ATM ones.
    pub by_direction: [(Windows, Windows); 2],
}

impl<'a> Rounds<'a> {
    /// Rounds over `inputs`.
    pub fn new(inputs: &'a ApplianceInputs, crc: &'a Crc) -> Rounds<'a> {
        Rounds {
            inputs,
            crc,
            ledger: Ledger::new(inputs.frames.len()),
            now: SimTime::ZERO,
            frames_rx: Vec::with_capacity(16),
            cells_rx: Vec::with_capacity(256),
            advance_out: Vec::with_capacity(16),
            send_buf: Vec::with_capacity(crate::refwire::FDDI_MAX),
            busy_ns: 0,
            service: Windows::new(1 << 16),
            exchange_ns: 0,
            latency: Windows::new(1 << 16),
            steps: 0,
            peer_datagrams: 0,
            attempted: 0,
            failed: 0,
            corrupt: 0,
            cells: 0,
            delivered: 0,
            rates: Vec::with_capacity(1 << 16),
            by_direction: std::array::from_fn(|_| (Windows::new(1 << 16), Windows::new(1 << 16))),
        }
    }

    /// One round, every frame checked at the far peer.
    fn round(&mut self, rig: &mut Rig, measure: bool, mut trace: Option<(&mut Tracer, Spans)>) {
        macro_rules! span {
            ($name:ident, $call:expr) => {
                match trace.as_mut() {
                    None => $call,
                    Some((t, s)) => {
                        let open = t.begin(s.$name, u32::MAX);
                        let r = $call;
                        t.end(open);
                        r
                    }
                }
            };
        }
        let (busy, cells, delivered) = (self.busy_ns, self.cells, self.delivered);
        for (id, (frame, offer)) in self.inputs.frames.iter().zip(&self.inputs.offers).enumerate() {
            // The line delivers the frame at its wire time.
            self.now += match offer {
                Offer::Cells(cells) => SimTime::from_ns(cells.len() as u64 * CELL_TIME_NS),
                Offer::Frame(bytes) => SimTime::from_ns(bytes.len() as u64 * FDDI_OCTET_NS),
            };
            let (mut step_ns, mut steps) = (0u64, 0u32);
            let t0 = Instant::now();
            let sent = match offer {
                Offer::Cells(cells) => {
                    let mut ok = true;
                    for c in cells {
                        ok &= span!(send, rig.cell_line.send_cell(self.now, c)).is_ok();
                    }
                    ok
                }
                Offer::Frame(bytes) => {
                    // The UDP phy copies a frame and hands the buffer back,
                    // so one buffer serves every send.
                    let mut buf = std::mem::take(&mut self.send_buf);
                    buf.clear();
                    buf.extend_from_slice(bytes);
                    match span!(send, rig.frame_line.send_frame(self.now, buf, false)) {
                        Ok(back) => {
                            self.send_buf = back.unwrap_or_default();
                            true
                        }
                        Err(_) => false,
                    }
                }
            };
            let mut arrived = false;
            while sent && !arrived && steps < STEP_LIMIT {
                let s0 = Instant::now();
                span!(step, rig.app.step(self.now));
                step_ns += util::ns_since(s0);
                steps += 1;
                if trace.is_some() {
                    // The appliance's own timer pass, replayed at the same
                    // instant on its gateway (idle: `step` just ran it).
                    span!(
                        advance,
                        rig.app.gateway_mut().advance_into(self.now, &mut self.advance_out)
                    );
                    self.corrupt += self.advance_out.drain(..).count() as u64;
                }
                self.now += STEP_TIME;
                let polled = match offer {
                    Offer::Cells(_) => {
                        let a = span!(pump, rig.frame_line.pump(self.now));
                        let b = span!(poll, rig.frame_line.poll_frames(&mut self.frames_rx));
                        let c = span!(pump, rig.cell_line.pump(self.now));
                        arrived = !self.frames_rx.is_empty();
                        a.and(b).and(c)
                    }
                    Offer::Frame(_) => {
                        let a = span!(pump, rig.cell_line.pump(self.now));
                        let b = span!(poll, rig.cell_line.poll_cells(&mut self.cells_rx));
                        let c = span!(pump, rig.frame_line.pump(self.now));
                        arrived = self.cells_rx.len()
                            >= crate::refwire::cells_for(8 + frame.payload.len());
                        a.and(b).and(c)
                    }
                };
                if polled.is_err() {
                    break;
                }
            }
            let ok = match offer {
                Offer::Cells(cells) => {
                    let mut ok = self.frames_rx.len() == 1;
                    for (_, bytes, _) in self.frames_rx.drain(..) {
                        let v = fddi_delivery(
                            self.crc,
                            &self.inputs.congrams,
                            &self.inputs.frames,
                            &bytes,
                        );
                        ok &= v.map(|(got, _)| got) == Ok(id as u32);
                    }
                    if measure {
                        self.cells += cells.len() as u64;
                    }
                    ok
                }
                Offer::Frame(_) => {
                    let ok = atm_delivery(
                        self.crc,
                        &self.inputs.congrams,
                        frame,
                        self.cells_rx.iter().map(|(_, c)| c),
                    );
                    if measure {
                        self.cells += self.cells_rx.len() as u64;
                    }
                    self.cells_rx.clear();
                    ok
                }
            };
            let ns = util::ns_since(t0);
            // A frame that never arrived is left for the ledger to count
            // missing; one that arrived wrong is a wrong delivery.
            if arrived {
                self.ledger.deliver(Some(id as u32), ok);
            }
            if measure {
                self.busy_ns += ns;
                self.latency.push(ns);
                // Service counts per exchange: an ATM→FDDI frame and the
                // FDDI→ATM frame after it (the two directions cost
                // different amounts, so per frame the median would sit
                // between two clusters).
                if id % 2 == 0 {
                    self.exchange_ns = step_ns;
                } else {
                    self.service.push(self.exchange_ns + step_ns);
                }
                let dir = matches!(offer, Offer::Frame(_)) as usize;
                self.by_direction[dir].0.push(step_ns);
                self.by_direction[dir].1.push(ns);
                self.steps += steps as u64;
                self.peer_datagrams += match offer {
                    Offer::Cells(cells) => cells.len() as u64,
                    Offer::Frame(_) => 1,
                };
                self.delivered += (ok && arrived) as u64;
            }
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

    /// Keep stepping and pumping until nothing is in flight anywhere,
    /// then check the gateway is back to its ground state with its
    /// conservation equations intact and nothing stray reached a peer.
    fn drain(&mut self, rig: &mut Rig) -> Result<(), String> {
        for _ in 0..STEP_LIMIT {
            rig.app.step(self.now);
            self.now += STEP_TIME;
            let pumped = rig.cell_line.pump(self.now).and(rig.frame_line.pump(self.now));
            let polled = rig
                .cell_line
                .poll_cells(&mut self.cells_rx)
                .and(rig.frame_line.poll_frames(&mut self.frames_rx));
            if pumped.and(polled).is_err() {
                break;
            }
            if rig.app.is_quiescent()
                && rig.cell_line.in_flight() == 0
                && rig.frame_line.in_flight() == 0
            {
                break;
            }
        }
        let stray = self.cells_rx.len() + self.frames_rx.len();
        let gw: &Gateway = rig.app.gateway();
        let residue = gw.residue();
        let violations = gw.check_conservation();
        let quiet = rig.app.is_quiescent()
            && rig.cell_line.in_flight() == 0
            && rig.frame_line.in_flight() == 0;
        if quiet && stray == 0 && residue.is_clean() && violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "after drain: quiescent {quiet}, {stray} stray deliveries, residue {residue:?}, violations {violations:?}"
            ))
        }
    }
}

/// Transport counters over both ends of both pairs.
fn transport_stats(rig: &Rig) -> PhyStats {
    let mut s = rig.app.transport_stats();
    s.merge(&rig.cell_line.stats());
    s.merge(&rig.frame_line.stats());
    s
}

/// `fddi_frame_in` replayed on a fresh gateway over the round's
/// FDDI→ATM frames (the appliance calls it inside `step`, out of the
/// benchmark's reach): ns per cell out.
fn fddi_frame_in_replay(tracer: &mut Tracer, inputs: &ApplianceInputs) -> f64 {
    let (mut gw, _) = ingress::single(&inputs.congrams, true);
    let span = tracer.name("replay.core.fddi_frame_in");
    let (mut ns, mut cells) = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    while ns < 150_000_000 {
        for offer in &inputs.offers {
            if let Offer::Frame(bytes) = offer {
                now += SimTime::from_ns(bytes.len() as u64 * FDDI_OCTET_NS);
                let open = tracer.begin(span, u32::MAX);
                let out = gw.fddi_frame_in(now, bytes);
                ns += tracer.end(open).0;
                cells += out.len() as u64;
            }
        }
    }
    ns as f64 / cells as f64
}

/// Run `appliance_udp`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let crc = Crc::new();
    let inputs = ApplianceInputs::generate(cfg.seed, &crc);
    let (mut rig, mut builds, _) = ingress::setup(
        || (rig(&inputs).expect("bind UDP loopback pairs"), 0),
        inputs.congrams.len(),
    );
    let mut d = Rounds::new(&inputs, &crc);
    d.round(&mut rig, false, None);
    let window = (cfg.seconds * 1e9) as u64;
    let mut out = Outcome::default();
    if !cfg.trace {
        while d.busy_ns < window {
            d.round(&mut rig, true, None);
        }
        ingress::end_to_end(&mut out, &mut builds, &d.rates, &mut d.service, &mut d.latency);
        out.notes.push(format!(
            "{} rounds; latency and service: {} frames in {} windows",
            d.rates.len(),
            d.latency.len(),
            d.latency.windows()
        ));
        for (name, (service, latency)) in ["ATM->FDDI", "FDDI->ATM"].iter().zip(&mut d.by_direction)
        {
            let ((s50, s99), (l50, l99)) = (service.quantiles(), latency.quantiles());
            out.notes.push(format!(
                "{name}: service p50 {:.1} us p99 {:.1} us, latency p50 {:.1} us p99 {:.1} us",
                s50 / 1e3,
                s99 / 1e3,
                l50 / 1e3,
                l99 / 1e3
            ));
        }
    } else {
        let mut tracer = Tracer::new(400_000);
        let spans = Spans {
            step: tracer.name("phy.appliance.step"),
            send: tracer.name("phy.udp.send"),
            pump: tracer.name("phy.udp.pump"),
            poll: tracer.name("phy.udp.poll"),
            advance: tracer.name("core.advance_into"),
        };
        let stats = transport_stats(&rig);
        // Counts cover traced and untraced rounds alike.
        let (frames, steps) = (d.latency.len(), d.steps);
        let mut traced_datagrams = 0;
        let (traced, plain, allocs) = util::alternate(window / 2, |trace| {
            let (busy, n, sent) = (d.busy_ns, d.latency.len(), d.peer_datagrams);
            d.round(&mut rig, true, trace.then_some((&mut tracer, spans)));
            if trace {
                traced_datagrams += d.peer_datagrams - sent;
            }
            Tally { busy: d.busy_ns - busy, units: d.latency.len() - n }
        });
        let after = transport_stats(&rig);
        let (frames, steps) = (d.latency.len() - frames, d.steps - steps);
        let datagrams = after.datagrams_tx - stats.datagrams_tx;
        let per_call = |name: SpanName| {
            let (count, ns) = tracer.total(name);
            ns as f64 / count.max(1) as f64
        };
        out.metric("phy.appliance.step.us_per_call", per_call(spans.step) / 1e3, "us/call");
        out.metric("phy.steps_per_frame", steps as f64 / frames as f64, "count");
        out.metric(
            "phy.udp.send.ns_per_datagram",
            tracer.total(spans.send).1 as f64 / traced_datagrams as f64,
            "ns/datagram",
        );
        out.metric("phy.udp.pump.ns_per_call", per_call(spans.pump), "ns/call");
        out.metric("phy.datagrams_per_frame", datagrams as f64 / frames as f64, "count");
        out.metric(
            "phy.retransmits_per_datagram",
            (after.retransmits - stats.retransmits) as f64 / datagrams.max(1) as f64,
            "ratio",
        );
        out.metric("core.advance_into.ns_per_call", per_call(spans.advance), "ns/call");
        out.metric(
            "core.fddi_frame_in.ns_per_cell",
            fddi_frame_in_replay(&mut tracer, &inputs),
            "ns/cell",
        );
        out.metric("alloc.per_frame", allocs as f64 / frames as f64, "count");
        out.metric("trace.overhead_pct", traced.overhead_pct(&plain), "%");
        let path = ingress::trace_path(cfg);
        match tracer.write(&path) {
            Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let drained = d.drain(&mut rig);
    if let Err(e) = &drained {
        out.notes.push(e.clone());
    }
    out.correct = drained.is_ok() && d.corrupt == 0;
    out.attempted = d.attempted;
    out.failed = d.failed;
    out
}
