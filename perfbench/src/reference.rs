//! Reference figures that are not workloads and are not gated: how the
//! ingress traffic shape (batch size, interleave depth) moves the
//! rates, sharding with more shards than a small
//! host has cores, and an open-loop rate sweep of the appliance. Run
//! with `perfbench --reference <shape|shards|openloop>`; each prints
//! human-readable lines.

use crate::appliance::rig;
use crate::check::{atm_delivery, fddi_delivery};
use crate::ingress::{self, Ingress, Rounds};
use crate::inputs::{
    ApplianceInputs, IngressInputs, Offer, CELL_TIME_NS, INGRESS_BATCH, INGRESS_DEPTH,
};
use crate::refwire::{self, Crc, CELL};
use crate::util;
use gw_phy::{CellPhy, FramePhy};
use gw_sim::time::SimTime;
use std::collections::VecDeque;
use std::time::Instant;

/// Median per-round cells/s and windowed median service time per batch
/// (µs) of `gw` over `seconds` of host time, `batch` cells per
/// `advance_into` and `per_call` cells per `deliver_cells`; and the
/// frames that failed.
fn rate<G: Ingress>(
    inputs: &IngressInputs,
    crc: &Crc,
    gw: &mut G,
    seconds: f64,
    (batch, per_call): (usize, usize),
) -> (f64, f64, u64) {
    let mut d = Rounds::new(inputs, crc);
    (d.batch, d.cells_per_call) = (batch, per_call);
    d.round(gw, false, None);
    while (d.busy_ns as f64) < seconds * 1e9 {
        d.round(gw, true, None);
    }
    let mut r: Vec<f64> = d.rates.iter().map(|r| r.0).collect();
    (util::median(&mut r), d.service.quantiles().0 / 1e3, d.failed + d.corrupt)
}

/// Cells reaching `gwd` in one step when they arrive at the OC-3c line
/// rate: `gwd` steps, then sleeps 1 ms (`src/bin/gwd.rs`), and
/// `Appliance::step` hands each polled cell to `deliver_cells` on its
/// own before one `advance_into`.
pub const GWD_STEP_CELLS: usize = 1_000_000_usize.div_ceil(CELL_TIME_NS as usize);

/// How the shape of the ingress traffic moves the figures. First the
/// cells per `advance_into` and per `deliver_cells` call, at the
/// `atm_ingress` interleave depth, single-threaded and sharded ×1:
/// one cell, E20's ten (`atm_ingress`), 32, and `gwd`'s shape at line
/// rate. Then the interleave depth at the `atm_ingress` batch, from
/// each frame's cells back to back (E20's order) to 256 frames at once.
/// Management on throughout.
pub fn shape(seed: u64, seconds: f64) {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(seed, &crc);
    let shapes = [
        ("1 cell per call and per advance_into", (1, 1)),
        (
            "10 cells per call and per advance_into (E20, atm_ingress)",
            (INGRESS_BATCH, INGRESS_BATCH),
        ),
        ("32 cells per call and per advance_into", (32, 32)),
        ("gwd at line rate: 1 cell per call, advance_into per step", (GWD_STEP_CELLS, 1)),
    ];
    for (label, shape) in shapes {
        let (mut gw, _) = ingress::single(&inputs.congrams, true);
        let (cps, p50, bad) = rate(&inputs, &crc, &mut gw, seconds, shape);
        drop(gw);
        let (mut gw, _) = ingress::sharded(&inputs.congrams, 1);
        let (sharded, _, bad_sharded) = rate(&inputs, &crc, &mut gw, seconds, shape);
        println!(
            "shape {label} ({} cells per batch): single-threaded {cps:.0} cells/s, service p50 {p50:.2} us per batch; sharded x1 {sharded:.0} cells/s ({:.2}x); {} frames failed",
            shape.0,
            sharded / cps,
            bad + bad_sharded
        );
    }
    for depth in [1, 16, 64, INGRESS_DEPTH, 256] {
        let inputs = IngressInputs::generate_at_depth(seed, &crc, depth);
        let (mut gw, _) = ingress::single(&inputs.congrams, true);
        let (cps, _, bad) = rate(&inputs, &crc, &mut gw, seconds, (INGRESS_BATCH, INGRESS_BATCH));
        let note = if depth == INGRESS_DEPTH { " (atm_ingress)" } else { "" };
        println!("depth {depth}{note}: {cps:.0} cells/s, {bad} frames failed");
    }
}

/// The `atm_ingress` inputs through 1, 2 and 4 SAR shards, one worker
/// thread each, beside the single-threaded gateway.
pub fn shards(seed: u64, seconds: f64) {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(seed, &crc);
    let (mut gw, _) = ingress::single(&inputs.congrams, true);
    let (single, _, bad) = rate(&inputs, &crc, &mut gw, seconds, (INGRESS_BATCH, INGRESS_BATCH));
    drop(gw);
    println!("single-threaded: {single:.0} cells/s, {bad} frames failed");
    for n in [1, 2, 4] {
        let (mut gw, _) = ingress::sharded(&inputs.congrams, n);
        let (cps, _, bad) = rate(&inputs, &crc, &mut gw, seconds, (INGRESS_BATCH, INGRESS_BATCH));
        println!(
            "sharded x{n}: {cps:.0} cells/s ({:.2}x single), {bad} frames failed",
            cps / single
        );
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("(host has {cores} cores; x{{n}} runs n worker threads beside the driving thread)");
}

/// Latency p99 limit of the open-loop sweep, in microseconds.
pub const OPEN_LOOP_P99_LIMIT_US: f64 = 250.0;

/// The appliance under an open-loop schedule at fixed offered rates:
/// frames are due every `1/rate` seconds whatever is in flight, and
/// each is timed from when it was due; quantiles are windowed as in
/// the workloads. Reports latency, how late the
/// sender ran, and the backlog left at the end of each rate; then the
/// highest rate whose p99 meets [`OPEN_LOOP_P99_LIMIT_US`] with no
/// growing backlog.
pub fn open_loop(seed: u64, seconds: f64) {
    let crc = Crc::new();
    let inputs = ApplianceInputs::generate(seed, &crc);
    let (mut best, mut met) = (None, true);
    for rate in [5_000u64, 10_000, 15_000, 20_000, 25_000, 30_000, 40_000] {
        let mut rig = rig(&inputs).expect("bind UDP loopback pairs");
        let period = 1_000_000_000 / rate;
        let mut to_fddi: VecDeque<(usize, u64)> = VecDeque::new();
        let mut to_atm: VecDeque<(usize, u64)> = VecDeque::new();
        let (mut frames_rx, mut cells_rx) = (Vec::new(), Vec::<(SimTime, [u8; CELL])>::new());
        let mut latencies = util::Windows::new(1 << 10);
        let (mut sent, mut bad, mut late_max) = (0usize, 0u64, 0u64);
        let start = Instant::now();
        let horizon = (seconds * 1e9) as u64;
        loop {
            let now_ns = util::ns_since(start);
            if now_ns >= horizon {
                break;
            }
            let now = SimTime::from_ns(now_ns);
            while (sent as u64) * period <= now_ns {
                let due = sent as u64 * period;
                late_max = late_max.max(now_ns - due);
                let k = sent % inputs.frames.len();
                match &inputs.offers[k] {
                    Offer::Cells(cells) => {
                        for c in cells {
                            let _ = rig.cell_line.send_cell(now, c);
                        }
                        to_fddi.push_back((k, due));
                    }
                    Offer::Frame(bytes) => {
                        let _ = rig.frame_line.send_frame(now, bytes.clone(), false);
                        to_atm.push_back((k, due));
                    }
                }
                sent += 1;
            }
            rig.app.step(now);
            let _ = rig.frame_line.pump(now);
            let _ = rig.cell_line.pump(now);
            let _ = rig.frame_line.poll_frames(&mut frames_rx);
            let _ = rig.cell_line.poll_cells(&mut cells_rx);
            let done = util::ns_since(start);
            for (_, bytes, _) in frames_rx.drain(..) {
                match (
                    to_fddi.pop_front(),
                    fddi_delivery(&crc, &inputs.congrams, &inputs.frames, &bytes),
                ) {
                    (Some((k, due)), Ok((id, _))) if id as usize == k => latencies.push(done - due),
                    _ => bad += 1,
                }
            }
            while let Some(&(k, due)) = to_atm.front() {
                let n = refwire::cells_for(8 + inputs.frames[k].payload.len());
                if cells_rx.len() < n {
                    break;
                }
                to_atm.pop_front();
                let cells: Vec<(SimTime, [u8; CELL])> = cells_rx.drain(..n).collect();
                if atm_delivery(
                    &crc,
                    &inputs.congrams,
                    &inputs.frames[k],
                    cells.iter().map(|(_, c)| c),
                ) {
                    latencies.push(done - due);
                } else {
                    bad += 1;
                }
            }
        }
        let (p50, p99) = latencies.quantiles();
        let (p50, p99) = (p50 / 1e3, p99 / 1e3);
        let backlog = to_fddi.len() + to_atm.len();
        let mut phy = rig.app.transport_stats();
        phy.merge(&rig.cell_line.stats());
        phy.merge(&rig.frame_line.stats());
        println!(
            "open loop {rate} frames/s: {} sent, {} delivered, {bad} bad, p50 {p50:.1} us, p99 {p99:.1} us, sender late by up to {:.1} us, backlog at end {backlog}, {:.2} retransmits per datagram",
            sent,
            latencies.len(),
            late_max as f64 / 1e3,
            phy.retransmits as f64 / phy.datagrams_tx.max(1) as f64
        );
        met &= p99 <= OPEN_LOOP_P99_LIMIT_US && backlog <= 2 && bad == 0;
        if met {
            best = Some(rate);
        }
    }
    match best {
        Some(rate) => println!("highest rate meeting p99 <= {OPEN_LOOP_P99_LIMIT_US} us without backlog: {rate} frames/s"),
        None => println!("no rate met p99 <= {OPEN_LOOP_P99_LIMIT_US} us without backlog"),
    }
}
