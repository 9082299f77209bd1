//! Batched per-layer replays for the traced run: a workload's own
//! inputs pushed through each stage's public type, one span per pass,
//! because a single call into a stage takes tens of nanoseconds — too
//! little to time on its own beside a clock read.

use crate::inputs::{EgressInputs, IngressInputs, CELL_TIME_NS, FDDI_OCTET_NS, GATEWAY_STATION};
use crate::refwire::{self, Crc, CELL, SAR_PAYLOAD};
use crate::util::Tracer;
use crate::Outcome;
use gw_gateway::aic::Aic;
use gw_gateway::buffers::{BufferMemory, Class, StoreOutcome};
use gw_gateway::mpp::{IcxtAEntry, IcxtFEntry, Mpp, MppDownOutput, MppUpOutput};
use gw_gateway::spp::Spp;
use gw_gateway::GatewayConfig;
use gw_sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, Vpi};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::Icn;
use std::hint::black_box;
use std::time::Instant;

/// Minimum time spent replaying each stage.
const MIN_REPLAY_NS: u64 = 150_000_000;

/// Run `pass` under a span named `name` until at least
/// [`MIN_REPLAY_NS`] have been spent (and twice at least); the mean
/// nanoseconds per pass.
fn replay(tracer: &mut Tracer, name: &'static str, mut pass: impl FnMut()) -> f64 {
    let span = tracer.name(name);
    let (mut total, mut passes) = (0u64, 0u64);
    while total < MIN_REPLAY_NS || passes < 2 {
        let open = tracer.begin(span, u32::MAX);
        pass();
        total += tracer.end(open).0;
        passes += 1;
    }
    total as f64 / passes as f64
}

fn reassembly_config() -> ReassemblyConfig {
    let g = GatewayConfig::default();
    ReassemblyConfig {
        buffer_cells: g.reassembly_buffer_cells,
        buffers_per_vc: g.reassembly_buffers_per_vc,
        timeout: g.reassembly_timeout,
        forward_errored_frames: g.forward_errored_frames,
    }
}

/// Store then drain `frames` through a buffer memory in chunks that
/// fit it: `(store ns, drain ns)` for one pass.
fn store_drain(buf: &mut BufferMemory, frames: &mut [Vec<u8>], chunk: usize) -> (u64, u64) {
    let now = SimTime::ZERO;
    let (mut store, mut drain) = (0u64, 0u64);
    for part in frames.chunks_mut(chunk) {
        let t0 = Instant::now();
        for f in part.iter_mut() {
            match buf.store_tagged(now, Class::Async, std::mem::take(f), false) {
                StoreOutcome::Stored => {}
                StoreOutcome::Shed(v) | StoreOutcome::Overflow(v) => *f = v,
            }
        }
        let t1 = Instant::now();
        for f in part.iter_mut() {
            if f.is_empty() {
                *f = buf.drain(now, Class::Async).unwrap_or_default();
            }
        }
        let t2 = Instant::now();
        store += (t1 - t0).as_nanos() as u64;
        drain += (t2 - t1).as_nanos() as u64;
    }
    (store, drain)
}

/// Per-stage costs of the ATM→FDDI direction on an ingress round.
/// Adds the layer metrics to `out`; returns the per-cell stage sum the
/// `deliver_cells` budget compares against.
pub fn ingress(tracer: &mut Tracer, crc: &Crc, inputs: &IngressInputs, out: &mut Outcome) -> f64 {
    let cells = &inputs.cells;
    let n_cells = cells.len() as f64;
    let n_frames = inputs.frames.len() as f64;
    let vcis: Vec<Vci> = cells.iter().map(|c| Vci(refwire::cell_vci(c))).collect();
    let step = SimTime::from_ns(CELL_TIME_NS);

    let hec = replay(tracer, "replay.wire.hec", || {
        for c in cells {
            black_box(gw_wire::crc::hec(black_box(&c[..4])));
        }
    }) / n_cells;
    let crc10 = replay(tracer, "replay.wire.crc10", || {
        for c in cells {
            black_box(gw_wire::crc::crc10(black_box(&c[5..])));
        }
    }) / n_cells;

    let mut aic = Aic::new();
    let mut now = SimTime::ZERO;
    let aic_rx = replay(tracer, "replay.core.aic.receive", || {
        for c in cells {
            let mut c = *c;
            black_box(aic.receive(now, &mut c));
            now += step;
        }
    }) / n_cells;

    let mut spp = Spp::new(reassembly_config());
    let mut reasm = Reassembler::new(reassembly_config());
    for c in &inputs.congrams {
        spp.open_vc(Vci(c.vci), reassembly_config().timeout);
        reasm.open_vc_with_timeout(Vci(c.vci), reassembly_config().timeout);
    }
    let mut now = SimTime::ZERO;
    let spp_ingest = replay(tracer, "replay.core.spp.ingest_cell", || {
        for (c, &vci) in cells.iter().zip(&vcis) {
            if let ReassemblyEvent::Complete(f) = spp.ingest_cell(now, vci, &c[5..]).event {
                spp.release(vci);
                spp.recycle(f.data);
            }
            now += step;
        }
    }) / n_cells;
    let mut now = SimTime::ZERO;
    let sar_push = replay(tracer, "replay.sar.reassemble", || {
        for (c, &vci) in cells.iter().zip(&vcis) {
            if let ReassemblyEvent::Complete(f) = reasm.push(now, vci, &c[5..]) {
                reasm.release(vci);
                reasm.recycle(f.data);
            }
            now += step;
        }
    }) / n_cells;

    // The MPP reads reassembled frames: whole cells of SAR payload.
    let reassembled: Vec<Vec<u8>> = inputs
        .frames
        .iter()
        .map(|f| {
            let c = inputs.congrams[f.congram as usize];
            let mut m = refwire::mchip_data(c.atm_icn, &f.payload);
            m.resize(refwire::cells_for(m.len()) * SAR_PAYLOAD, 0);
            m
        })
        .collect();
    let mut mpp = Mpp::new(GatewayConfig::default().max_congrams);
    for c in &inputs.congrams {
        let entry = IcxtFEntry { out_icn: Icn(c.fddi_icn), fddi_dst: FddiAddr::station(c.station) };
        mpp.program_f(Icn(c.atm_icn), entry).expect("ICN within the ICXT");
        mpp.set_synchronous(Icn(c.atm_icn), c.sync).expect("ICN within the ICXT");
    }
    let mut now = SimTime::ZERO;
    let mpp_up = replay(tracer, "replay.core.mpp.from_spp", || {
        for data in &reassembled {
            if let MppUpOutput::DataToFddi { frame, .. } = mpp.from_spp(now, data, false, false) {
                mpp.recycle(frame);
            }
            now += step;
        }
    }) / n_frames;

    let mut frames: Vec<Vec<u8>> = inputs
        .frames
        .iter()
        .map(|f| {
            let c = inputs.congrams[f.congram as usize];
            let fc = if c.sync { refwire::FC_SYNC } else { refwire::FC_ASYNC };
            let m = refwire::mchip_data(c.fddi_icn, &f.payload);
            refwire::fddi_frame(
                crc,
                fc,
                refwire::station(c.station),
                refwire::station(GATEWAY_STATION),
                &m,
            )
        })
        .collect();
    let octets: usize = frames.iter().map(Vec::len).sum();
    let crc32 = replay(tracer, "replay.wire.crc32", || {
        for f in &frames {
            black_box(gw_wire::crc::crc32(black_box(&f[..f.len() - 4])));
        }
    }) / (octets as f64 / 1024.0);
    let mut buf = BufferMemory::new(GatewayConfig::default().tx_buffer_octets);
    let (mut store, mut drain) = (0u64, 0u64);
    let tx = replay(tracer, "replay.core.buffers.tx", || {
        let (s, d) = store_drain(&mut buf, &mut frames, 64);
        store += s;
        drain += d;
    }) / n_frames;
    let store_share = store as f64 / (store + drain).max(1) as f64;

    out.metric("wire.hec.ns_per_cell", hec, "ns/cell");
    out.metric("wire.crc10.ns_per_cell", crc10, "ns/cell");
    out.metric("wire.crc32.ns_per_kib", crc32, "ns/KiB");
    out.metric("sar.reassemble.ns_per_cell", sar_push, "ns/cell");
    out.metric("core.aic.receive.ns_per_cell", aic_rx, "ns/cell");
    out.metric("core.spp.ingest_cell.ns_per_cell", spp_ingest, "ns/cell");
    out.metric("core.mpp.from_spp.ns_per_frame", mpp_up, "ns/frame");
    out.metric("core.buffers.tx.ns_per_frame", tx, "ns/frame");
    // What `deliver_cells` runs per cell: the AIC (HEC inside), the SPP
    // (CRC-10 and reassembly inside), and per frame the MPP frame-up
    // (FCS build inside) and the transmit-buffer store.
    let cells_per_frame = n_cells / n_frames;
    aic_rx + spp_ingest + (mpp_up + tx * store_share) / cells_per_frame
}

/// Per-stage costs of the FDDI→ATM direction on an egress round.
/// Returns the per-cell stage sum beside `fddi_frame_in`.
pub fn egress(tracer: &mut Tracer, crc: &Crc, inputs: &EgressInputs, out: &mut Outcome) -> f64 {
    let list = &inputs.congrams;
    let n_frames = inputs.frames.len() as f64;
    let mchips: Vec<(AtmHeader, Vec<u8>)> = inputs
        .frames
        .iter()
        .map(|f| {
            let c = list[f.data.congram as usize];
            (AtmHeader::data(Vpi(0), Vci(c.vci)), refwire::mchip_data(c.atm_icn, &f.data.payload))
        })
        .collect();
    let cells: Vec<[u8; CELL]> =
        mchips.iter().flat_map(|(h, m)| refwire::segment(crc, h.vci.0, m)).collect();
    let n_cells = cells.len() as f64;
    let octets: usize = inputs.frames.iter().map(|f| f.fddi.len()).sum();

    let mut frames: Vec<Vec<u8>> = inputs.frames.iter().map(|f| f.fddi.clone()).collect();
    let crc32 = replay(tracer, "replay.wire.crc32", || {
        for f in &frames {
            black_box(gw_wire::crc::crc32(black_box(&f[..f.len() - 4])));
        }
    }) / (octets as f64 / 1024.0);
    let mut buf = BufferMemory::new(GatewayConfig::default().rx_buffer_octets);
    let rx = replay(tracer, "replay.core.buffers.rx", || {
        store_drain(&mut buf, &mut frames, 16);
    }) / n_frames;

    let mut mpp = Mpp::new(GatewayConfig::default().max_congrams);
    for c in list {
        let entry =
            IcxtAEntry { out_icn: Icn(c.atm_icn), atm_header: AtmHeader::data(Vpi(0), Vci(c.vci)) };
        mpp.program_a(Icn(c.fddi_icn), entry).expect("ICN within the ICXT");
    }
    let mut now = SimTime::ZERO;
    let mpp_down = replay(tracer, "replay.core.mpp.from_fddi", || {
        for f in &inputs.frames {
            if let MppDownOutput::DataToSpp { frame, .. } = mpp.from_fddi(now, &f.fddi) {
                mpp.recycle(frame);
            }
            now += SimTime::from_ns(f.fddi.len() as u64 * FDDI_OCTET_NS);
        }
    }) / n_frames;

    let mut spp = Spp::new(reassembly_config());
    let mut now = SimTime::ZERO;
    let fragment = replay(tracer, "replay.core.spp.fragment", || {
        for ((h, m), f) in mchips.iter().zip(&inputs.frames) {
            black_box(spp.fragment(now, h, m, false).map(|r| r.done).ok());
            now += SimTime::from_ns(f.fddi.len() as u64 * FDDI_OCTET_NS);
        }
    }) / n_cells;
    let segment = replay(tracer, "replay.sar.segment", || {
        for (h, m) in &mchips {
            black_box(gw_sar::segment::segment_cells(h, m, false).map(|c| c.len()).ok());
        }
    }) / n_cells;

    let mut aic = Aic::new();
    let aic_tx = replay(tracer, "replay.core.aic.transmit", || {
        for c in &cells {
            let mut c = *c;
            aic.transmit(&mut c);
            black_box(&c);
        }
    }) / n_cells;
    let hec = replay(tracer, "replay.wire.hec", || {
        for c in &cells {
            black_box(gw_wire::crc::hec(black_box(&c[..4])));
        }
    }) / n_cells;
    let crc10 = replay(tracer, "replay.wire.crc10", || {
        for c in &cells {
            black_box(gw_wire::crc::crc10(black_box(&c[5..])));
        }
    }) / n_cells;

    out.metric("wire.hec.ns_per_cell", hec, "ns/cell");
    out.metric("wire.crc10.ns_per_cell", crc10, "ns/cell");
    out.metric("wire.crc32.ns_per_kib", crc32, "ns/KiB");
    out.metric("sar.segment.ns_per_cell", segment, "ns/cell");
    out.metric("core.aic.transmit.ns_per_cell", aic_tx, "ns/cell");
    out.metric("core.spp.fragment.ns_per_cell", fragment, "ns/cell");
    out.metric("core.mpp.from_fddi.ns_per_frame", mpp_down, "ns/frame");
    out.metric("core.buffers.rx.ns_per_frame", rx, "ns/frame");
    let cells_per_frame = n_cells / n_frames;
    aic_tx + fragment + (mpp_down + rx) / cells_per_frame
}

/// One `gw_ring` hop between two threads, in nanoseconds: a token
/// bounced through a pair of rings, half the mean round trip.
pub fn ring_hop(tracer: &mut Tracer) -> f64 {
    const TRIPS: u64 = 200_000;
    let (mut to_tx, mut to_rx) = gw_ring::ring::<u64>(64);
    let (mut back_tx, mut back_rx) = gw_ring::ring::<u64>(64);
    let span = tracer.name("replay.ring.round_trip");
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let mut seen = 0;
            while seen < TRIPS {
                if let Some(v) = to_rx.pop() {
                    while back_tx.push(v).is_err() {
                        std::hint::spin_loop();
                    }
                    seen += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        // Warm up both caches before timing.
        for i in 0..1000 {
            while to_tx.push(i).is_err() {}
            while back_rx.pop().is_none() {}
        }
        let open = tracer.begin(span, u32::MAX);
        for i in 0..TRIPS - 1000 {
            while to_tx.push(i).is_err() {
                std::hint::spin_loop();
            }
            while back_rx.pop().is_none() {
                std::hint::spin_loop();
            }
        }
        let (ns, _) = tracer.end(open);
        echo.join().expect("echo thread panicked");
        ns as f64 / (TRIPS - 1000) as f64 / 2.0
    })
}
