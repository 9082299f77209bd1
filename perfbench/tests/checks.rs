//! The checks bite: each workload's checker is handed a corrupted
//! delivery and must count it failed; and a short run of every
//! workload completes end to end with nothing failed.

use gw_gateway::gateway::{Gateway, Output};
use gw_sim::time::SimTime;
use perfbench::check::{atm_delivery, fddi_delivery, Ledger};
use perfbench::ingress::{self, Ingress, Rounds};
use perfbench::inputs::{EgressInputs, IngressInputs};
use perfbench::refwire::{self, Crc, CELL};
use perfbench::{run, RunConfig, Workload};

/// What a faulty gateway does to the frames it delivers toward FDDI.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Flip one payload octet of the `n`th delivery.
    FlipByte(usize),
    /// Deliver the `n`th frame twice.
    Duplicate(usize),
    /// Lose the `n`th frame.
    Lose(usize),
}

/// A gateway whose transmit side misbehaves once.
struct Faulty {
    gw: Gateway,
    fault: Fault,
    popped: usize,
    again: Option<Vec<u8>>,
}

impl Ingress for Faulty {
    fn deliver_cells(&mut self, now: SimTime, cells: &[[u8; CELL]], out: &mut Vec<Output>) {
        self.gw.deliver_cells(now, cells, out)
    }
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Output>) {
        self.gw.advance_into(now, out)
    }
    fn pop_fddi_tx(&mut self, now: SimTime) -> Option<(Vec<u8>, bool)> {
        if let Some(f) = self.again.take() {
            return Some((f, false));
        }
        let (mut f, sync) = self.gw.pop_fddi_tx(now)?;
        let n = self.popped;
        self.popped += 1;
        match self.fault {
            Fault::FlipByte(k) if k == n => {
                // Octet 40: inside the MCHIP payload, past the frame number.
                f[40] ^= 0x01;
            }
            Fault::Duplicate(k) if k == n => self.again = Some(f.clone()),
            Fault::Lose(k) if k == n => {
                self.gw.recycle_frame(f);
                return self.gw.pop_fddi_tx(now);
            }
            _ => {}
        }
        Some((f, sync))
    }
    fn recycle_frame(&mut self, frame: Vec<u8>) {
        self.gw.recycle_frame(frame)
    }
    fn gateway(&self) -> &Gateway {
        &self.gw
    }
}

fn ingress_round(fault: Option<Fault>) -> (u64, u64) {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(7, &crc);
    let mut d = Rounds::new(&inputs, &crc);
    let (gw, _) = ingress::single(&inputs.congrams, true);
    let mut faulty =
        Faulty { gw, fault: fault.unwrap_or(Fault::Lose(usize::MAX)), popped: 0, again: None };
    d.round(&mut faulty, false, None);
    (d.failed, d.corrupt)
}

#[test]
fn ingress_checker_passes_a_clean_round() {
    assert_eq!(ingress_round(None), (0, 0));
}

#[test]
fn ingress_checker_counts_a_flipped_payload_byte() {
    let (failed, corrupt) = ingress_round(Some(Fault::FlipByte(17)));
    assert_eq!(failed, 1);
    assert_eq!(corrupt, 1);
}

#[test]
fn ingress_checker_counts_a_duplicated_frame() {
    let (failed, corrupt) = ingress_round(Some(Fault::Duplicate(5)));
    assert_eq!(failed, 1);
    assert_eq!(corrupt, 1);
}

#[test]
fn ingress_checker_counts_a_lost_frame() {
    let (failed, corrupt) = ingress_round(Some(Fault::Lose(3)));
    assert_eq!(failed, 1);
    assert_eq!(corrupt, 0, "a loss is a failed frame, not a wrong delivery");
}

#[test]
fn ingress_checker_counts_a_cell_with_a_bad_hec() {
    // The gateway must discard the cell, so its frame never arrives.
    let crc = Crc::new();
    let mut inputs = IngressInputs::generate(7, &crc);
    inputs.cells[100][4] ^= 0x01;
    let mut d = Rounds::new(&inputs, &crc);
    let (mut gw, _) = ingress::single(&inputs.congrams, true);
    d.round(&mut gw, false, None);
    assert_eq!(d.failed, 1);
}

#[test]
fn sharded_output_diverging_from_single_threaded_counts_failed() {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(7, &crc);
    let mut reference = ingress::reference_order(&inputs, &crc);
    // Same frames, two of them in the other order.
    reference.swap(10, 11);
    let mut d = Rounds::new(&inputs, &crc);
    d.reference = Some(reference);
    let (mut gw, _) = ingress::sharded(&inputs.congrams, 1);
    d.round(&mut gw, false, None);
    assert_eq!(d.failed, 2);
    assert!(d.corrupt > 0);
}

#[test]
fn sharded_output_matches_single_threaded() {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(9, &crc);
    let mut d = Rounds::new(&inputs, &crc);
    d.reference = Some(ingress::reference_order(&inputs, &crc));
    let (mut gw, _) = ingress::sharded(&inputs.congrams, 1);
    d.round(&mut gw, false, None);
    d.round(&mut gw, false, None);
    assert_eq!((d.failed, d.corrupt), (0, 0));
    assert!(d.drain(&mut gw).is_ok());
}

/// The cells a correct gateway emits for egress frame `id`.
fn egress_cells(crc: &Crc, inputs: &EgressInputs, id: usize) -> Vec<[u8; CELL]> {
    let f = &inputs.frames[id];
    let c = inputs.congrams[f.data.congram as usize];
    refwire::segment(crc, c.vci, &refwire::mchip_data(c.atm_icn, &f.data.payload))
}

#[test]
fn egress_checker_counts_each_corruption() {
    let crc = Crc::new();
    let inputs = EgressInputs::generate(3, &crc);
    let id = inputs
        .frames
        .iter()
        .position(|f| refwire::cells_for(8 + f.data.payload.len()) > 3)
        .unwrap();
    let expect = &inputs.frames[id].data;
    let good = egress_cells(&crc, &inputs, id);
    let check = |cells: &[[u8; CELL]]| atm_delivery(&crc, &inputs.congrams, expect, cells.iter());
    assert!(check(&good));

    let mut flipped = good.clone();
    flipped[1][20] ^= 0x80;
    let mut missing = good.clone();
    missing.remove(1);
    let mut bad_hec = good.clone();
    bad_hec[2][4] ^= 0x01;
    let mut duplicated = good.clone();
    duplicated.insert(1, good[1]);
    let mut ledger = Ledger::new(4);
    for (i, cells) in [flipped, missing, bad_hec, duplicated].iter().enumerate() {
        assert!(!check(cells), "corruption {i} passed the checker");
        ledger.deliver(Some(i as u32), check(cells));
    }
    assert_eq!(ledger.finish(), 4);
}

#[test]
fn egress_checker_passes_what_the_gateway_emits() {
    let crc = Crc::new();
    let inputs = EgressInputs::generate(3, &crc);
    let mut d = perfbench::egress::Rounds::new(&inputs, &crc);
    let (mut gw, _) = ingress::single(&inputs.congrams, false);
    d.round(&mut gw, false, None);
    assert_eq!((d.failed, d.corrupt), (0, 0));
    assert!(d.drain(&mut gw).is_ok());
}

#[test]
fn fddi_checker_rejects_wrong_destination_and_bad_fcs() {
    let crc = Crc::new();
    let inputs = IngressInputs::generate(5, &crc);
    let f = &inputs.frames[0];
    let c = inputs.congrams[f.congram as usize];
    let fc = if c.sync { refwire::FC_SYNC } else { refwire::FC_ASYNC };
    let mchip = refwire::mchip_data(c.fddi_icn, &f.payload);
    let good =
        refwire::fddi_frame(&crc, fc, refwire::station(c.station), refwire::station(0), &mchip);
    let check = |b: &[u8]| fddi_delivery(&crc, &inputs.congrams, &inputs.frames, b);
    assert_eq!(check(&good).map(|(id, _)| id), Ok(0));
    let wrong_dst =
        refwire::fddi_frame(&crc, fc, refwire::station(c.station + 1), refwire::station(0), &mchip);
    assert_eq!(check(&wrong_dst), Err(Some(0)));
    let mut bad_fcs = good.clone();
    *bad_fcs.last_mut().unwrap() ^= 1;
    assert_eq!(check(&bad_fcs), Err(None));
}

#[test]
fn every_workload_completes_a_short_run() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&RunConfig { workload, seed: 11, seconds: 0.05, trace });
            assert!(out.correct, "{} (trace {trace}) incorrect: {:?}", workload.name(), out.notes);
            assert_eq!(out.failed, 0, "{} (trace {trace})", workload.name());
            assert!(out.attempted > 0);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = perfbench::END_TO_END.iter().map(|m| m.0).collect();
                assert_eq!(names, want, "{}", workload.name());
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    workload.name(),
                    out.metrics
                );
            }
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_the_runs_print() {
    use gw_mgmt::json::Json;
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|a| a.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(|v| v.as_str()).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), ours(perfbench::END_TO_END));
    assert_eq!(listed("per_layer"), ours(perfbench::PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|a| a.as_arr())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
