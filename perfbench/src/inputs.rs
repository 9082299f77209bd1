//! Seeded inputs. Every byte the program receives is made here, from
//! the seed, with the reference encoders of [`crate::refwire`].
//!
//! A data frame's payload starts with its 4-octet frame number (big
//! endian) within the round, so a checker can tell which frame a
//! delivery claims to be; the rest is random.

use crate::refwire::{self, Crc, CELL, FC_ASYNC, MCHIP_HEADER, SAR_PAYLOAD};
use crate::util::Rng;

/// The gateway's own FDDI station index.
pub const GATEWAY_STATION: u32 = 0;
/// ATM cell time at the OC-3c line rate (155.52 Mb/s), in ns: ingress
/// cells are spaced this far apart in gateway time.
pub const CELL_TIME_NS: u64 = 2_726;
/// FDDI octet time at 100 Mb/s, in ns: egress frames are spaced by
/// their length on the ring.
pub const FDDI_OCTET_NS: u64 = 80;

/// One bidirectional congram as the benchmark installs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congram {
    /// VC on the ATM side.
    pub vci: u16,
    /// ICN on the ATM interface: frames from ATM carry it, frames to
    /// ATM leave with it.
    pub atm_icn: u16,
    /// ICN on the FDDI interface: frames from the ring carry it, frames
    /// to the ring leave with it.
    pub fddi_icn: u16,
    /// Destination FDDI station index.
    pub station: u32,
    /// Synchronous ring class.
    pub sync: bool,
}

/// ICNs index the MPP's ICXT tables, sized for this many congrams
/// (`GatewayConfig::default().max_congrams`).
const ICN_SPACE: u16 = 1024;

/// `n` congrams (at most 1024) with distinct random VCIs (32 and up),
/// distinct random ICNs on each side, random destination stations, and
/// one in eight synchronous.
pub fn congrams(rng: &mut Rng, n: usize) -> Vec<Congram> {
    assert!(n <= ICN_SPACE as usize, "ICNs are below {ICN_SPACE}");
    let mut vcis: Vec<u16> = Vec::with_capacity(n);
    let mut taken = vec![false; 1 << 16];
    while vcis.len() < n {
        let v = rng.range(32, u16::MAX as u64) as u16;
        if !std::mem::replace(&mut taken[v as usize], true) {
            vcis.push(v);
        }
    }
    let mut atm_icns: Vec<u16> = (0..ICN_SPACE).collect();
    let mut fddi_icns: Vec<u16> = (0..ICN_SPACE).collect();
    rng.shuffle(&mut atm_icns);
    rng.shuffle(&mut fddi_icns);
    (0..n)
        .map(|i| Congram {
            vci: vcis[i],
            atm_icn: atm_icns[i],
            fddi_icn: fddi_icns[i],
            station: rng.range(1, 4095) as u32,
            sync: rng.below(8) == 0,
        })
        .collect()
}

/// One data frame of a round.
#[derive(Debug, Clone)]
pub struct DataFrame {
    /// Index into the congram table.
    pub congram: u32,
    /// MCHIP payload (frame number first).
    pub payload: Vec<u8>,
}

fn payload(rng: &mut Rng, id: u32, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    rng.fill(&mut p);
    p[..4].copy_from_slice(&id.to_be_bytes());
    p
}

/// A payload length whose MCHIP frame fills exactly ten cells.
fn ten_cell_len(rng: &mut Rng) -> usize {
    let most = 10 * SAR_PAYLOAD - MCHIP_HEADER;
    rng.range(most as u64 - 44, most as u64) as usize
}

/// The frame number a payload carries, if it is long enough.
pub fn frame_id(payload: &[u8]) -> Option<u32> {
    payload.get(..4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

// --- ATM→FDDI: interleaved 10-cell frames over many VCs.

/// Congrams on the ingress workloads.
pub const INGRESS_CONGRAMS: usize = 1000;
/// Frames per congram per round.
pub const INGRESS_FRAMES_PER_VC: usize = 2;
/// Frames being reassembled at once (the interleave depth). At the
/// OC-3c cell time the 10 ms reassembly timeout spans 3668 cells, so
/// no more than about 360 ten-cell frames can be in reassembly at once
/// and all complete; from 16 to 256 the rate moves by a few percent
/// (`perfbench --reference shape`, README.md), so one value inside that
/// range stands for it.
pub const INGRESS_DEPTH: usize = 128;
/// Cells per `deliver_cells` batch, each batch followed by one
/// `advance_into`: the shape of E20's batched path
/// (`crates/bench/src/experiments/e20_fastpath.rs`, one ten-cell frame
/// per call), so the only difference from E20's record is the
/// interleaving.
pub const INGRESS_BATCH: usize = 10;
/// A frame whose first cell is this many cells old has its next cell
/// sent first, which bounds every frame's span well inside the 10 ms
/// reassembly timeout.
pub const INGRESS_AGE_CAP: usize = 2000;

/// One round of ingress input: the cell stream of
/// `INGRESS_CONGRAMS × INGRESS_FRAMES_PER_VC` frames, interleaved.
#[derive(Debug, Clone)]
pub struct IngressInputs {
    /// Congram table.
    pub congrams: Vec<Congram>,
    /// The round's frames; a frame's number is its index.
    pub frames: Vec<DataFrame>,
    /// Cells in arrival order.
    pub cells: Vec<[u8; CELL]>,
    /// Index of each frame's first cell in `cells`.
    pub first_cell: Vec<u32>,
}

impl IngressInputs {
    /// Generate a round from `seed`.
    pub fn generate(seed: u64, crc: &Crc) -> IngressInputs {
        IngressInputs::generate_at_depth(seed, crc, INGRESS_DEPTH)
    }

    /// Generate a round from `seed` with `depth` frames in reassembly
    /// at once (1: each frame's cells back to back).
    pub fn generate_at_depth(seed: u64, crc: &Crc, depth: usize) -> IngressInputs {
        let mut rng = Rng::new(seed, 1);
        let congrams = congrams(&mut rng, INGRESS_CONGRAMS);
        // Frame order: the congrams shuffled, once per pass.
        let mut order = Vec::with_capacity(INGRESS_CONGRAMS * INGRESS_FRAMES_PER_VC);
        for _ in 0..INGRESS_FRAMES_PER_VC {
            let mut pass: Vec<u32> = (0..INGRESS_CONGRAMS as u32).collect();
            rng.shuffle(&mut pass);
            order.extend(pass);
        }
        let frames: Vec<DataFrame> = order
            .iter()
            .enumerate()
            .map(|(id, &congram)| {
                let len = ten_cell_len(&mut rng);
                DataFrame { congram, payload: payload(&mut rng, id as u32, len) }
            })
            .collect();
        let segmented: Vec<Vec<[u8; CELL]>> = frames
            .iter()
            .map(|f| {
                let c = &congrams[f.congram as usize];
                refwire::segment(crc, c.vci, &refwire::mchip_data(c.atm_icn, &f.payload))
            })
            .collect();
        let total: usize = segmented.iter().map(Vec::len).sum();
        let mut cells = Vec::with_capacity(total);
        let mut first_cell = vec![0u32; frames.len()];
        // Active frames: (frame, next cell).
        let mut active: Vec<(usize, usize)> = Vec::with_capacity(depth);
        let mut busy = vec![false; INGRESS_CONGRAMS];
        let mut pending: std::collections::VecDeque<usize> = (0..frames.len()).collect();
        while !(pending.is_empty() && active.is_empty()) {
            while active.len() < depth {
                let Some(pos) = pending.iter().position(|&f| !busy[frames[f].congram as usize])
                else {
                    break;
                };
                let f = pending.remove(pos).expect("position is in range");
                busy[frames[f].congram as usize] = true;
                first_cell[f] = cells.len() as u32;
                active.push((f, 0));
            }
            let oldest = (0..active.len())
                .min_by_key(|&i| first_cell[active[i].0])
                .expect("a frame is active");
            let slot = if cells.len() - first_cell[active[oldest].0] as usize >= INGRESS_AGE_CAP {
                oldest
            } else {
                rng.below(active.len() as u64) as usize
            };
            let (f, next) = &mut active[slot];
            cells.push(segmented[*f][*next]);
            *next += 1;
            if *next == segmented[*f].len() {
                busy[frames[*f].congram as usize] = false;
                active.swap_remove(slot);
            }
        }
        IngressInputs { congrams, frames, cells, first_cell }
    }
}

// --- FDDI→ATM: frames from the smallest data frame to the FDDI maximum.

/// Congrams on the egress workload.
pub const EGRESS_CONGRAMS: usize = 256;
/// Frames per egress round.
pub const EGRESS_FRAMES: usize = 1000;
/// Per round: frames of one cell (MCHIP frame of at most 45 octets).
pub const EGRESS_SMALL: usize = 900;
/// Per round: frames of the FDDI maximum (4500-octet FDDI frame, 100
/// cells).
pub const EGRESS_MAX: usize = 50;

/// Size class of an egress frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// One cell.
    Small,
    /// Between one cell and the maximum.
    Mid,
    /// The 4500-octet FDDI maximum.
    Max,
}

/// One egress frame: its payload and the FDDI frame carrying it.
#[derive(Debug, Clone)]
pub struct EgressFrame {
    /// Frame number, congram and payload.
    pub data: DataFrame,
    /// The frame as it arrives from the ring.
    pub fddi: Vec<u8>,
    /// Size class.
    pub class: SizeClass,
}

/// One round of egress input.
#[derive(Debug, Clone)]
pub struct EgressInputs {
    /// Congram table.
    pub congrams: Vec<Congram>,
    /// The round's frames in arrival order; a frame's number is its
    /// index.
    pub frames: Vec<EgressFrame>,
}

/// Largest MCHIP payload an FDDI frame carries: 4500 − 17 − 8 − 8.
pub const MAX_PAYLOAD: usize = refwire::FDDI_MAX - refwire::FDDI_FIXED - 8 - MCHIP_HEADER;

impl EgressInputs {
    /// Generate a round from `seed`.
    pub fn generate(seed: u64, crc: &Crc) -> EgressInputs {
        let mut rng = Rng::new(seed, 2);
        let congrams = congrams(&mut rng, EGRESS_CONGRAMS);
        let mut classes = vec![SizeClass::Mid; EGRESS_FRAMES];
        classes[..EGRESS_SMALL].fill(SizeClass::Small);
        classes[EGRESS_SMALL..EGRESS_SMALL + EGRESS_MAX].fill(SizeClass::Max);
        rng.shuffle(&mut classes);
        let small_max = SAR_PAYLOAD - MCHIP_HEADER;
        let frames = classes
            .into_iter()
            .enumerate()
            .map(|(id, class)| {
                let len = match class {
                    SizeClass::Small => rng.range(4, small_max as u64) as usize,
                    SizeClass::Mid => {
                        rng.range(small_max as u64 + 1, MAX_PAYLOAD as u64 - 1) as usize
                    }
                    SizeClass::Max => MAX_PAYLOAD,
                };
                let congram = rng.below(EGRESS_CONGRAMS as u64) as u32;
                let c = congrams[congram as usize];
                let payload = payload(&mut rng, id as u32, len);
                let fddi = refwire::fddi_frame(
                    crc,
                    FC_ASYNC,
                    refwire::station(GATEWAY_STATION),
                    refwire::station(c.station),
                    &refwire::mchip_data(c.fddi_icn, &payload),
                );
                EgressFrame { data: DataFrame { congram, payload }, fddi, class }
            })
            .collect();
        EgressInputs { congrams, frames }
    }
}

// --- The appliance: two congrams, frames alternating direction.

/// Frames per appliance round.
pub const APPLIANCE_FRAMES: usize = 200;

/// One appliance frame, in the form its line peer sends it.
#[derive(Debug, Clone)]
pub enum Offer {
    /// ATM→FDDI: the cells the ATM peer sends.
    Cells(Vec<[u8; CELL]>),
    /// FDDI→ATM: the frame the ring peer sends.
    Frame(Vec<u8>),
}

/// One round of appliance input.
#[derive(Debug, Clone)]
pub struct ApplianceInputs {
    /// The two congrams.
    pub congrams: Vec<Congram>,
    /// The round's frames; a frame's number is its index.
    pub frames: Vec<DataFrame>,
    /// What the line peer sends for each frame.
    pub offers: Vec<Offer>,
}

impl ApplianceInputs {
    /// Generate a round from `seed`: even frames go ATM→FDDI, odd ones
    /// FDDI→ATM, each of ten cells, alternating congrams in pairs.
    pub fn generate(seed: u64, crc: &Crc) -> ApplianceInputs {
        let mut rng = Rng::new(seed, 3);
        let congrams = congrams(&mut rng, 2);
        let mut frames = Vec::with_capacity(APPLIANCE_FRAMES);
        let mut offers = Vec::with_capacity(APPLIANCE_FRAMES);
        for id in 0..APPLIANCE_FRAMES {
            let congram = ((id / 2) % 2) as u32;
            let c = congrams[congram as usize];
            let len = ten_cell_len(&mut rng);
            let payload = payload(&mut rng, id as u32, len);
            offers.push(if id % 2 == 0 {
                Offer::Cells(refwire::segment(
                    crc,
                    c.vci,
                    &refwire::mchip_data(c.atm_icn, &payload),
                ))
            } else {
                Offer::Frame(refwire::fddi_frame(
                    crc,
                    FC_ASYNC,
                    refwire::station(GATEWAY_STATION),
                    refwire::station(c.station),
                    &refwire::mchip_data(c.fddi_icn, &payload),
                ))
            });
            frames.push(DataFrame { congram, payload });
        }
        ApplianceInputs { congrams, frames, offers }
    }
}
