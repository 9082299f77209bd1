//! Output checkers. Each delivery is checked against the reference
//! formats and against what the benchmark generated, never against the
//! program's own codecs.

use crate::inputs::{frame_id, Congram, DataFrame, GATEWAY_STATION};
use crate::refwire::{self, Crc, CELL, FC_ASYNC, FC_SYNC, MCHIP_HEADER, SAR_PAYLOAD};

const UNSEEN: u8 = 0;
const OK: u8 = 1;
const BAD: u8 = 2;

/// Per-round record of which frames arrived intact, exactly once.
#[derive(Debug, Clone)]
pub struct Ledger {
    state: Vec<u8>,
    /// Deliveries that were wrong: corrupt, duplicated, or claiming a
    /// frame that was never sent. Any makes the run incorrect.
    pub corrupt: u64,
}

impl Ledger {
    /// A ledger for a round of `frames` frames.
    pub fn new(frames: usize) -> Ledger {
        Ledger { state: vec![UNSEEN; frames], corrupt: 0 }
    }

    /// Record a delivery that claims to be frame `id` (`None` when it
    /// names no frame) and whether it checked out.
    pub fn deliver(&mut self, id: Option<u32>, ok: bool) {
        match id.and_then(|i| self.state.get_mut(i as usize)) {
            Some(s) if *s == UNSEEN && ok => *s = OK,
            Some(s) => {
                *s = BAD;
                self.corrupt += 1;
            }
            None => self.corrupt += 1,
        }
    }

    /// Record a frame found bad after its delivery was accepted (the
    /// sharded identity check).
    pub fn fail(&mut self, id: u32) {
        if let Some(s) = self.state.get_mut(id as usize) {
            if *s == OK {
                *s = BAD;
                self.corrupt += 1;
            }
        }
    }

    /// Close the round: the number of frames not delivered intact
    /// exactly once. The ledger is ready for the next round.
    pub fn finish(&mut self) -> u64 {
        let failed = self.state.iter().filter(|&&s| s != OK).count() as u64;
        self.state.fill(UNSEEN);
        failed
    }
}

/// Check an FDDI frame delivered toward the ring against the round's
/// frames: FCS, size and padding, FC by the congram's class, source
/// (the gateway) and destination (the congram's station), MCHIP header
/// with the congram's FDDI-side ICN, and the payload octets. Returns
/// the frame number and FCS, or the frame number it claimed (if any).
pub fn fddi_delivery(
    crc: &Crc,
    congrams: &[Congram],
    frames: &[DataFrame],
    bytes: &[u8],
) -> Result<(u32, u32), Option<u32>> {
    let view = refwire::parse_fddi(crc, bytes).ok_or(None)?;
    let (icn, payload) = refwire::parse_mchip(view.mchip).ok_or(None)?;
    let id = frame_id(payload).ok_or(None)?;
    let expect = frames.get(id as usize).ok_or(Some(id))?;
    let c = congrams[expect.congram as usize];
    let size = (refwire::FDDI_FIXED + 8 + MCHIP_HEADER + payload.len()).max(refwire::FDDI_MIN);
    let intact = icn == c.fddi_icn
        && view.fc == if c.sync { FC_SYNC } else { FC_ASYNC }
        && view.src == refwire::station(GATEWAY_STATION)
        && view.dst == refwire::station(c.station)
        && bytes.len() == size
        && view.mchip[MCHIP_HEADER + payload.len()..].iter().all(|&b| b == 0)
        && payload == &expect.payload[..];
    if intact {
        Ok((id, view.fcs))
    } else {
        Err(Some(id))
    }
}

/// Check the cells of one frame delivered toward ATM: the cell count
/// the SAR format implies for the frame's length, each cell's HEC,
/// header, sequence number, final-cell flag and CRC-10, the congram's
/// VCI, and the reassembled MCHIP frame (ATM-side ICN, payload octets,
/// zero padding).
pub fn atm_delivery<'a>(
    crc: &Crc,
    congrams: &[Congram],
    expect: &DataFrame,
    cells: impl IntoIterator<Item = &'a [u8; CELL]>,
) -> bool {
    let c = congrams[expect.congram as usize];
    let len = MCHIP_HEADER + expect.payload.len();
    let n = refwire::cells_for(len);
    let mut frame = [0u8; MCHIP_HEADER + crate::inputs::MAX_PAYLOAD + SAR_PAYLOAD];
    let mut count = 0;
    for (i, cell) in cells.into_iter().enumerate() {
        match refwire::parse_cell(crc, cell) {
            Some(v) if i < n && v.vci == c.vci && v.seq as usize == i && v.last == (i == n - 1) => {
            }
            _ => return false,
        }
        frame[i * SAR_PAYLOAD..(i + 1) * SAR_PAYLOAD].copy_from_slice(&cell[8..]);
        count += 1;
    }
    if count != n {
        return false;
    }
    let Some((icn, payload)) = refwire::parse_mchip(&frame[..n * SAR_PAYLOAD]) else {
        return false;
    };
    icn == c.atm_icn
        && payload == &expect.payload[..]
        && frame[len..n * SAR_PAYLOAD].iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_missing_duplicate_and_stray() {
        let mut l = Ledger::new(3);
        l.deliver(Some(0), true);
        l.deliver(Some(0), true); // duplicate
        l.deliver(Some(7), true); // never sent
        assert_eq!(l.corrupt, 2);
        assert_eq!(l.finish(), 3, "frame 0 duplicated, 1 and 2 missing");
        l.deliver(Some(1), true);
        assert_eq!(l.finish(), 2);
    }
}
