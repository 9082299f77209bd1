//! Reference wire formats, written from the standards and the paper's
//! layouts without using `gw-wire`: the three CRCs bit by bit from their
//! polynomials, and encoders/decoders for the ATM cell, the SAR header,
//! the MCHIP header and the FDDI frame. The benchmark builds every input
//! with these and checks every output against them.
//!
//! The bit-serial functions are the definitions. Bulk checking uses
//! byte tables generated from those same bit-serial steps at start-up
//! ([`Crc::new`]); [`self_test`] proves both against the published
//! check values and against each other.

/// Published check value of CRC-8/I.432 (HEC) over `"123456789"`.
pub const HEC_CHECK: u8 = 0xA1;
/// Published check value of CRC-10/ATM over `"123456789"`.
pub const CRC10_CHECK: u16 = 0x199;
/// Published check value of CRC-32/IEEE over `"123456789"`.
pub const CRC32_CHECK: u32 = 0xCBF4_3926;

const HEC_POLY: u8 = 0x07; // x^8 + x^2 + x + 1
const HEC_COSET: u8 = 0x55;
const CRC10_POLY: u16 = 0x233; // x^10 + x^9 + x^5 + x^4 + x + 1
const CRC32_POLY_REFLECTED: u32 = 0xEDB8_8320; // 0x04C11DB7 bit-reversed

/// One bit-serial CRC-8 step over a byte, MSB first.
fn crc8_byte(mut crc: u8, byte: u8) -> u8 {
    crc ^= byte;
    for _ in 0..8 {
        crc = if crc & 0x80 != 0 { (crc << 1) ^ HEC_POLY } else { crc << 1 };
    }
    crc
}

/// One bit-serial CRC-10 step over a byte, MSB first, 10-bit register.
fn crc10_byte(mut crc: u16, byte: u8) -> u16 {
    for i in (0..8).rev() {
        let bit = ((byte >> i) & 1) as u16;
        let top = (crc >> 9) & 1;
        crc = (crc << 1) & 0x3FF;
        if top ^ bit != 0 {
            crc ^= CRC10_POLY & 0x3FF;
        }
    }
    crc
}

/// One bit-serial step of the reflected CRC-32 over a byte.
fn crc32_byte(mut crc: u32, byte: u8) -> u32 {
    crc ^= byte as u32;
    for _ in 0..8 {
        crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY_REFLECTED } else { crc >> 1 };
    }
    crc
}

/// HEC, bit-serial: CRC-8 over the four header octets plus the coset.
pub fn hec_bitwise(header4: &[u8]) -> u8 {
    header4.iter().fold(0u8, |c, &b| crc8_byte(c, b)) ^ HEC_COSET
}

/// CRC-10/ATM, bit-serial, initial value 0.
pub fn crc10_bitwise(data: &[u8]) -> u16 {
    data.iter().fold(0u16, |c, &b| crc10_byte(c, b))
}

/// CRC-32/IEEE, bit-serial: reflected, initial and final XOR all ones.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| crc32_byte(c, b))
}

/// Byte tables generated from the bit-serial steps above.
pub struct Crc {
    hec: [u8; 256],
    crc10: [u16; 256],
    crc32: [u32; 256],
}

impl Crc {
    /// Generate the tables: entry `i` is one bit-serial byte step from
    /// the register state that byte `i` leaves at the top.
    pub fn new() -> Crc {
        let mut t = Crc { hec: [0; 256], crc10: [0; 256], crc32: [0; 256] };
        for i in 0..256usize {
            t.hec[i] = crc8_byte(0, i as u8);
            t.crc10[i] = crc10_byte((i as u16) << 2, 0);
            t.crc32[i] = crc32_byte(0, i as u8);
        }
        t
    }

    /// HEC over the first four header octets.
    pub fn hec(&self, header4: &[u8]) -> u8 {
        header4.iter().fold(0u8, |c, &b| self.hec[(c ^ b) as usize]) ^ HEC_COSET
    }

    /// CRC-10/ATM.
    pub fn crc10(&self, data: &[u8]) -> u16 {
        data.iter()
            .fold(0u16, |c, &b| ((c << 8) & 0x3FF) ^ self.crc10[(((c >> 2) as u8) ^ b) as usize])
    }

    /// CRC-32/IEEE.
    pub fn crc32(&self, data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| (c >> 8) ^ self.crc32[((c as u8) ^ b) as usize])
    }
}

impl Default for Crc {
    fn default() -> Crc {
        Crc::new()
    }
}

/// Check the bit-serial CRCs against their published check values and
/// the table-driven ones against the bit-serial ones. Returns a
/// description of the first disagreement.
pub fn self_test(crc: &Crc) -> Result<(), String> {
    let check = b"123456789";
    if hec_bitwise(&check[..4]) != crc.hec(&check[..4]) {
        return Err("HEC table disagrees with the bit-serial HEC".into());
    }
    // The HEC check value is defined over the whole check string.
    let hec = check.iter().fold(0u8, |c, &b| crc8_byte(c, b)) ^ HEC_COSET;
    if hec != HEC_CHECK {
        return Err(format!("HEC check value {hec:#04x}, want {HEC_CHECK:#04x}"));
    }
    if crc10_bitwise(check) != CRC10_CHECK {
        return Err(format!(
            "CRC-10 check value {:#05x}, want {CRC10_CHECK:#05x}",
            crc10_bitwise(check)
        ));
    }
    if crc32_bitwise(check) != CRC32_CHECK {
        return Err(format!(
            "CRC-32 check value {:#010x}, want {CRC32_CHECK:#010x}",
            crc32_bitwise(check)
        ));
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut data = [0u8; 97];
    for round in 0..64 {
        for b in data.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        let d = &data[..round + 4];
        if crc.hec(&d[..4]) != hec_bitwise(&d[..4])
            || crc.crc10(d) != crc10_bitwise(d)
            || crc.crc32(d) != crc32_bitwise(d)
        {
            return Err(format!("CRC tables disagree with the bit-serial CRCs on input {round}"));
        }
    }
    Ok(())
}

// --- ATM cells (UNI header, paper Figure 2) and the SAR header (Figure 5).

/// Octets in an ATM cell.
pub const CELL: usize = 53;
/// Octets of SAR payload per cell.
pub const SAR_PAYLOAD: usize = 45;

/// Cells a frame of `len` octets occupies (at least one).
pub fn cells_for(len: usize) -> usize {
    len.div_ceil(SAR_PAYLOAD).max(1)
}

/// Build one data cell: UNI header (GFC, VPI, PTI, CLP all zero) on
/// `vci` with its HEC, SAR header (`seq`, F on the last cell, C clear)
/// with its CRC-10 over the whole information field, then `payload`
/// zero-padded to 45 octets.
pub fn build_cell(crc: &Crc, vci: u16, seq: u16, last: bool, payload: &[u8]) -> [u8; CELL] {
    let mut c = [0u8; CELL];
    c[1] = (vci >> 12) as u8;
    c[2] = (vci >> 4) as u8;
    c[3] = ((vci & 0xF) << 4) as u8;
    c[4] = crc.hec(&c[..4]);
    let word = ((seq as u32) << 14) | ((last as u32) << 11);
    c[5] = (word >> 16) as u8;
    c[6] = (word >> 8) as u8;
    c[7] = word as u8;
    c[8..8 + payload.len()].copy_from_slice(payload);
    let crc10 = crc.crc10(&c[5..]) as u32;
    let word = word | crc10;
    c[6] = (word >> 8) as u8;
    c[7] = word as u8;
    c
}

/// What a data cell says about itself, once its HEC, header fields and
/// CRC-10 have checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellView {
    /// VCI from the header.
    pub vci: u16,
    /// SAR sequence number.
    pub seq: u16,
    /// SAR final-cell flag.
    pub last: bool,
}

/// The VCI field of a UNI cell header.
pub fn cell_vci(c: &[u8; CELL]) -> u16 {
    ((c[1] as u16 & 0x0F) << 12) | ((c[2] as u16) << 4) | (c[3] as u16 >> 4)
}

/// Check one data cell: HEC, a plain data header (GFC, VPI, PTI, CLP
/// zero), SAR C bit clear and CRC-10. `None` when any check fails.
pub fn parse_cell(crc: &Crc, c: &[u8; CELL]) -> Option<CellView> {
    if crc.hec(&c[..4]) != c[4] || c[0] != 0 || c[1] & 0xF0 != 0 || c[3] & 0x0F != 0 {
        return None;
    }
    let vci = cell_vci(c);
    let word = ((c[5] as u32) << 16) | ((c[6] as u32) << 8) | c[7] as u32;
    if word & (1 << 10) != 0 || word & (0b11 << 12) != 0 {
        return None;
    }
    let mut info = [0u8; 48];
    info.copy_from_slice(&c[5..]);
    info[1] &= !0x03;
    info[2] = 0;
    if crc.crc10(&info) as u32 != word & 0x3FF {
        return None;
    }
    Some(CellView { vci, seq: (word >> 14) as u16, last: word & (1 << 11) != 0 })
}

/// Segment an MCHIP frame into the cells a line-side ATM peer sends.
pub fn segment(crc: &Crc, vci: u16, mchip: &[u8]) -> Vec<[u8; CELL]> {
    let n = cells_for(mchip.len());
    (0..n)
        .map(|i| {
            let start = i * SAR_PAYLOAD;
            let end = (start + SAR_PAYLOAD).min(mchip.len());
            build_cell(crc, vci, i as u16, i == n - 1, &mchip[start..end])
        })
        .collect()
}

// --- MCHIP (the paper's §6.1 fields: type, 2-octet ICN, length, checksum).

/// Octets in the MCHIP header.
pub const MCHIP_HEADER: usize = 8;

fn mchip_checksum(h: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for i in [0, 2, 4] {
        sum += u16::from_be_bytes([h[i], h[i + 1]]) as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A version-1 MCHIP data frame on `icn` carrying `payload`.
pub fn mchip_data(icn: u16, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(MCHIP_HEADER + payload.len());
    f.extend_from_slice(&[0x10, 0]);
    f.extend_from_slice(&icn.to_be_bytes());
    f.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    let sum = mchip_checksum(&[f[0], f[1], f[2], f[3], f[4], f[5]]);
    f.extend_from_slice(&sum.to_be_bytes());
    f.extend_from_slice(payload);
    f
}

/// Parse a version-1 MCHIP data frame (trailing padding allowed):
/// `(icn, payload)`, or `None` when the header is not a valid data
/// header or the bytes are short.
pub fn parse_mchip(bytes: &[u8]) -> Option<(u16, &[u8])> {
    if bytes.len() < MCHIP_HEADER || bytes[0] != 0x10 || bytes[1] != 0 {
        return None;
    }
    if mchip_checksum(&bytes[..6]) != u16::from_be_bytes([bytes[6], bytes[7]]) {
        return None;
    }
    let icn = u16::from_be_bytes([bytes[2], bytes[3]]);
    let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    bytes.get(MCHIP_HEADER..MCHIP_HEADER + len).map(|p| (icn, p))
}

// --- FDDI frames (FC, DA, SA, INFO, FCS; paper Figure 2) with LLC/SNAP.

/// FC octet of an asynchronous LLC frame at priority 0 (ANSI X3.139).
pub const FC_ASYNC: u8 = 0x50;
/// FC octet of a synchronous LLC frame.
pub const FC_SYNC: u8 = 0xD0;
/// The smallest FDDI frame the MAC sends, in octets.
pub const FDDI_MIN: usize = 64;
/// The largest FDDI frame, in octets.
pub const FDDI_MAX: usize = 4500;
/// FC + DA + SA + FCS.
pub const FDDI_FIXED: usize = 17;
/// LLC/SNAP header carrying MCHIP (protocol id 0x88F1).
pub const LLC_SNAP: [u8; 8] = [0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00, 0x88, 0xF1];

/// The 48-bit address of station `index` (locally administered).
pub fn station(index: u32) -> [u8; 6] {
    let b = index.to_be_bytes();
    [0x02, 0x00, b[0], b[1], b[2], b[3]]
}

/// An FDDI frame carrying `mchip` behind LLC/SNAP, padded to the
/// minimum size, FCS appended most significant octet first.
pub fn fddi_frame(crc: &Crc, fc: u8, dst: [u8; 6], src: [u8; 6], mchip: &[u8]) -> Vec<u8> {
    let body = (FDDI_FIXED + LLC_SNAP.len() + mchip.len()).max(FDDI_MIN);
    let mut f = Vec::with_capacity(body);
    f.push(fc);
    f.extend_from_slice(&dst);
    f.extend_from_slice(&src);
    f.extend_from_slice(&LLC_SNAP);
    f.extend_from_slice(mchip);
    f.resize(body - 4, 0);
    let fcs = crc.crc32(&f);
    f.extend_from_slice(&fcs.to_be_bytes());
    f
}

/// The fields of an FDDI data frame whose FCS, size and LLC/SNAP
/// header checked out.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Frame control octet.
    pub fc: u8,
    /// Destination address.
    pub dst: [u8; 6],
    /// Source address.
    pub src: [u8; 6],
    /// The MCHIP frame (with any minimum-size padding after it).
    pub mchip: &'a [u8],
    /// The FCS as carried.
    pub fcs: u32,
}

/// Check an FDDI frame's size, FCS and LLC/SNAP header.
pub fn parse_fddi<'a>(crc: &Crc, f: &'a [u8]) -> Option<FrameView<'a>> {
    if f.len() < FDDI_MIN || f.len() > FDDI_MAX {
        return None;
    }
    let (body, fcs) = f.split_at(f.len() - 4);
    let fcs = u32::from_be_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    if crc.crc32(body) != fcs || body[13..21] != LLC_SNAP {
        return None;
    }
    let mut dst = [0u8; 6];
    let mut src = [0u8; 6];
    dst.copy_from_slice(&body[1..7]);
    src.copy_from_slice(&body[7..13]);
    Some(FrameView { fc: body[0], dst, src, mchip: &body[21..], fcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_crcs_meet_their_check_values() {
        self_test(&Crc::new()).unwrap();
    }

    #[test]
    fn reference_formats_agree_with_the_gateway_crate() {
        // Not a source of truth (the reference stands on the check
        // values); a guard that both sides read the layouts alike.
        let crc = Crc::new();
        let cell = build_cell(&crc, 0x1234, 7, true, &[0xAB; 45]);
        assert!(gw_wire::crc::hec_valid(&cell[..5]));
        assert!(gw_wire::sar::SarCell::new_checked(&cell[5..]).is_ok());
        let view = parse_cell(&crc, &cell).unwrap();
        assert_eq!(view, CellView { vci: 0x1234, seq: 7, last: true });
        let mchip = mchip_data(77, b"payload");
        let frame = fddi_frame(&crc, FC_ASYNC, station(5), station(0), &mchip);
        assert!(gw_wire::fddi::Frame::new_checked(&frame[..]).is_ok());
        let v = parse_fddi(&crc, &frame).unwrap();
        assert_eq!(parse_mchip(v.mchip), Some((77, &b"payload"[..])));
    }
}
