//! Lossless integer coding for archived signal windows.
//!
//! ECG is smooth: successive samples differ by small amounts, so
//! delta + zigzag + LEB128 varint coding shrinks a window to a
//! fraction of its raw little-endian size — the same shape the
//! on-node lossless-compressor literature uses (delta/entropy coding,
//! arXiv 1409.8018). Two section codecs cover the archive's needs:
//!
//! - [`write_i32_section`]: reference ECG windows (ADC counts) —
//!   delta + varint, typically well over 2× smaller than raw.
//! - [`write_i16_section`]: CS measurements — pseudo-random
//!   projections carry no sample-to-sample smoothness, so they are
//!   stored raw little-endian (delta coding would *expand* them).
//!
//! Reconstructed windows are not archived: replay re-solves them from
//! the measurements, bit for bit. Scalar `f64` fields travel as raw
//! bit patterns ([`write_f64_bits`]).
//!
//! All decoders validate section lengths against the remaining payload
//! before reserving memory, so a malformed length can never force a
//! huge allocation.

use crate::{ArchiveError, Result};

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes` at `*pos`, advancing `*pos`.
pub fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ArchiveError::Malformed {
                what: "varint",
                detail: "ran off the end of the payload".into(),
            });
        };
        *pos += 1;
        let low = u64::from(b & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(ArchiveError::Malformed {
                what: "varint",
                detail: "value exceeds 64 bits".into(),
            });
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value so small magnitudes get small codes.
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `v` as a zigzag varint.
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag(v));
}

/// Reads a zigzag varint.
pub fn read_ivarint(bytes: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_uvarint(bytes, pos)?))
}

fn check_section_len(len: u64, bytes: &[u8], pos: usize, min_bytes: usize) -> Result<usize> {
    let remaining = bytes.len().saturating_sub(pos);
    let need = (len as u128) * (min_bytes as u128);
    if need > remaining as u128 {
        return Err(ArchiveError::Malformed {
            what: "section length",
            detail: format!("{len} elements cannot fit in {remaining} remaining bytes"),
        });
    }
    Ok(len as usize)
}

/// Appends an `i32` window as a delta + zigzag + varint section
/// (count, first value, then successive differences).
pub fn write_i32_section(out: &mut Vec<u8>, samples: &[i32]) {
    write_uvarint(out, samples.len() as u64);
    let mut prev: i64 = 0;
    for &v in samples {
        let v = i64::from(v);
        write_ivarint(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Decodes an [`write_i32_section`] section, appending to `out`.
pub fn read_i32_section(bytes: &[u8], pos: &mut usize, out: &mut Vec<i32>) -> Result<()> {
    let len = read_uvarint(bytes, pos)?;
    let len = check_section_len(len, bytes, *pos, 1)?;
    out.reserve(len);
    let mut prev: i64 = 0;
    for _ in 0..len {
        prev = prev.wrapping_add(read_ivarint(bytes, pos)?);
        let v = i32::try_from(prev).map_err(|_| ArchiveError::Malformed {
            what: "i32 section",
            detail: format!("decoded value {prev} is outside i32"),
        })?;
        out.push(v);
    }
    Ok(())
}

/// Appends an `i16` window raw little-endian (count, then 2 bytes per
/// sample). CS measurements are pseudo-random projections: delta
/// coding would expand them, so they are stored verbatim.
pub fn write_i16_section(out: &mut Vec<u8>, samples: &[i16]) {
    write_uvarint(out, samples.len() as u64);
    for &v in samples {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a [`write_i16_section`] section, appending to `out`.
pub fn read_i16_section(bytes: &[u8], pos: &mut usize, out: &mut Vec<i16>) -> Result<()> {
    let len = read_uvarint(bytes, pos)?;
    let len = check_section_len(len, bytes, *pos, 2)?;
    out.reserve(len);
    for _ in 0..len {
        let (Some(&lo), Some(&hi)) = (bytes.get(*pos), bytes.get(*pos + 1)) else {
            return Err(ArchiveError::Malformed {
                what: "i16 section",
                detail: "ran off the end of the payload".into(),
            });
        };
        *pos += 2;
        out.push(i16::from_le_bytes([lo, hi]));
    }
    Ok(())
}

/// Appends a `u64` as 8 raw little-endian bytes.
pub fn write_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads 8 raw little-endian bytes as a `u64`.
pub fn read_u64_le(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let Some(chunk) = bytes.get(*pos..*pos + 8) else {
        return Err(ArchiveError::Malformed {
            what: "u64",
            detail: "ran off the end of the payload".into(),
        });
    };
    *pos += 8;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(chunk);
    Ok(u64::from_le_bytes(raw))
}

/// Appends an `f64` as its raw bit pattern (8 bytes LE) — bit-exact,
/// used for scalar fields where delta coding buys nothing.
pub fn write_f64_bits(out: &mut Vec<u8>, v: f64) {
    write_u64_le(out, v.to_bits());
}

/// Reads an [`write_f64_bits`] scalar.
pub fn read_f64_bits(bytes: &[u8], pos: &mut usize) -> Result<f64> {
    Ok(f64::from_bits(read_u64_le(bytes, pos)?))
}

/// Reads one byte.
pub fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8> {
    let Some(&b) = bytes.get(*pos) else {
        return Err(ArchiveError::Malformed {
            what: "byte",
            detail: "ran off the end of the payload".into(),
        });
    };
    *pos += 1;
    Ok(b)
}

/// Reads one byte as a strict bool (0 or 1).
pub fn read_bool(bytes: &[u8], pos: &mut usize) -> Result<bool> {
    match read_u8(bytes, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ArchiveError::Malformed {
            what: "bool",
            detail: format!("expected 0 or 1, got {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut out = Vec::new();
            write_uvarint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes encode more than 64 bits.
        let bytes = [0xffu8; 11];
        let mut pos = 0;
        assert!(read_uvarint(&bytes, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes get small codes.
        assert!(zigzag(-1) < 4);
        assert!(zigzag(1) < 4);
    }

    #[test]
    fn sections_round_trip() {
        let i32s = [0i32, 5, -5, i32::MAX, i32::MIN, 100, 101];
        let mut out = Vec::new();
        write_i32_section(&mut out, &i32s);
        let mut back = Vec::new();
        let mut pos = 0;
        read_i32_section(&out, &mut pos, &mut back).unwrap();
        assert_eq!(back, i32s);

        let i16s = [0i16, -1, i16::MAX, i16::MIN, 777];
        let mut out = Vec::new();
        write_i16_section(&mut out, &i16s);
        let mut back = Vec::new();
        let mut pos = 0;
        read_i16_section(&out, &mut pos, &mut back).unwrap();
        assert_eq!(back, i16s);
    }

    #[test]
    fn bogus_section_length_is_rejected_without_allocating() {
        let mut out = Vec::new();
        write_uvarint(&mut out, u64::MAX); // claims u64::MAX elements
        let mut back = Vec::new();
        let mut pos = 0;
        assert!(read_i32_section(&out, &mut pos, &mut back).is_err());
        assert!(back.is_empty());
    }

    #[test]
    fn smooth_signal_compresses_well() {
        // A smooth pseudo-ECG ramp: deltas fit in 1–2 varint bytes.
        let samples: Vec<i32> = (0..512)
            .map(|i| ((i as f64 / 20.0).sin() * 400.0) as i32)
            .collect();
        let mut out = Vec::new();
        write_i32_section(&mut out, &samples);
        assert!(
            out.len() * 2 < samples.len() * 4,
            "coded {} raw {}",
            out.len(),
            samples.len() * 4
        );
    }
}
