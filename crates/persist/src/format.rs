//! Byte-level primitives for the snapshot format: CRC32 and bounds-checked
//! little-endian readers. Varints come from
//! [`trajsearch_core::compact`](trajsearch_core::compact) so the arena
//! encoding is shared with the in-memory `CompactIndex`.

/// CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) — the same polynomial as
/// gzip/zlib, computed sixteen bytes a step ("slicing-by-16") from
/// compile-time tables. No dependency needed.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(SLICES);
    for chunk in &mut chunks {
        // The state only touches the first four bytes; after that every
        // byte is an independent lookup, so the loads overlap.
        let state = crc.to_le_bytes();
        crc = 0;
        for (p, &b) in chunk.iter().enumerate() {
            let b = if p < 4 { b ^ state[p] } else { b };
            crc ^= t[SLICES - 1 - p][b as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Bytes folded in per step. Measured on the 12.19 MB benchmark snapshot:
/// 1 → 31 ms, 8 → 6.6 ms, 16 → 5.3 ms; 16 tables are 16 KiB, within L1.
const SLICES: usize = 16;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is what
/// lets a whole chunk be folded in with one independent lookup per byte.
static CRC_TABLES: [[u32; 256]; SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

// Bounds-checked little-endian readers: `None` on truncation, never panic.

pub(crate) fn read_u16(buf: &[u8], pos: usize) -> Option<u16> {
    Some(u16::from_le_bytes(buf.get(pos..pos + 2)?.try_into().ok()?))
}

pub(crate) fn read_u32(buf: &[u8], pos: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?))
}

pub(crate) fn read_u64(buf: &[u8], pos: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The definition, one bit at a time: no table to get wrong.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_definition_at_every_length_and_alignment() {
        // Every length around the chunk step (empty, tail only, several
        // chunks + every tail) at every start offset within a chunk.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..6 * SLICES)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..SLICES {
            for len in 0..=4 * SLICES + 6 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn readers_refuse_truncated_input() {
        let buf = [1u8, 2, 3];
        assert_eq!(read_u16(&buf, 0), Some(0x0201));
        assert_eq!(read_u16(&buf, 2), None);
        assert_eq!(read_u32(&buf, 0), None);
        assert_eq!(read_u64(&buf, 0), None);
    }
}
