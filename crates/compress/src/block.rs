//! Shared block container: both codecs store a magic, the uncompressed
//! size, and a sequence of raw or entropy-coded blocks; they differ in
//! window size, match-search effort and decoder implementation.

use crate::entropy::{
    canonical_codes, dist_code, huffman_lengths, len_code, BitReader, BitWriter, SymbolDecoder,
    DIST_TABLE, EOB, LEN_TABLE, NUM_DIST, NUM_LEN_CODES, NUM_LITLEN,
};
use crate::error::CompressError;
use crate::lzss::{self, MatchParams, Sequence};

/// Sequences per entropy-coded block.
const BLOCK_SEQS: usize = 1 << 16;

/// Match-finder chunk size: inputs are parsed in independent chunks so the
/// `prev` chain array stays bounded on multi-hundred-megabyte traces.
/// Matches never cross a chunk boundary (the window restarts), but decoded
/// distances remain valid globally because the decoder appends chunks to
/// one output buffer.
const PARSE_CHUNK: usize = 4 << 20;

/// Upper bound on how many output bytes one compressed input byte can
/// yield: a match symbol costs at least two bits (one literal/length code
/// bit plus one distance code bit) and emits at most the 2179-byte maximum
/// match, so eight input bits can never produce more than four maximal
/// matches. Any header declaring more than this is corrupt, and no `Vec`
/// reservation is ever sized beyond it.
const MAX_EXPANSION: u64 = 4 * 2179;

/// Little-endian `u64` from the first 8 bytes of `bytes` (zero-padded when
/// shorter) — panic-free on any input length.
#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

/// Little-endian `u32` from the first 4 bytes of `bytes` (zero-padded when
/// shorter).
#[inline]
fn le_u32(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    let n = bytes.len().min(4);
    buf[..n].copy_from_slice(&bytes[..n]);
    u32::from_le_bytes(buf)
}

/// Content checksum over the uncompressed bytes (8-byte chunks through the
/// splitmix finalizer) — the analogue of gzip's CRC32 / zstd's XXH64
/// trailer, so silent corruption cannot masquerade as valid trace data.
pub(crate) fn checksum64(data: &[u8]) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    // Four independent lanes keep the multiply chains out of each other's
    // way (the same trick XXH64 uses); the lanes fold together at the end.
    let mut lanes = [
        0x5ee5_c0de_u64 ^ data.len() as u64,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane ^ le_u64(&b[8 * i..]));
        }
    }
    let mut h = mix(lanes[0]
        ^ lanes[1].rotate_left(17)
        ^ lanes[2].rotate_left(31)
        ^ lanes[3].rotate_left(47));
    let mut chunks = blocks.remainder().chunks_exact(8);
    for c in &mut chunks {
        h = mix(h ^ le_u64(c));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        h = mix(h ^ le_u64(rest));
    }
    h
}

pub(crate) fn compress(data: &[u8], magic: [u8; 4], params: &MatchParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 64);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    // Empty input needs no blocks: the decoder stops at size 0 and goes
    // straight to the checksum trailer.
    for chunk in data.chunks(PARSE_CHUNK) {
        let seqs = lzss::parse(chunk, params);
        for block in seqs.chunks(BLOCK_SEQS) {
            encode_block(chunk, block, &mut out);
        }
    }
    out.extend_from_slice(&checksum64(data).to_le_bytes());
    out
}

fn encode_block(data: &[u8], seqs: &[Sequence], out: &mut Vec<u8>) {
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    let mut raw_bytes = 0usize;
    for s in seqs {
        for &b in &data[s.lit_start..s.lit_start + s.lit_len] {
            lit_freq[b as usize] += 1;
        }
        raw_bytes += s.lit_len + s.match_len;
        if s.match_len > 0 {
            lit_freq[257 + len_code(s.match_len)] += 1;
            dist_freq[dist_code(s.match_dist)] += 1;
        }
    }
    lit_freq[EOB] += 1;

    let lit_lens = huffman_lengths(&lit_freq);
    let dist_lens = huffman_lengths(&dist_freq);
    let lit_codes = canonical_codes(&lit_lens);
    let dist_codes = canonical_codes(&dist_lens);

    // Encode into a scratch buffer so we can fall back to a raw block.
    let mut w = BitWriter::new(Vec::new());
    for lens in [&lit_lens, &dist_lens] {
        for &l in lens.iter() {
            w.put(l as u64, 4);
        }
    }
    for s in seqs {
        for &b in &data[s.lit_start..s.lit_start + s.lit_len] {
            w.put_code(lit_codes[b as usize], lit_lens[b as usize]);
        }
        if s.match_len > 0 {
            let lc = len_code(s.match_len);
            let sym = 257 + lc;
            w.put_code(lit_codes[sym], lit_lens[sym]);
            let (base, extra) = LEN_TABLE[lc];
            if extra > 0 {
                w.put((s.match_len as u32 - base) as u64, extra);
            }
            let dc = dist_code(s.match_dist);
            w.put_code(dist_codes[dc], dist_lens[dc]);
            let (dbase, dextra) = DIST_TABLE[dc];
            if dextra > 0 {
                w.put((s.match_dist as u32 - dbase) as u64, dextra);
            }
        }
    }
    w.put_code(lit_codes[EOB], lit_lens[EOB]);
    let encoded = w.finish();

    if encoded.len() >= raw_bytes + 4 {
        out.push(0);
        out.extend_from_slice(&(raw_bytes as u32).to_le_bytes());
        let start = seqs.first().map_or(0, |s| s.lit_start);
        out.extend_from_slice(&data[start..start + raw_bytes]);
    } else {
        out.push(1);
        out.extend_from_slice(&encoded);
    }
}

pub(crate) fn decompress<D: SymbolDecoder>(
    data: &[u8],
    magic: [u8; 4],
) -> Result<Vec<u8>, CompressError> {
    let body = data
        .get(4..)
        .filter(|_| data[..4] == magic)
        .ok_or(CompressError::BadMagic)?;
    if body.len() < 8 {
        return Err(CompressError::Truncated);
    }
    // Sanity-cap the declared size against what the actual stream could
    // possibly decode to *before* sizing any buffer from it: a corrupt
    // header claiming terabytes must fail typed, not OOM.
    let declared = le_u64(body);
    let payload_len = body.len() as u64 - 8;
    if declared > payload_len.saturating_mul(MAX_EXPANSION) {
        return Err(CompressError::Corrupt(
            "declared size exceeds stream capacity",
        ));
    }
    let size = usize::try_from(declared)
        .map_err(|_| CompressError::Corrupt("declared size exceeds address space"))?;
    // Per-block accounting happens at block granularity (64 KiB-scale), so
    // the cost is a handful of atomic adds per megabyte of trace.
    let stats = &mbp_stats::pipeline().compress;
    let _span = stats.inflate.span();
    let _event =
        mbp_stats::events::span_with_arg(mbp_stats::events::EventName::CompressInflate, declared);
    let mut out = Vec::with_capacity(size);
    let mut rest = &body[8..];
    while out.len() < size {
        let (&kind, tail) = rest.split_first().ok_or(CompressError::Truncated)?;
        rest = tail;
        let block_in = rest.len();
        let block_out = out.len();
        match kind {
            0 => {
                if rest.len() < 4 {
                    return Err(CompressError::Truncated);
                }
                let len = le_u32(rest) as usize;
                if rest.len() < 4 + len {
                    return Err(CompressError::Truncated);
                }
                if len > size - out.len() {
                    return Err(CompressError::Corrupt("output exceeds declared size"));
                }
                out.extend_from_slice(&rest[4..4 + len]);
                rest = &rest[4 + len..];
            }
            1 => {
                let consumed = decode_block::<D>(rest, size, &mut out)?;
                rest = &rest[consumed..];
            }
            _ => return Err(CompressError::Corrupt("unknown block kind")),
        }
        let consumed = (block_in - rest.len()) as u64;
        let produced = (out.len() - block_out) as u64;
        stats.blocks_inflated.inc();
        stats.compressed_bytes.add(consumed);
        stats.inflated_bytes.add(produced);
        if let Some(ratio_pct) = (100 * produced).checked_div(consumed) {
            stats.block_ratio_pct.record(ratio_pct);
        }
    }
    let trailer = rest.get(..8).ok_or(CompressError::Truncated)?;
    if le_u64(trailer) != checksum64(&out) {
        return Err(CompressError::Corrupt("content checksum mismatch"));
    }
    Ok(out)
}

fn decode_block<D: SymbolDecoder>(
    data: &[u8],
    size: usize,
    out: &mut Vec<u8>,
) -> Result<usize, CompressError> {
    let mut r = BitReader::new(data);
    let mut lit_lens = [0u32; NUM_LITLEN];
    let mut dist_lens = [0u32; NUM_DIST];
    for lens in [&mut lit_lens[..], &mut dist_lens[..]] {
        for l in lens.iter_mut() {
            *l = r.get(4)? as u32;
        }
    }
    let lit_dec = D::build(&lit_lens)?;
    let dist_dec = D::build(&dist_lens)?;
    loop {
        let sym = lit_dec.decode(&mut r)? as usize;
        match sym {
            0..=255 => {
                if out.len() >= size {
                    return Err(CompressError::Corrupt("output exceeds declared size"));
                }
                out.push(sym as u8);
            }
            EOB => break,
            _ => {
                let lc = sym - 257;
                if lc >= NUM_LEN_CODES {
                    return Err(CompressError::Corrupt("invalid length code"));
                }
                let (base, extra) = LEN_TABLE[lc];
                let len = base as usize + r.get(extra)? as usize;
                let dc = dist_dec.decode(&mut r)? as usize;
                if dc >= NUM_DIST {
                    return Err(CompressError::Corrupt("invalid distance code"));
                }
                let (dbase, dextra) = DIST_TABLE[dc];
                let dist = dbase as usize + r.get(dextra)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CompressError::Corrupt("match distance out of range"));
                }
                if len > size - out.len() {
                    return Err(CompressError::Corrupt("output exceeds declared size"));
                }
                copy_match(out, dist, len);
            }
        }
    }
    r.align();
    Ok(r.byte_pos())
}

/// Appends `len` bytes copied from `dist` bytes back, with LZ semantics:
/// when the match overlaps its own output (`dist < len`), the bytes it
/// copies repeat with period `dist`. The span from the match source to
/// the end of `out` is always a whole number of periods, so each copy can
/// take all of it, doubling the span until `len` bytes are out.
///
/// The caller has checked `1 <= dist <= out.len()`.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    let mut left = len;
    while left > 0 {
        let n = left.min(out.len() - start);
        out.extend_from_within(start..start + n);
        left -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::{BitwiseDecoder, TableDecoder};
    use mbp_utils::Xorshift64;

    const MAGIC: [u8; 4] = *b"TST1";

    /// Frames `seqs` over `data` as one entropy-coded block.
    fn frame(data: &[u8], seqs: &[Sequence]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        encode_block(data, seqs, &mut out);
        assert_eq!(out[12], 1, "the block must be entropy coded, not stored");
        out.extend_from_slice(&checksum64(data).to_le_bytes());
        out
    }

    /// Random literal runs and matches, expanded by the byte-at-a-time
    /// reference loop. Distances favour overlapping copies: 1, periods
    /// that do not divide the length, and the longest encodable match.
    fn random_sequences(rng: &mut Xorshift64, count: usize) -> (Vec<u8>, Vec<Sequence>) {
        let mut data = Vec::new();
        let mut seqs = Vec::new();
        for i in 0..count {
            let lit_start = data.len();
            let lit_len = 1 + (rng.next_u64() % 6) as usize;
            data.extend((0..lit_len).map(|_| rng.next_u64() as u8));
            let r = rng.next_u64();
            let match_dist = match i % 4 {
                0 => 1,
                1 => 2 + (r % 6) as usize,
                2 => 1 + (r as usize % data.len()),
                _ => 3,
            }
            .min(data.len());
            let match_len = match i % 5 {
                0 => 2179,
                1 => (4 + match_dist * 3 + 1).min(2179),
                _ => 4 + (r >> 8) as usize % 300,
            };
            for _ in 0..match_len {
                data.push(data[data.len() - match_dist]);
            }
            seqs.push(Sequence {
                lit_start,
                lit_len,
                match_len,
                match_dist,
            });
        }
        seqs.push(Sequence {
            lit_start: data.len(),
            lit_len: 0,
            match_len: 0,
            match_dist: 0,
        });
        (data, seqs)
    }

    #[test]
    fn overlapping_matches_decode_like_the_byte_loop_under_both_decoders() {
        let mut rng = Xorshift64::new(0x1a7e);
        for round in 0..20 {
            let (data, seqs) = random_sequences(&mut rng, 40);
            assert!(seqs
                .iter()
                .any(|s| s.match_len == 2179 && s.match_dist == 1));
            assert!(seqs.iter().any(|s| s.match_dist > 1
                && s.match_len > s.match_dist
                && s.match_len % s.match_dist != 0));
            let packed = frame(&data, &seqs);
            assert_eq!(
                decompress::<TableDecoder>(&packed, MAGIC).as_deref(),
                Ok(&data[..]),
                "table decoder, round {round}"
            );
            assert_eq!(
                decompress::<BitwiseDecoder>(&packed, MAGIC).as_deref(),
                Ok(&data[..]),
                "bitwise decoder, round {round}"
            );
        }
    }

    #[test]
    fn copy_match_repeats_every_period() {
        for dist in 1..=9 {
            for len in [1, dist, dist + 1, 3 * dist + 2, 2179] {
                let mut fast: Vec<u8> = (0..20u8).collect();
                let mut slow = fast.clone();
                copy_match(&mut fast, dist, len);
                for _ in 0..len {
                    slow.push(slow[slow.len() - dist]);
                }
                assert_eq!(fast, slow, "dist {dist} len {len}");
            }
        }
    }
}
