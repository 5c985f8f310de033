//! MurmurHash3 (x64 variant, 128-bit output), implemented from the public
//! domain reference; the paper uses MurmurHash3 as "a fast hash function
//! that produces well-distributed hash values" for both the structural-hash
//! and heap-path strategies (Sec. 5.2, 5.3).
//!
//! [`hash64`] returns the low 64 bits of the 128-bit digest — the 64-bit
//! object identities the paper's strategies compute. [`Hasher128`] is the
//! same function as a streaming [`std::hash::Hasher`], for values that are
//! fed piecewise through their `Hash` impl instead of from one byte slice.

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

#[inline]
fn mix_k1(k1: u64) -> u64 {
    k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2)
}

#[inline]
fn mix_k2(k2: u64) -> u64 {
    k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1)
}

/// The two running lanes of the digest. One definition of the block, tail
/// and finalisation rounds, shared by [`hash128`] (one slice) and
/// [`Hasher128`] (any split of the same bytes).
#[derive(Debug, Clone, Copy)]
struct Lanes {
    h1: u64,
    h2: u64,
}

impl Lanes {
    /// Mixes one full 16-byte block.
    #[inline]
    fn block(&mut self, b: &[u8; 16]) {
        let k1 = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
        let k2 = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));

        self.h1 ^= mix_k1(k1);
        self.h1 = self.h1.rotate_left(27).wrapping_add(self.h2);
        self.h1 = self.h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        self.h2 ^= mix_k2(k2);
        self.h2 = self.h2.rotate_left(31).wrapping_add(self.h1);
        self.h2 = self.h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    /// Mixes the final `< 16` bytes and the total input length, and runs
    /// the finalisation rounds.
    #[inline]
    fn finish(mut self, tail: &[u8], len: u64) -> (u64, u64) {
        debug_assert!(tail.len() < 16);
        let mut k1: u64 = 0;
        let mut k2: u64 = 0;
        for i in (8..tail.len()).rev() {
            k2 ^= u64::from(tail[i]) << ((i - 8) * 8);
        }
        if tail.len() > 8 {
            self.h2 ^= mix_k2(k2);
        }
        for i in (0..tail.len().min(8)).rev() {
            k1 ^= u64::from(tail[i]) << (i * 8);
        }
        if !tail.is_empty() {
            self.h1 ^= mix_k1(k1);
        }

        let (mut h1, mut h2) = (self.h1 ^ len, self.h2 ^ len);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (h1, h2)
    }
}

/// Computes the 128-bit MurmurHash3 (x64) of `data` with the given seed.
pub fn hash128(data: &[u8], seed: u64) -> (u64, u64) {
    let mut lanes = Lanes { h1: seed, h2: seed };
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        lanes.block(b.try_into().expect("16 bytes"));
    }
    lanes.finish(blocks.remainder(), data.len() as u64)
}

/// The 64-bit object identity used throughout Sec. 5: the low half of the
/// 128-bit digest, seed 0.
///
/// ```
/// use nimage_order::murmur3::hash64;
///
/// // Deterministic and content-sensitive — the properties the identity
/// // matching of Sec. 5 relies on.
/// assert_eq!(hash64(b"rt.Meta"), hash64(b"rt.Meta"));
/// assert_ne!(hash64(b"rt.Meta"), hash64(b"rt.Mode"));
/// ```
pub fn hash64(data: &[u8]) -> u64 {
    hash128(data, 0).0
}

/// Bytes [`Hasher128`] stages before mixing them: a multiple of the 16-byte
/// block, large enough that a run of small writes (a type name, an 8-byte
/// integer) costs a copy each and the mixing runs over whole blocks.
const STAGE: usize = 64;

/// [`hash128`] as a streaming [`std::hash::Hasher`]: feeding the bytes of
/// `d` in any split yields `hash128(d, seed)`.
///
/// Every integer write is fixed-width little-endian — `usize`/`isize`
/// (and with them the length prefix `Hash for [T]` emits) widen to 64 bits
/// — so the digest of a `#[derive(Hash)]` value depends on neither the
/// host's pointer width nor its byte order.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    lanes: Lanes,
    /// Bytes not yet mixed: `buf[..pending]`.
    buf: [u8; STAGE],
    pending: usize,
    /// Total bytes written.
    len: u64,
}

impl Hasher128 {
    /// An empty stream under `seed`.
    pub fn with_seed(seed: u64) -> Hasher128 {
        Hasher128 {
            lanes: Lanes { h1: seed, h2: seed },
            buf: [0; STAGE],
            pending: 0,
            len: 0,
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish128(&self) -> (u64, u64) {
        let mut lanes = self.lanes;
        let mut blocks = self.buf[..self.pending].chunks_exact(16);
        for b in &mut blocks {
            lanes.block(b.try_into().expect("16 bytes"));
        }
        lanes.finish(blocks.remainder(), self.len)
    }

    /// A write that overflows the stage: fills it, mixes it, mixes the
    /// rest of `bytes` block by block and stages the remainder.
    #[inline(never)]
    fn write_through(&mut self, bytes: &[u8]) {
        let (head, rest) = bytes.split_at(STAGE - self.pending);
        self.buf[self.pending..].copy_from_slice(head);
        for b in self.buf.chunks_exact(16) {
            self.lanes.block(b.try_into().expect("16 bytes"));
        }
        let mut blocks = rest.chunks_exact(16);
        for b in &mut blocks {
            self.lanes.block(b.try_into().expect("16 bytes"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }
}

impl std::hash::Hasher for Hasher128 {
    /// The low half of [`Hasher128::finish128`], as [`hash64`] is of
    /// [`hash128`].
    fn finish(&self) -> u64 {
        self.finish128().0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let end = self.pending + bytes.len();
        if end <= STAGE {
            self.buf[self.pending..end].copy_from_slice(bytes);
            self.pending = end;
        } else {
            self.write_through(bytes);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    /// Widened to 64 bits: also what the default `write_length_prefix`
    /// (slice and `Vec` lengths) goes through.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_i64(i as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};

    /// Reference vectors computed with the canonical C++
    /// `MurmurHash3_x64_128` implementation (seed 0).
    const REFERENCE: [(&[u8], (u64, u64)); 4] = [
        (b"", (0, 0)),
        (b"hello", (0xcbd8_a7b3_41bd_9b02, 0x5b1e_906a_48ae_1d19)),
        (
            b"hello, world",
            (0x342f_ac62_3a5e_bc8e, 0x4cdc_bc07_9642_414d),
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            (0xe34b_bc7b_bc07_1b6c, 0x7a43_3ca9_c49a_9347),
        ),
    ];

    /// Feeds `data` to a fresh stream in the pieces `cuts` delimits
    /// (positions into `data`, any order, out-of-range ones clamped).
    fn streamed(data: &[u8], seed: u64, cuts: &[usize]) -> (u64, u64) {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut h = Hasher128::with_seed(seed);
        let mut at = 0;
        for c in cuts {
            h.write(&data[at..c]);
            at = c;
        }
        assert_eq!(h.len(), data.len() as u64);
        h.finish128()
    }

    #[test]
    fn reference_vectors() {
        for (data, digest) in REFERENCE {
            assert_eq!(hash128(data, 0), digest);
            assert_eq!(streamed(data, 0, &[]), digest);
            assert_eq!(streamed(data, 0, &[1, 17]), digest);
        }
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(hash128(b"hello", 0), hash128(b"hello", 1));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash64(&i.to_le_bytes())), "collision at {i}");
        }
    }

    #[test]
    fn all_tail_lengths_are_covered() {
        // Exercise every 0..16 tail length against basic sanity.
        let data: Vec<u8> = (0u8..64).collect();
        let mut outs = std::collections::HashSet::new();
        for len in 0..=32 {
            assert!(outs.insert(hash64(&data[..len])));
        }
    }

    #[test]
    fn stream_equals_one_shot_at_every_split_point() {
        // Past twice the stage, so every fill level meets a write that
        // overflows it.
        let data: Vec<u8> = (0u8..150).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=data.len() {
            let d = &data[..len];
            let want = hash128(d, 0x6e69);
            for cut in 0..=len {
                assert_eq!(streamed(d, 0x6e69, &[cut]), want, "len {len} cut {cut}");
            }
            // Byte at a time: every buffer fill level is crossed.
            let every: Vec<usize> = (0..len).collect();
            assert_eq!(streamed(d, 0x6e69, &every), want, "len {len} bytewise");
        }
    }

    #[test]
    fn finish128_does_not_consume_the_stream() {
        let mut h = Hasher128::with_seed(7);
        assert!(h.is_empty());
        h.write(b"hello, ");
        assert_eq!(h.finish128(), hash128(b"hello, ", 7));
        h.write(b"world");
        assert_eq!(h.finish128(), hash128(b"hello, world", 7));
        assert_eq!(h.finish(), hash128(b"hello, world", 7).0);
    }

    /// The byte sequence the integer writes put on the stream, pinned: a
    /// `usize` (and so every slice/`Vec` length prefix) is 8 little-endian
    /// bytes whatever the host's pointer width.
    #[test]
    fn integer_writes_are_fixed_width_little_endian() {
        let mut h = Hasher128::with_seed(0);
        h.write_u8(0x01);
        h.write_u16(0x0302);
        h.write_u32(0x0706_0504);
        h.write_u64(0x0f0e_0d0c_0b0a_0908);
        h.write_usize(0x10);
        h.write_isize(-2);
        h.write_i32(-1);
        h.write_u128(0x11);
        let mut bytes: Vec<u8> = (1..=15).collect();
        bytes.extend_from_slice(&[0x10, 0, 0, 0, 0, 0, 0, 0]);
        bytes.extend_from_slice(&(-2i64).to_le_bytes());
        bytes.extend_from_slice(&[0xff; 4]);
        bytes.extend_from_slice(&0x11u128.to_le_bytes());
        assert_eq!(h.len(), bytes.len() as u64);
        assert_eq!(h.finish128(), hash128(&bytes, 0));

        // `Hash for [T]` length-prefixes through `write_usize`.
        let mut h = Hasher128::with_seed(0);
        [0xaau8, 0xbb][..].hash(&mut h);
        assert_eq!(
            h.finish128(),
            hash128(&[2, 0, 0, 0, 0, 0, 0, 0, 0xaa, 0xbb], 0)
        );
    }

    proptest! {
        #[test]
        fn stream_equals_one_shot_for_random_splits(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..40),
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(streamed(&data, seed, &cuts), hash128(&data, seed));
        }
    }
}
