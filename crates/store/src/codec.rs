//! The block codec: a dependency-free, lossless compressor for
//! trace-word runs.
//!
//! The paper keeps traces out of storage because raw system traces
//! are enormous (§3.1–§3.2: one word per basic block or memory
//! reference adds up to gigabytes per minute of traced execution).
//! But trace words are extremely *regular*, and the regularity is
//! exactly the structure §3.3 describes:
//!
//! * basic-block ids within one run of execution are near-monotone —
//!   consecutive blocks of straight-line code are a few hundred bytes
//!   apart, and loops revisit the *same* block sequence over and over;
//! * data addresses cluster (stack frames, array sweeps) and loops
//!   touch recurring addresses;
//! * page-0 control words are rare (a handful of context switches and
//!   kernel entries per thousands of address words).
//!
//! The codec exploits both forms of locality with one dependency-free
//! model, used two ways per word:
//!
//! 1. **FCM hit** — a finite-context model: a small table maps (a hash
//!    of) the previous word to the word that followed it last time.
//!    Loops make this predictor nearly perfect after their first
//!    iteration, and a hit costs a single byte (varint `0`).
//! 2. **Delta against the prediction** — on a miss, the word is coded
//!    as a zigzag+varint delta against the FCM's (wrong but usually
//!    *close*) prediction, or against the previous word when the slot
//!    is cold. A loop walking an array, or a context revisited with a
//!    slightly different successor, misses by a handful of bytes — a
//!    one-byte token — where a delta against some fixed reference
//!    would pay for the full address.
//!
//! Both encoder and decoder run the identical model state machine, so
//! decompression is exact. All state is per-block: every block decodes
//! independently, which is what lets parallel query workers decode
//! blocks concurrently and lets a seekable reader jump anywhere.

/// Errors from [`decompress_block`] and the columnar
/// [`crate::column`] codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The compressed bytes ended inside a token.
    Truncated,
    /// A varint token ran longer than any valid encoding.
    Overlong,
    /// The block decoded to its word count with bytes left over.
    TrailingBytes(usize),
    /// A columnar block's CRC over its own *encoded* bytes did not
    /// match — some column section is damaged, and no predictor is
    /// run on it. The leading CRC guards the decode itself.
    EncodedCrcMismatch {
        /// CRC stored at the head of the block.
        want: u32,
        /// CRC of the encoded section bytes as read.
        got: u32,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed block truncated mid-token"),
            CodecError::Overlong => write!(f, "overlong varint token"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last word"),
            CodecError::EncodedCrcMismatch { want, got } => {
                write!(
                    f,
                    "column sections fail their CRC (stored {want:#010x}, computed {got:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Entries in the finite-context predictor table (per block, zeroed
/// at each block boundary so blocks stay independent).
pub const FCM_SIZE: usize = 4096;

#[inline]
fn fcm_slot(prev: u32) -> usize {
    // Fibonacci hash of the previous word; the multiplier spreads
    // nearby addresses across the table.
    (prev.wrapping_mul(0x9e37_79b1) >> (32 - 12)) as usize & (FCM_SIZE - 1)
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub(crate) fn take_varint(buf: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*at).ok_or(CodecError::Truncated)?;
        *at += 1;
        // Tokens are ≤ zigzag(u32 delta) + 1 < 2^34, so anything
        // needing more than five varint groups is junk.
        if shift > 28 {
            return Err(CodecError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

thread_local! {
    /// The finite-context table, reused across blocks and cleared per
    /// block rather than allocated per block.
    static FCM: core::cell::RefCell<Box<[u32; FCM_SIZE]>> =
        core::cell::RefCell::new(Box::new([0; FCM_SIZE]));
}

/// Shared model state; encoder and decoder step it identically.
struct Model<'a> {
    fcm: &'a mut [u32; FCM_SIZE],
    prev: u32,
}

impl Model<'_> {
    /// Runs `f` on a fresh model over this thread's cleared table.
    fn with<R>(f: impl FnOnce(Model<'_>) -> R) -> R {
        FCM.with(|t| {
            let fcm = &mut **t.borrow_mut();
            fcm.fill(0);
            f(Model { fcm, prev: 0 })
        })
    }

    /// The prediction for the next word, and the miss-delta base: the
    /// prediction itself if the slot is warm, else the previous word.
    /// (A zero slot is indistinguishable from a cold one; both sides
    /// apply the same rule, so the choice only affects size, and zero
    /// is never a *useful* prediction — page-zero words below the
    /// control opcodes don't occur in healthy traces.)
    #[inline]
    fn predict(&self) -> (u32, u32) {
        let pred = self.fcm[fcm_slot(self.prev)];
        let base = if pred != 0 { pred } else { self.prev };
        (pred, base)
    }

    /// Advances the model past one (just-coded) word.
    #[inline]
    fn advance(&mut self, w: u32) {
        self.fcm[fcm_slot(self.prev)] = w;
        self.prev = w;
    }
}

/// Compresses one block of trace words. The output decodes with
/// [`decompress_block`] given the exact word count.
pub fn compress_block(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() + 16);
    Model::with(|mut m| {
        for &w in words {
            let (pred, base) = m.predict();
            if pred == w {
                // FCM hit: one byte.
                put_varint(&mut out, 0);
            } else {
                let d = i64::from(w) - i64::from(base);
                put_varint(&mut out, zigzag(d) + 1);
            }
            m.advance(w);
        }
    });
    out
}

/// Decompresses a block produced by [`compress_block`]. `n_words` is
/// the block's word count from the store index; the byte stream must
/// decode to exactly that many words with no bytes left over.
pub fn decompress_block(bytes: &[u8], n_words: usize) -> Result<Vec<u32>, CodecError> {
    // Every word costs at least one token byte, so a count exceeding
    // the byte length is certainly junk — cap the preallocation by it
    // rather than trusting an attacker-controlled count.
    let mut words = Vec::with_capacity(n_words.min(bytes.len()));
    decompress_block_into(bytes, n_words, &mut words)?;
    Ok(words)
}

/// Like [`decompress_block`], but appends onto `out` instead of
/// allocating — the batch-decode form the whole-file readers use to
/// decode block runs into one buffer without per-block allocation.
pub fn decompress_block_into(
    bytes: &[u8],
    n_words: usize,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    out.reserve(n_words.min(bytes.len()));
    Model::with(|mut m| {
        let mut at = 0usize;
        for _ in 0..n_words {
            let token = take_varint(bytes, &mut at)?;
            let (pred, base) = m.predict();
            let w = if token == 0 {
                pred
            } else {
                // Wrapping on an out-of-range delta keeps decode total;
                // the CRC catches real corruption.
                (i64::from(base) + unzigzag(token - 1)) as u32
            };
            out.push(w);
            m.advance(w);
        }
        if at != bytes.len() {
            return Err(CodecError::TrailingBytes(bytes.len() - at));
        }
        Ok(())
    })
}

/// Compile-time slice-by-8 tables for the reflected IEEE 802.3
/// polynomial. `CRC_TABLES[0]` is the classic one-byte-at-a-time
/// table; `CRC_TABLES[j]` advances a byte `j` positions further, so
/// eight table lookups retire eight input bytes with no loop-carried
/// bit-by-bit dependency. 8 KiB of tables buys roughly an order of
/// magnitude over the bitwise form — and the CRC runs over every
/// stored block, every container checksum and every wire frame, so
/// it sits on the critical path of queries end to end.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// One slice-by-8 step: folds the eight bytes `lo` (low four, already
/// XORed with the running CRC) and `hi` into a fresh CRC value.
#[inline]
fn crc_step8(lo: u32, hi: u32) -> u32 {
    CRC_TABLES[7][(lo & 0xff) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xff) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// One slice-by-4 step over `x = crc ^ next_word_le`.
#[inline]
fn crc_step4(x: u32) -> u32 {
    CRC_TABLES[3][(x & 0xff) as usize]
        ^ CRC_TABLES[2][((x >> 8) & 0xff) as usize]
        ^ CRC_TABLES[1][((x >> 16) & 0xff) as usize]
        ^ CRC_TABLES[0][(x >> 24) as usize]
}

/// Carryless-multiply CRC kernel (x86-64 `PCLMULQDQ`): folds the
/// message as 128-bit polynomial lanes instead of walking table
/// slices, roughly an order of magnitude over slice-by-8 on the
/// 16 KiB frames the trace service CRCs twice per query. Runtime
/// feature detection picks it; every other target — and every short
/// input — takes the table path, and the differential test pins the
/// two paths equal against a bitwise reference.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    // Folding constants for the reflected IEEE 802.3 polynomial,
    // from the Intel white paper "Fast CRC Computation for Generic
    // Polynomials Using PCLMULQDQ" (the same values zlib and the
    // Linux kernel use): K1/K2 fold at distance 512 bits, K3/K4 at
    // 128, K5 reduces 96→64, and P_X/U_PRIME are the Barrett pair.
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const P_X: i64 = 0x0001_db71_0641;
    const U_PRIME: i64 = 0x0001_f701_1641;

    /// Cached feature probe: 0 = not yet checked, 1 = absent,
    /// 2 = present.
    static DETECTED: AtomicU8 = AtomicU8::new(0);

    /// Whether the CPU has `PCLMULQDQ` + SSE4.1 (cached after the
    /// first call).
    pub fn available() -> bool {
        match DETECTED.load(Ordering::Relaxed) {
            0 => {
                let ok =
                    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
                DETECTED.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
            n => n == 2,
        }
    }

    /// One fold step: `a`'s two 64-bit halves each multiplied by
    /// their key, xored with the incoming lane `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, keys, 0x00)),
            _mm_clmulepi64_si128(a, keys, 0x11),
        )
    }

    /// Folds `bytes` — length a nonzero multiple of 16 — into the
    /// raw (uncomplemented) shift-register state and reduces back to
    /// 32 bits.
    ///
    /// # Safety
    ///
    /// The caller must have checked [`available`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(!bytes.is_empty() && bytes.len().is_multiple_of(16));
        // SAFETY: `_mm_loadu_si128` has no alignment requirement and
        // every caller slice below is 16 bytes long.
        let load = |c: &[u8]| unsafe { _mm_loadu_si128(c.as_ptr().cast()) };
        let k3k4 = _mm_set_epi64x(K4, K3);
        let seed = _mm_cvtsi32_si128(state as i32);
        let mut data = bytes;
        let mut x;
        if data.len() >= 64 {
            // Four independent lanes hide the clmul latency.
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut x3 = _mm_xor_si128(load(&data[0..16]), seed);
            let mut x2 = load(&data[16..32]);
            let mut x1 = load(&data[32..48]);
            let mut x0 = load(&data[48..64]);
            data = &data[64..];
            while data.len() >= 64 {
                x3 = fold(x3, load(&data[0..16]), k1k2);
                x2 = fold(x2, load(&data[16..32]), k1k2);
                x1 = fold(x1, load(&data[32..48]), k1k2);
                x0 = fold(x0, load(&data[48..64]), k1k2);
                data = &data[64..];
            }
            x = fold(x3, x2, k3k4);
            x = fold(x, x1, k3k4);
            x = fold(x, x0, k3k4);
        } else {
            x = _mm_xor_si128(load(&data[..16]), seed);
            data = &data[16..];
        }
        while data.len() >= 16 {
            x = fold(x, load(&data[..16]), k3k4);
            data = &data[16..];
        }
        debug_assert!(data.is_empty());
        // 128 → 64: low half × K4 folded into the high half.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 via K5 on the low 32 bits.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction back to a 32-bit remainder.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00), x);
        _mm_extract_epi32(t2, 1) as u32
    }
}

/// Folds `bytes` into the raw shift-register state `crc`, picking
/// the carryless-multiply kernel for long runs when the CPU has it.
fn crc_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && clmul::available() {
        let main = bytes.len() & !15;
        // SAFETY: `available()` confirmed the features; `main` is a
        // nonzero multiple of 16.
        let crc = unsafe { clmul::update(crc, &bytes[..main]) };
        return crc_update_table(crc, &bytes[main..]);
    }
    crc_update_table(crc, bytes)
}

/// The portable slice-by-8 fold (also the tail handler under the
/// carryless-multiply kernel).
fn crc_update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(c[4..].try_into().unwrap());
        crc = crc_step8(lo, hi);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Incremental CRC-32 (IEEE 802.3, reflected). Feed byte slices with
/// [`Crc32::update`]; discontiguous regions hash as if concatenated,
/// which is how the container checksums its metadata around the block
/// area.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running CRC.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Crc32 {
        self.state = crc_update(self.state, bytes);
        self
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// CRC-32 over a byte slice (one-shot form of [`Crc32`]).
pub fn crc32_bytes(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// CRC-32 (IEEE 802.3, reflected) over a little-endian byte view of
/// the words — the end-to-end integrity check of the §4.3 defensive
/// discipline, extended to storage: it runs over the *decoded* words,
/// so it catches codec bugs and at-rest corruption alike.
pub fn crc32_words(words: &[u32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if words.len() >= 16 && clmul::available() {
        // On a little-endian target the in-memory bytes of a `u32`
        // slice ARE its little-endian byte view, so the byte kernel
        // can run over the words directly.
        // SAFETY: `u32` has no padding and every byte pattern is a
        // valid `u8`; the length covers exactly the slice.
        let bytes =
            unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 4) };
        return !crc_update(!0, bytes);
    }
    // A word's little-endian byte view reinterpreted as a
    // little-endian u32 is the word itself, so the slice-by-8 kernel
    // runs on word pairs directly — no byte buffer, no per-word
    // `update` call.
    let mut crc = !0u32;
    let mut pairs = words.chunks_exact(2);
    for p in &mut pairs {
        crc = crc_step8(p[0] ^ crc, p[1]);
    }
    if let &[w] = pairs.remainder() {
        crc = crc_step4(w ^ crc);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::{ctl, CtlOp};

    #[test]
    fn empty_block_round_trips() {
        let bytes = compress_block(&[]);
        assert!(bytes.is_empty());
        assert_eq!(decompress_block(&bytes, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn loopy_trace_compresses_hard() {
        // A loop re-executing the same three-block sequence: after the
        // first iteration the FCM predicts every word, so the whole
        // block approaches one byte per word.
        let mut words = Vec::new();
        for i in 0..1000u32 {
            words.push(0x8003_0100);
            words.push(0x8003_0140);
            words.push(0x8040_0000 + (i % 4) * 8); // recurring data addrs
            words.push(0x8003_0180);
        }
        let bytes = compress_block(&words);
        assert!(
            bytes.len() * 3 <= words.len() * 4,
            "loopy trace must compress ≥3x, got {} bytes for {} words",
            bytes.len(),
            words.len()
        );
        assert_eq!(decompress_block(&bytes, words.len()).unwrap(), words);
    }

    #[test]
    fn mixed_controls_and_addresses_round_trip() {
        let words = vec![
            ctl(CtlOp::CtxSwitch, 3),
            0x0050_0000,
            0x7fff_fff0,
            ctl(CtlOp::KEnter, 8),
            0x8003_0100,
            0x8030_0004,
            ctl(CtlOp::KExit, 0),
            0x0050_0040,
            0x0000_0000, // a (corrupt-trace) zero word must still round-trip
            0xffff_ffff,
            ctl(CtlOp::Eof, 0),
        ];
        let bytes = compress_block(&words);
        assert_eq!(decompress_block(&bytes, words.len()).unwrap(), words);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let words: Vec<u32> = (0..100).map(|i| 0x8000_0000 + i * 4096).collect();
        let bytes = compress_block(&words);
        assert!(matches!(
            decompress_block(&bytes[..bytes.len() - 1], words.len()),
            Err(CodecError::Truncated)
        ));
        let mut extra = bytes.clone();
        extra.push(0x00);
        assert!(matches!(
            decompress_block(&extra, words.len()),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let junk = vec![0xffu8; 12];
        assert!(matches!(
            decompress_block(&junk, 1),
            Err(CodecError::Overlong)
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32("abcd") little-endian packed as one word.
        let w = u32::from_le_bytes(*b"abcd");
        assert_eq!(crc32_words(&[w]), 0xed82_cd11);
        assert_eq!(crc32_words(&[]), 0);
        assert_eq!(crc32_bytes(b"abcd"), 0xed82_cd11);
    }

    #[test]
    fn incremental_crc_equals_one_shot_over_concatenation() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len()] {
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.finish(), crc32_bytes(data), "split={split}");
        }
    }

    /// One-bit-at-a-time reference CRC — the ground truth both the
    /// table and carryless-multiply kernels must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_standard_check_value() {
        // The CRC-32/ISO-HDLC check value from the CRC catalogues.
        assert_eq!(crc32_bytes(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn fast_crc_paths_match_bitwise_reference_at_every_length() {
        // Deterministic pseudo-random fill (SplitMix64-style), long
        // enough to exercise the 4-lane loop, the single-lane folds,
        // the table tail, and every alignment of the boundaries.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(0xd129_6d9c_6a48_83e5).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let lens = (0..130).chain([255, 256, 1023, 1024, 4095, 4096]);
        for len in lens {
            let expect = crc32_bitwise(&buf[..len]);
            assert_eq!(crc32_bytes(&buf[..len]), expect, "len={len}");
            // Split updates must cross the kernel-dispatch boundary
            // without disturbing the running state.
            for split in [0, 1, 15, 16, 63, 64, len] {
                let split = split.min(len);
                let mut c = Crc32::new();
                c.update(&buf[..split]).update(&buf[split..len]);
                assert_eq!(c.finish(), expect, "len={len} split={split}");
            }
        }
    }

    #[test]
    fn crc_over_words_equals_crc_over_their_byte_view() {
        let words: Vec<u32> = (0..997u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc32_words(&words), crc32_bytes(&bytes));
        assert_eq!(crc32_words(&words[..7]), crc32_bytes(&bytes[..28]));
    }

    #[test]
    fn oversized_word_count_errors_without_allocating() {
        // A count far beyond the byte length must fail cleanly (and
        // the preallocation is capped by the input size).
        assert!(matches!(
            decompress_block(&[0u8; 8], usize::MAX),
            Err(CodecError::Truncated)
        ));
    }
}
