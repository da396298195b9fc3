//! The columnar block codec behind archive format version 4.
//!
//! The row codec ([`crate::codec`]) interleaves every kind of trace
//! word through one model, so a loop that alternates basic-block ids
//! with striding data addresses poisons its own context: the predictor
//! keyed on a fresh data address has never seen the bb-id that
//! follows. Version 4 instead splits each block into *columns by word
//! class* — control words (page zero), user-half addresses
//! (`< 0x8000_0000`) and kernel-half addresses — and runs an
//! independent predictor per column, where the regularity actually
//! lives:
//!
//! * **tag column** — one entry per word naming its class. A small
//!   context table keyed on the last six tags predicts the next one;
//!   loop bodies repeat their tag pattern exactly, so a hit costs one
//!   bit (a miss costs three: the flag plus the explicit 2-bit tag).
//! * **per-class flag column** — one to three bits per word of that
//!   class, from three finite-context predictors tried in order.
//!   The *exact* table, keyed on the previous stream word, is a
//!   differential predictor (last value seen after that word, plus
//!   the stride it moved by): basic-block chains, repeated scalar
//!   references and "the array element after bb `X`" all hit it for
//!   one bit. The *stride-history* table, keyed on the class's last
//!   four strides (small strides kept exact, large ones coarsened to
//!   256-byte granularity so a slowly drifting long-range delta keys
//!   one slot for many iterations), predicts the next stride — the
//!   position-in-loop signal that carries stencil sweeps whose every
//!   address drifts per iteration. The *coarse* table, keyed on the
//!   previous word with its low byte dropped (`prev >> 8`), is the
//!   same differential predictor under a context that survives the
//!   key itself striding. The control class keys everything on its
//!   own previous values instead, so control values could decode
//!   without the address columns — a property of the layout no reader
//!   in the tree uses (DESIGN.md "Trace store" counts why not).
//! * **per-class miss column** — zigzag varint of the word against
//!   the stride-history prediction (the best base when a drifting
//!   context goes stale), the only place whole bytes are spent.
//!
//! A block is the seven sections (tag bits, then flag and miss
//! sections for the three classes) each prefixed with a varint byte
//! length, all behind one leading CRC-32 over the encoded bytes,
//! which guards the decode: a damaged section is a typed error before
//! any predictor runs on it, and the store then checks the decoded
//! words against the index CRC as it does for a row block. Blocks are
//! always decoded whole. All model state is per-block, so v4 blocks
//! decode independently and in parallel exactly like v3 blocks.

use core::cell::RefCell;

use crate::codec::{crc32_bytes, put_varint, take_varint, CodecError};
use wrl_trace::format::CTL_LIMIT;

/// Number of column sections in an encoded v4 block: the tag column,
/// then a flag and a miss column per word class.
pub const N_COLUMNS: usize = 7;

/// Section names, in their on-disk order (`tracedump info` prints
/// per-column byte totals under these names).
pub const COLUMN_NAMES: [&str; N_COLUMNS] = [
    "tag",
    "ctl.flag",
    "ctl.miss",
    "user.flag",
    "user.miss",
    "kernel.flag",
    "kernel.miss",
];

/// Slots in the tag-context table (indexed by the last six 2-bit
/// tags).
pub const TAG_SLOTS: usize = 1 << 12;
/// Slots in each per-class finite-context table.
pub const VAL_SLOTS: usize = 4096;

/// The word class driving column assignment. Control words are the
/// page-zero range the parser treats as control ([`CTL_LIMIT`]); the
/// address space splits at the kernel half, which keeps basic-block
/// ids and kernel data apart from user-half activity so each column's
/// predictor sees one coherent stream.
#[inline]
fn word_class(w: u32) -> u8 {
    if w < CTL_LIMIT {
        0
    } else if w < 0x8000_0000 {
        1
    } else {
        2
    }
}

#[inline]
fn val_slot(prev: u32) -> usize {
    (prev.wrapping_mul(0x9e37_79b1) >> (32 - 12)) as usize & (VAL_SLOTS - 1)
}

/// Quantised component of the stride-history key: strides under 4096
/// keep their exact value (a cons-cell walk's distinct small deltas
/// stay distinct contexts), larger ones drop their low byte so a
/// long-range delta that drifts a few bytes per loop iteration keys
/// the same slot for many iterations; the top bit keeps the two
/// ranges disjoint.
#[inline]
fn quant_stride(s: u32) -> u32 {
    if (s as i32).unsigned_abs() < 4096 {
        s
    } else {
        (((s as i32) >> 8) as u32) ^ 0x8000_0000
    }
}

#[inline]
fn zigzag32(d: i32) -> u64 {
    (((d << 1) ^ (d >> 31)) as u32) as u64
}

#[inline]
fn unzigzag32(z: u64) -> i32 {
    let z = z as u32;
    ((z >> 1) as i32) ^ -((z & 1) as i32)
}

/// Generation-tagged model tables, reused across blocks: resetting
/// between blocks is a generation bump, not a 100 KiB memset — the
/// difference between a codec that batch-decodes 64-word service
/// blocks at full speed and one that spends its time zeroing tables.
struct Scratch {
    /// Tag-context table; entry = `gen << 2 | tag`, valid iff the
    /// generation matches.
    tag: Vec<u32>,
    /// Per-class *exact* value tables, keyed on the full previous
    /// word; entry = `gen << 32 | word`, valid iff the generation
    /// matches.
    eval: [Vec<u64>; 3],
    /// Strides parallel to `eval` (valid exactly when the `eval`
    /// entry is): the delta the slot's value moved by last time,
    /// making each exact slot a differential predictor.
    estride: [Vec<u32>; 3],
    /// Per-class *coarse* value tables, keyed on `prev >> 8`; entry =
    /// `gen << 32 | word`, valid iff the generation matches.
    val: [Vec<u64>; 3],
    /// Per-class stride tables, parallel to `val` (valid exactly when
    /// the `val` entry is): the delta the slot's value moved by last
    /// time, making each coarse slot a differential predictor.
    stride: [Vec<u32>; 3],
    /// Per-class *stride-history* tables, keyed on a hash of the
    /// class's last four quantised strides; entry =
    /// `gen << 32 | stride`, valid iff the generation matches.
    dstride: [Vec<u64>; 3],
    gen: u32,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            tag: vec![0; TAG_SLOTS],
            eval: [vec![0; VAL_SLOTS], vec![0; VAL_SLOTS], vec![0; VAL_SLOTS]],
            estride: [vec![0; VAL_SLOTS], vec![0; VAL_SLOTS], vec![0; VAL_SLOTS]],
            val: [vec![0; VAL_SLOTS], vec![0; VAL_SLOTS], vec![0; VAL_SLOTS]],
            stride: [vec![0; VAL_SLOTS], vec![0; VAL_SLOTS], vec![0; VAL_SLOTS]],
            dstride: [vec![0; VAL_SLOTS], vec![0; VAL_SLOTS], vec![0; VAL_SLOTS]],
            gen: 0,
        }
    }

    /// Starts a fresh block: every table slot becomes invalid in O(1).
    fn begin(&mut self) {
        self.gen += 1;
        // The tag entries pack the generation above 2 tag bits, so
        // wrap long before the packing could overflow (once per ~10^9
        // blocks) with a real reset.
        if self.gen >= 1 << 29 {
            self.tag.iter_mut().for_each(|e| *e = 0);
            for t in self
                .eval
                .iter_mut()
                .chain(&mut self.val)
                .chain(&mut self.dstride)
            {
                t.iter_mut().for_each(|e| *e = 0);
            }
            for t in self.stride.iter_mut().chain(&mut self.estride) {
                t.iter_mut().for_each(|e| *e = 0);
            }
            self.gen = 1;
        }
    }

    #[inline]
    fn tag_pred(&self, hist: usize) -> Option<u8> {
        let e = self.tag[hist];
        (e >> 2 == self.gen).then_some((e & 3) as u8)
    }

    #[inline]
    fn eval_pred(&self, c: usize, slot: usize) -> Option<u32> {
        let e = self.eval[c][slot];
        ((e >> 32) as u32 == self.gen).then_some(e as u32)
    }

    #[inline]
    fn val_pred(&self, c: usize, slot: usize) -> Option<u32> {
        let e = self.val[c][slot];
        ((e >> 32) as u32 == self.gen).then_some(e as u32)
    }

    #[inline]
    fn dstride_pred(&self, c: usize, slot: usize) -> Option<u32> {
        let e = self.dstride[c][slot];
        ((e >> 32) as u32 == self.gen).then_some(e as u32)
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// LSB-first bit writer.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    cur: u32,
    n: u32,
}

impl BitWriter {
    #[inline]
    fn push(&mut self, b: bool) {
        self.cur |= u32::from(b) << self.n;
        self.n += 1;
        if self.n == 8 {
            self.bytes.push(self.cur as u8);
            self.cur = 0;
            self.n = 0;
        }
    }

    #[inline]
    fn push2(&mut self, v: u8) {
        self.push(v & 1 != 0);
        self.push(v & 2 != 0);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            self.bytes.push(self.cur as u8);
        }
        self.bytes
    }
}

/// LSB-first bit reader; every read is bounds-checked so decode stays
/// total on arbitrary bytes.
struct BitReader<'a> {
    bytes: &'a [u8],
    at: usize,
    cur: u32,
    left: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader {
            bytes,
            at: 0,
            cur: 0,
            left: 0,
        }
    }

    #[inline]
    fn bit(&mut self) -> Result<bool, CodecError> {
        if self.left == 0 {
            self.cur = u32::from(*self.bytes.get(self.at).ok_or(CodecError::Truncated)?);
            self.at += 1;
            self.left = 8;
        }
        let b = self.cur & 1;
        self.cur >>= 1;
        self.left -= 1;
        Ok(b != 0)
    }

    #[inline]
    fn two(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from(self.bit()?) | (u8::from(self.bit()?) << 1))
    }

    /// All bytes consumed (padding bits in the final byte excepted)?
    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Per-class model state (the tables live in [`Scratch`]).
#[derive(Clone, Copy, Default)]
struct ClassState {
    prev: u32,
    stride: u32,
    /// The class's last four quantised strides, most recent first —
    /// the stride-history key.
    hist: [u32; 4],
    /// A class is warm once it has a real previous value; the
    /// stride-history table is only taught from warm strides.
    warm: bool,
}

impl ClassState {
    #[inline]
    fn stride_pred(&self) -> u32 {
        self.prev.wrapping_add(self.stride)
    }

    #[inline]
    fn hist_slot(&self) -> usize {
        let mut k = 0u32;
        for (i, &h) in self.hist.iter().enumerate() {
            k ^= h.rotate_left(11 * i as u32);
        }
        val_slot(k)
    }

    #[inline]
    fn advance(&mut self, w: u32) {
        let s = w.wrapping_sub(self.prev);
        if self.warm {
            self.hist = [quant_stride(s), self.hist[0], self.hist[1], self.hist[2]];
        }
        self.stride = s;
        self.prev = w;
        self.warm = true;
    }
}

/// One word's worth of predictions: the three predictors in flag
/// order, plus the table slots they read (so the update step writes
/// exactly where the prediction looked).
struct Preds {
    e_slot: usize,
    c_slot: usize,
    d_slot: usize,
    /// Exact-table differential prediction; `None` while the slot is
    /// cold this block.
    p1: Option<u32>,
    /// Stride-history prediction (class running stride when cold) —
    /// also the miss-varint base.
    p3: u32,
    /// Coarse-table differential prediction (class running stride
    /// when cold).
    p2: u32,
}

#[inline]
fn predict(s: &Scratch, cls: &ClassState, c: usize, key: u32) -> Preds {
    let e_slot = val_slot(key);
    let c_slot = val_slot(key >> 8);
    let d_slot = cls.hist_slot();
    let p1 = s
        .eval_pred(c, e_slot)
        .map(|v| v.wrapping_add(s.estride[c][e_slot]));
    let p3 = match s.dstride_pred(c, d_slot) {
        Some(st) => cls.prev.wrapping_add(st),
        None => cls.stride_pred(),
    };
    let p2 = match s.val_pred(c, c_slot) {
        Some(v) => v.wrapping_add(s.stride[c][c_slot]),
        None => cls.stride_pred(),
    };
    Preds {
        e_slot,
        c_slot,
        d_slot,
        p1,
        p3,
        p2,
    }
}

/// Teaches every table the observed word, in the slots [`predict`]
/// read, then advances the class state. Encoder and decoder run this
/// identically, which is what keeps them in lockstep.
#[inline]
fn update(s: &mut Scratch, cls: &mut ClassState, c: usize, p: &Preds, w: u32) {
    let g = u64::from(s.gen) << 32;
    s.estride[c][p.e_slot] = s.eval_pred(c, p.e_slot).map_or(0, |v| w.wrapping_sub(v));
    s.eval[c][p.e_slot] = g | u64::from(w);
    s.stride[c][p.c_slot] = s.val_pred(c, p.c_slot).map_or(0, |v| w.wrapping_sub(v));
    s.val[c][p.c_slot] = g | u64::from(w);
    if cls.warm {
        s.dstride[c][p.d_slot] = g | u64::from(w.wrapping_sub(cls.prev));
    }
    cls.advance(w);
}

/// Splits `bytes` into the seven column sections, verifying the
/// leading encoded-bytes CRC first: every byte is proved intact
/// before any of them drives a predictor.
fn sections(bytes: &[u8]) -> Result<[&[u8]; N_COLUMNS], CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let want = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    let got = crc32_bytes(&bytes[4..]);
    if want != got {
        return Err(CodecError::EncodedCrcMismatch { want, got });
    }
    let mut at = 4usize;
    let mut secs: [&[u8]; N_COLUMNS] = [&[]; N_COLUMNS];
    for s in &mut secs {
        let len = take_varint(bytes, &mut at)? as usize;
        if len > bytes.len() - at {
            return Err(CodecError::Truncated);
        }
        *s = &bytes[at..at + len];
        at += len;
    }
    if at != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - at));
    }
    Ok(secs)
}

/// The encoded byte length of each column section of one block, in
/// [`COLUMN_NAMES`] order — the per-column accounting behind
/// `tracedump info` and the store's [`crate::TraceStore::column_stats`].
pub fn section_lens(bytes: &[u8]) -> Result<[usize; N_COLUMNS], CodecError> {
    Ok(sections(bytes)?.map(<[u8]>::len))
}

/// Compresses one block of trace words into the columnar layout. The
/// output decodes with [`decode_block`] given the exact word count.
pub fn encode_block(words: &[u32]) -> Vec<u8> {
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.begin();
        let mut tag_bits = BitWriter::default();
        let mut flag_bits = [
            BitWriter::default(),
            BitWriter::default(),
            BitWriter::default(),
        ];
        let mut miss: [Vec<u8>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut cls = [ClassState::default(); 3];
        let mut hist = 0usize;
        let mut prev_global = 0u32;
        for &w in words {
            let t = word_class(w);
            match s.tag_pred(hist) {
                Some(p) if p == t => tag_bits.push(true),
                _ => {
                    tag_bits.push(false);
                    tag_bits.push2(t);
                }
            }
            s.tag[hist] = (s.gen << 2) | u32::from(t);
            hist = ((hist << 2) | t as usize) & (TAG_SLOTS - 1);

            let c = t as usize;
            let key = if c == 0 { cls[0].prev } else { prev_global };
            let p = predict(s, &cls[c], c, key);
            if p.p1 == Some(w) {
                flag_bits[c].push(true);
            } else {
                flag_bits[c].push(false);
                if w == p.p3 {
                    flag_bits[c].push(true);
                } else {
                    flag_bits[c].push(false);
                    if w == p.p2 {
                        flag_bits[c].push(true);
                    } else {
                        flag_bits[c].push(false);
                        put_varint(&mut miss[c], zigzag32(w.wrapping_sub(p.p3) as i32));
                    }
                }
            }
            update(s, &mut cls[c], c, &p, w);
            prev_global = w;
        }
        let secs: [Vec<u8>; N_COLUMNS] = [
            tag_bits.finish(),
            std::mem::take(&mut flag_bits[0]).finish(),
            std::mem::take(&mut miss[0]),
            std::mem::take(&mut flag_bits[1]).finish(),
            std::mem::take(&mut miss[1]),
            std::mem::take(&mut flag_bits[2]).finish(),
            std::mem::take(&mut miss[2]),
        ];
        let body: usize = secs.iter().map(|s| s.len() + 5).sum();
        let mut out = Vec::with_capacity(4 + body);
        out.extend_from_slice(&[0; 4]);
        for sec in &secs {
            put_varint(&mut out, sec.len() as u64);
            out.extend_from_slice(sec);
        }
        let crc = crc32_bytes(&out[4..]);
        out[..4].copy_from_slice(&crc.to_le_bytes());
        out
    })
}

/// Decodes a columnar block produced by [`encode_block`], appending
/// onto `out`. `n_words` is the block's word count from the store
/// index; every section must be consumed exactly.
pub fn decode_block_into(
    bytes: &[u8],
    n_words: usize,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let secs = sections(bytes)?;
    // Every word costs at least one tag bit, so the byte length bounds
    // the preallocation for any (untrusted) count.
    out.reserve(n_words.min(bytes.len().saturating_mul(8)));
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.begin();
        let mut tags = BitReader::new(secs[0]);
        let mut flags = [
            BitReader::new(secs[1]),
            BitReader::new(secs[3]),
            BitReader::new(secs[5]),
        ];
        let mut miss_at = [0usize; 3];
        let mut cls = [ClassState::default(); 3];
        let mut hist = 0usize;
        let mut prev_global = 0u32;
        for _ in 0..n_words {
            let t = if tags.bit()? {
                // A forged hit bit against a cold slot has no defined
                // prediction; class 0 keeps decode total (the CRCs
                // reject it long before results are trusted).
                s.tag_pred(hist).unwrap_or(0)
            } else {
                let t = tags.two()?;
                if t > 2 {
                    return Err(CodecError::Overlong);
                }
                t
            };
            s.tag[hist] = (s.gen << 2) | u32::from(t);
            hist = ((hist << 2) | t as usize) & (TAG_SLOTS - 1);

            let c = t as usize;
            let key = if c == 0 { cls[0].prev } else { prev_global };
            let p = predict(s, &cls[c], c, key);
            let w = if flags[c].bit()? {
                // A forged hit bit against a cold exact slot has no
                // defined prediction; the stride-history base keeps
                // decode total (the CRCs reject the block regardless).
                p.p1.unwrap_or(p.p3)
            } else if flags[c].bit()? {
                p.p3
            } else if flags[c].bit()? {
                p.p2
            } else {
                let sec = secs[2 * c + 2];
                let z = take_varint(sec, &mut miss_at[c])?;
                p.p3.wrapping_add(unzigzag32(z) as u32)
            };
            out.push(w);
            update(s, &mut cls[c], c, &p, w);
            prev_global = w;
        }
        if !tags.done() || flags.iter().any(|f| !f.done()) {
            return Err(CodecError::TrailingBytes(1));
        }
        for c in 0..3 {
            if miss_at[c] != secs[2 * c + 2].len() {
                return Err(CodecError::TrailingBytes(
                    secs[2 * c + 2].len() - miss_at[c],
                ));
            }
        }
        Ok(())
    })
}

/// Decodes a columnar block into a fresh vector (allocating form of
/// [`decode_block_into`]).
pub fn decode_block(bytes: &[u8], n_words: usize) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::new();
    decode_block_into(bytes, n_words, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrl_trace::{ctl, CtlOp};

    fn loopy(n: usize) -> Vec<u32> {
        let mut words = Vec::new();
        words.push(ctl(CtlOp::CtxSwitch, 3));
        for i in 0..n as u32 {
            words.push(0x8003_0100);
            words.push(0x8003_0140);
            words.push(0x0040_0000 + i * 8); // striding user data
            words.push(0x8003_0180);
        }
        words.push(ctl(CtlOp::Eof, 0));
        words
    }

    #[test]
    fn empty_block_round_trips() {
        let bytes = encode_block(&[]);
        assert_eq!(decode_block(&bytes, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn loopy_trace_compresses_past_the_row_codec() {
        let words = loopy(2000);
        let v4 = encode_block(&words);
        let v3 = crate::codec::compress_block(&words);
        assert_eq!(decode_block(&v4, words.len()).unwrap(), words);
        assert!(
            v4.len() < v3.len(),
            "columnar must beat the row codec on loops: {} vs {} bytes",
            v4.len(),
            v3.len()
        );
        // The stride predictor turns the array sweep into flag bits:
        // comfortably under a byte per word overall.
        assert!(
            v4.len() * 2 < words.len(),
            "expected < 0.5 B/word, got {} bytes for {} words",
            v4.len(),
            words.len()
        );
    }

    #[test]
    fn mixed_controls_and_extremes_round_trip() {
        let words = vec![
            ctl(CtlOp::CtxSwitch, 3),
            0x0050_0000,
            0x7fff_fff0,
            ctl(CtlOp::KEnter, 8),
            0x8003_0100,
            0x8030_0004,
            ctl(CtlOp::KExit, 0),
            0x0050_0040,
            0x0000_0000,
            0xffff_ffff,
            0x0000_ffff, // BadCtl range: still class 0
            ctl(CtlOp::Eof, 0),
        ];
        let bytes = encode_block(&words);
        assert_eq!(decode_block(&bytes, words.len()).unwrap(), words);
    }

    #[test]
    fn corruption_anywhere_is_detected_by_the_encoded_crc() {
        let words = loopy(100);
        let good = encode_block(&words);
        for at in [0, 4, 5, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            let full = decode_block(&bad, words.len());
            assert!(full.is_err(), "decode must fail at {at}");
            if at >= 4 {
                assert!(
                    matches!(full, Err(CodecError::EncodedCrcMismatch { .. })),
                    "flip at {at} inside the sections must be a CRC error"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let words = loopy(100);
        let good = encode_block(&words);
        for cut in [0, 3, 4, good.len() / 2, good.len() - 1] {
            assert!(
                decode_block(&good[..cut], words.len()).is_err(),
                "cut={cut}"
            );
        }
        // Undercounting words leaves sections unconsumed.
        assert!(matches!(
            decode_block(&good, words.len() - 10),
            Err(CodecError::TrailingBytes(_))
        ));
    }

    #[test]
    fn section_lens_account_for_every_byte() {
        let words = loopy(500);
        let bytes = encode_block(&words);
        let lens = section_lens(&bytes).unwrap();
        let body: usize = lens.iter().sum();
        // 4 CRC bytes + one varint length per section + the sections.
        let header: usize = 4 + {
            let mut n = 0;
            let mut probe = Vec::new();
            for l in lens {
                probe.clear();
                put_varint(&mut probe, l as u64);
                n += probe.len();
            }
            n
        };
        assert_eq!(header + body, bytes.len());
        // The loop's data addresses land in the user columns, the
        // bb-ids in the kernel columns; both flag columns are bits.
        assert!(lens[5] > 0 && lens[0] > 0);
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let mut x = 0x1234_5678_9abc_def0u64;
        for len in 0..200usize {
            let mut junk = vec![0u8; len];
            for b in &mut junk {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (x >> 56) as u8;
            }
            let _ = decode_block(&junk, len * 8);
            let _ = section_lens(&junk);
        }
    }
}
