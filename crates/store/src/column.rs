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
//!
//! The decoder does the encoder's work in reverse at the same cost per
//! word, so its loop is kept to what the model needs: each word's
//! class is dispatched once to a step specialised for that class, each
//! table probe reads one 12-byte `PredSlot` that the update then writes
//! back without reading again, the stride-history key is updated in
//! place rather than rehashed, and every bit column is read through a
//! 64-bit window, so a tag or a flag code is one peek. Encoder and
//! decoder share `predict` and `update`, which is what keeps them
//! in lockstep.

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

/// One entry of an exact or coarse table: the word last seen under
/// the slot's key and the stride it moved by then, which together make
/// the slot a differential predictor. Valid iff `gen` is the current
/// block's. The three fields sit together so that a probe is one read;
/// packed at 12 bytes, one slot in eight straddles two cache lines,
/// and aligning them to 16 bytes measured no faster.
#[derive(Clone, Copy, Default)]
struct PredSlot {
    gen: u32,
    val: u32,
    stride: u32,
}

/// Generation-tagged model tables, reused across blocks: resetting
/// between blocks is a generation bump, not a 400 KiB memset — the
/// difference between a codec that batch-decodes 64-word service
/// blocks at full speed and one that spends its time zeroing tables.
/// That is 16 KiB of tags, 144 KiB each for the exact and coarse
/// slots and 96 KiB of stride history, per thread: the same bytes as
/// keeping each slot's fields in two parallel arrays, which took a
/// probe two reads into two cache lines.
struct Scratch {
    /// Tag-context table; entry = `gen << 2 | tag`, valid iff the
    /// generation matches.
    tag: Box<[u32; TAG_SLOTS]>,
    /// Per-class *exact* tables, keyed on the full previous word.
    exact: Box<[[PredSlot; VAL_SLOTS]; 3]>,
    /// Per-class *coarse* tables, keyed on `prev >> 8`.
    coarse: Box<[[PredSlot; VAL_SLOTS]; 3]>,
    /// Per-class *stride-history* tables, keyed on a hash of the
    /// class's last four quantised strides; entry =
    /// `gen << 32 | stride`, valid iff the generation matches.
    dstride: Box<[[u64; VAL_SLOTS]; 3]>,
    gen: u32,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            tag: Box::new([0; TAG_SLOTS]),
            exact: Box::new([[PredSlot::default(); VAL_SLOTS]; 3]),
            coarse: Box::new([[PredSlot::default(); VAL_SLOTS]; 3]),
            dstride: Box::new([[0; VAL_SLOTS]; 3]),
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
            self.tag.fill(0);
            for t in self.exact.iter_mut().chain(self.coarse.iter_mut()) {
                t.fill(PredSlot::default());
            }
            self.dstride.iter_mut().for_each(|t| t.fill(0));
            self.gen = 1;
        }
    }

    #[inline]
    fn tag_pred(&self, hist: usize) -> Option<u8> {
        let e = self.tag[hist & (TAG_SLOTS - 1)];
        (e >> 2 == self.gen).then_some((e & 3) as u8)
    }

    /// Teaches the tag table that `t` followed `hist`; returns the
    /// history with `t` shifted in.
    #[inline]
    fn teach_tag(&mut self, hist: usize, t: u8) -> usize {
        self.tag[hist & (TAG_SLOTS - 1)] = (self.gen << 2) | u32::from(t);
        ((hist << 2) | t as usize) & (TAG_SLOTS - 1)
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// LSB-first bit writer.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    cur: u64,
    n: u32,
}

impl BitWriter {
    /// Appends the low `n` bits of `v` (whose higher bits are zero).
    #[inline]
    fn push(&mut self, v: u32, n: u32) {
        self.cur |= u64::from(v) << self.n;
        self.n += n;
        while self.n >= 8 {
            self.bytes.push(self.cur as u8);
            self.cur >>= 8;
            self.n -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            self.bytes.push(self.cur as u8);
        }
        self.bytes
    }
}

/// LSB-first reader of one bit column through a 64-bit window that is
/// refilled whole bytes at a time, so a tag or a flag code is one
/// peek. Decode stays total on arbitrary bytes: consuming a bit past
/// the column's last byte is [`CodecError::Truncated`].
struct BitLane<'a> {
    bytes: &'a [u8],
    /// Bytes moved into `win` so far.
    next: usize,
    /// Unread bits, LSB first. Above the first `bits` it holds the
    /// column's next bits, or zeros past its end.
    win: u64,
    /// Bits of `win` that are counted as read in.
    bits: u32,
}

impl<'a> BitLane<'a> {
    fn new(bytes: &'a [u8]) -> BitLane<'a> {
        BitLane {
            bytes,
            next: 0,
            win: 0,
            bits: 0,
        }
    }

    /// The unread bits: at least three of them are valid, unless the
    /// column has fewer left.
    #[inline]
    fn peek(&mut self) -> u64 {
        if self.bits < 3 {
            self.refill();
        }
        self.win
    }

    /// Reads in the next seven bytes, or all that are left. Kept out of
    /// line: it runs at most once per 18 codes, and inlined it slows
    /// the word loop around it.
    #[inline(never)]
    fn refill(&mut self) {
        let rest = &self.bytes[self.next..];
        let n = rest.len().min(8);
        let mut chunk = [0u8; 8];
        chunk[..n].copy_from_slice(&rest[..n]);
        self.win |= u64::from_le_bytes(chunk) << self.bits;
        let whole = n.min(7);
        self.next += whole;
        self.bits += 8 * whole as u32;
    }

    /// Consumes `n` of the peeked bits.
    #[inline]
    fn skip(&mut self, n: u32) -> Result<(), CodecError> {
        if n > self.bits {
            return Err(CodecError::Truncated);
        }
        self.win >>= n;
        self.bits -= n;
        Ok(())
    }

    /// Reads a flag code — `1`, `01`, `001` or `000` — as the index of
    /// the predictor it names, 3 for a miss.
    #[inline]
    fn flag(&mut self) -> Result<u32, CodecError> {
        let code = self.peek().trailing_zeros().min(3);
        self.skip((code + 1).min(3))?;
        Ok(code)
    }

    /// All bytes consumed (padding bits in the final byte excepted)?
    fn done(&self) -> bool {
        self.next == self.bytes.len() && self.bits < 8
    }
}

/// Per-class model state (the tables live in [`Scratch`]).
#[derive(Clone, Copy, Default)]
struct ClassState {
    prev: u32,
    stride: u32,
    /// The class's last four quantised strides, a ring whose oldest
    /// entry is at `oldest & 3`.
    hist: [u32; 4],
    oldest: usize,
    /// The stride-history key: the strides of `hist`, newest first,
    /// the `i`th rotated left by `11 * i`, XORed together.
    key: u32,
    /// A class is warm once it has a real previous value; the
    /// stride-history table is only taught from warm strides.
    warm: bool,
}

impl ClassState {
    #[inline]
    fn advance(&mut self, w: u32) {
        let s = w.wrapping_sub(self.prev);
        if self.warm {
            // Rotating the key by 11 moves every stride one place
            // older; the oldest lands at 44 = 12 (mod 32) and is
            // XORed out there, and the new stride goes in unrotated.
            let i = self.oldest & 3;
            let q = quant_stride(s);
            self.key = q ^ self.key.rotate_left(11) ^ self.hist[i].rotate_left(12);
            self.hist[i] = q;
            self.oldest = i + 1;
        }
        self.stride = s;
        self.prev = w;
        self.warm = true;
    }
}

/// One word's worth of predictions, plus the table slots they read (so
/// the update step writes exactly where the prediction looked, without
/// reading again).
struct Preds {
    e_slot: usize,
    c_slot: usize,
    d_slot: usize,
    exact: PredSlot,
    coarse: PredSlot,
    /// Exact-table differential prediction; `None` while the slot is
    /// cold this block.
    p1: Option<u32>,
    /// Coarse-table differential prediction (class running stride
    /// when cold).
    p2: u32,
}

impl Preds {
    /// The stride-history prediction (class running stride when cold)
    /// — also the miss-varint base. Its table is read only for a word
    /// the exact table did not settle.
    #[inline(always)]
    fn p3<const C: usize>(&self, s: &Scratch, cls: &ClassState) -> u32 {
        let d = s.dstride[C][self.d_slot];
        let stride = if (d >> 32) as u32 == s.gen {
            d as u32
        } else {
            cls.stride
        };
        cls.prev.wrapping_add(stride)
    }
}

/// The predictions for the next word of class `C` after the stream
/// word `prev`. The context is `prev`, or for the control class its
/// own previous word.
#[inline(always)]
fn predict<const C: usize>(s: &Scratch, cls: &ClassState, prev: u32) -> Preds {
    let key = if C == 0 { cls.prev } else { prev };
    let e_slot = val_slot(key);
    let c_slot = val_slot(key >> 8);
    let exact = s.exact[C][e_slot];
    let coarse = s.coarse[C][c_slot];
    Preds {
        e_slot,
        c_slot,
        d_slot: val_slot(cls.key),
        exact,
        coarse,
        p1: (exact.gen == s.gen).then(|| exact.val.wrapping_add(exact.stride)),
        p2: if coarse.gen == s.gen {
            coarse.val.wrapping_add(coarse.stride)
        } else {
            cls.prev.wrapping_add(cls.stride)
        },
    }
}

/// Teaches every table the observed word, in the slots [`predict`]
/// read, then advances the class state. Encoder and decoder run this
/// identically, which is what keeps them in lockstep.
#[inline(always)]
fn update<const C: usize>(s: &mut Scratch, cls: &mut ClassState, p: &Preds, w: u32) {
    let gen = s.gen;
    let taught = |old: PredSlot| PredSlot {
        gen,
        val: w,
        stride: if old.gen == gen {
            w.wrapping_sub(old.val)
        } else {
            0
        },
    };
    s.exact[C][p.e_slot] = taught(p.exact);
    s.coarse[C][p.c_slot] = taught(p.coarse);
    if cls.warm {
        s.dstride[C][p.d_slot] = u64::from(gen) << 32 | u64::from(w.wrapping_sub(cls.prev));
    }
    cls.advance(w);
}

/// One class's output columns while encoding.
#[derive(Default)]
struct ClassOut {
    flags: BitWriter,
    miss: Vec<u8>,
}

/// Codes `w`, a word of class `C`, after the stream word `prev`.
#[inline(always)]
fn encode_word<const C: usize>(
    s: &mut Scratch,
    cls: &mut ClassState,
    out: &mut ClassOut,
    prev: u32,
    w: u32,
) {
    let p = predict::<C>(s, cls, prev);
    let code = if p.p1 == Some(w) {
        0
    } else {
        let p3 = p.p3::<C>(s, cls);
        if w == p3 {
            1
        } else if w == p.p2 {
            2
        } else {
            put_varint(&mut out.miss, zigzag32(w.wrapping_sub(p3) as i32));
            3
        }
    };
    out.flags.push((1 << code) & 7, (code + 1).min(3));
    update::<C>(s, cls, &p, w);
}

/// One class's input columns while decoding.
struct ClassIn<'a> {
    flags: BitLane<'a>,
    miss: &'a [u8],
    miss_at: usize,
}

/// Decodes the next word of class `C`, after the stream word `prev`.
#[inline(always)]
fn decode_word<const C: usize>(
    s: &mut Scratch,
    cls: &mut ClassState,
    cols: &mut ClassIn,
    prev: u32,
) -> Result<u32, CodecError> {
    let p = predict::<C>(s, cls, prev);
    let w = match cols.flags.flag()? {
        // A forged hit bit against a cold exact slot has no defined
        // prediction; the stride-history base keeps decode total (the
        // CRCs reject the block regardless).
        0 => p.p1.unwrap_or_else(|| p.p3::<C>(s, cls)),
        1 => p.p3::<C>(s, cls),
        2 => p.p2,
        _ => {
            let z = take_varint(cols.miss, &mut cols.miss_at)?;
            p.p3::<C>(s, cls).wrapping_add(unzigzag32(z) as u32)
        }
    };
    update::<C>(s, cls, &p, w);
    Ok(w)
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
        let mut tags = BitWriter::default();
        let [mut o0, mut o1, mut o2] = <[ClassOut; 3]>::default();
        let [mut c0, mut c1, mut c2] = [ClassState::default(); 3];
        let mut hist = 0usize;
        let mut prev = 0u32;
        for &w in words {
            let t = word_class(w);
            if s.tag_pred(hist) == Some(t) {
                tags.push(1, 1);
            } else {
                tags.push(u32::from(t) << 1, 3);
            }
            hist = s.teach_tag(hist, t);
            match t {
                0 => encode_word::<0>(s, &mut c0, &mut o0, prev, w),
                1 => encode_word::<1>(s, &mut c1, &mut o1, prev, w),
                _ => encode_word::<2>(s, &mut c2, &mut o2, prev, w),
            }
            prev = w;
        }
        let secs: [Vec<u8>; N_COLUMNS] = [
            tags.finish(),
            o0.flags.finish(),
            o0.miss,
            o1.flags.finish(),
            o1.miss,
            o2.flags.finish(),
            o2.miss,
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
        let mut tags = BitLane::new(secs[0]);
        let [mut k0, mut k1, mut k2] = [1, 3, 5].map(|i| ClassIn {
            flags: BitLane::new(secs[i]),
            miss: secs[i + 1],
            miss_at: 0,
        });
        let [mut c0, mut c1, mut c2] = [ClassState::default(); 3];
        let mut hist = 0usize;
        let mut prev = 0u32;
        for _ in 0..n_words {
            let bits = tags.peek();
            let t = if bits & 1 != 0 {
                tags.skip(1)?;
                // A forged hit bit against a cold slot has no defined
                // prediction; class 0 keeps decode total (the CRCs
                // reject it long before results are trusted).
                s.tag_pred(hist).unwrap_or(0)
            } else {
                tags.skip(3)?;
                match (bits >> 1) & 3 {
                    3 => return Err(CodecError::Overlong),
                    t => t as u8,
                }
            };
            hist = s.teach_tag(hist, t);
            prev = match t {
                0 => decode_word::<0>(s, &mut c0, &mut k0, prev)?,
                1 => decode_word::<1>(s, &mut c1, &mut k1, prev)?,
                _ => decode_word::<2>(s, &mut c2, &mut k2, prev)?,
            };
            out.push(prev);
        }
        let cols = [&k0, &k1, &k2];
        if !tags.done() || cols.iter().any(|k| !k.flags.done()) {
            return Err(CodecError::TrailingBytes(1));
        }
        for k in cols {
            if k.miss_at != k.miss.len() {
                return Err(CodecError::TrailingBytes(k.miss.len() - k.miss_at));
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

    /// A CRC-valid block from hand-written sections, in
    /// [`COLUMN_NAMES`] order.
    fn seal(secs: [&[u8]; N_COLUMNS]) -> Vec<u8> {
        let mut out = vec![0; 4];
        for sec in secs {
            put_varint(&mut out, sec.len() as u64);
            out.extend_from_slice(sec);
        }
        let crc = crc32_bytes(&out[4..]);
        out[..4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Control-class sections: the tag lane, then the class's flag
    /// and miss lanes; the address classes stay empty.
    fn ctl_block(tag: &[u8], flag: &[u8], miss: &[u8]) -> Vec<u8> {
        seal([tag, flag, miss, &[], &[], &[], &[]])
    }

    #[test]
    fn lane_errors_are_typed_and_exact() {
        use CodecError::*;
        // Tag bits are LSB first: `1` is a hit (a cold first slot
        // reads as class 0, and class 0 then predicts itself), `0`
        // is followed by an explicit 2-bit tag. Flag codes are
        // 1 / 01 / 001 / 000, the last taking a miss varint.
        let cases: [(&str, Vec<u8>, usize, CodecError); 13] = [
            (
                "tag lane ends before a word",
                ctl_block(&[], &[], &[]),
                1,
                Truncated,
            ),
            // Two explicit class-0 tags (6 bits), then `0` and one
            // bit of the third word's tag.
            (
                "tag lane ends mid-word",
                ctl_block(&[0], &[0xff], &[]),
                3,
                Truncated,
            ),
            ("explicit tag 3", ctl_block(&[0b110], &[], &[]), 1, Overlong),
            // Two misses (6 bits), then `00` of a third code.
            (
                "flag lane ends mid-code",
                ctl_block(&[0xff], &[0], &[0, 0]),
                3,
                Truncated,
            ),
            (
                "miss varint of six groups",
                ctl_block(&[0xff], &[0], &[0x80, 0x80, 0x80, 0x80, 0x80, 0]),
                1,
                Overlong,
            ),
            (
                "cut miss varint",
                ctl_block(&[0xff], &[0], &[0x80]),
                1,
                Truncated,
            ),
            (
                "unconsumed tag byte",
                ctl_block(&[0xff, 0], &[0xff], &[]),
                1,
                TrailingBytes(1),
            ),
            (
                "unconsumed flag byte",
                ctl_block(&[0xff], &[0xff, 0], &[]),
                1,
                TrailingBytes(1),
            ),
            // Eight words read the first byte whole: the next one is
            // unconsumed even though no bit of it was peeked at.
            (
                "unconsumed tag byte after a whole one",
                ctl_block(&[0xff, 0], &[0xff], &[]),
                8,
                TrailingBytes(1),
            ),
            (
                "unconsumed flag byte after a whole one",
                ctl_block(&[0xff], &[0xff, 0], &[]),
                8,
                TrailingBytes(1),
            ),
            (
                "unconsumed miss bytes",
                ctl_block(&[0xff], &[0], &[5, 7, 7]),
                1,
                TrailingBytes(2),
            ),
            (
                "unconsumed address-class lane",
                seal([&[0xff], &[0xff], &[], &[], &[], &[0], &[]]),
                1,
                TrailingBytes(1),
            ),
            (
                "no words, one tag byte",
                ctl_block(&[0xff], &[], &[]),
                0,
                TrailingBytes(1),
            ),
        ];
        for (what, block, n_words, want) in cases {
            assert_eq!(decode_block(&block, n_words), Err(want), "{what}");
        }
        // A well-formed hand-built block, for contrast: a cold hit
        // decodes as class 0, whose cold exact slot falls back to the
        // running stride (0 + 0), then one miss of +5.
        let ok = ctl_block(&[0b11], &[0b0001], &[10]);
        assert_eq!(decode_block(&ok, 2), Ok(vec![0, 5]));
    }

    #[test]
    fn a_miscounted_block_is_a_typed_error() {
        let words = loopy(100);
        let good = encode_block(&words);
        assert_eq!(
            decode_block(&good, words.len() - 1),
            Err(CodecError::TrailingBytes(1))
        );
        assert_eq!(
            decode_block(&good, words.len() + 1),
            Err(CodecError::Truncated)
        );
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
