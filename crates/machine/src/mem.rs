//! Physical memory with a predecode cache.
//!
//! Memory is word-organised (little-endian within words). A predecode
//! array per page caches the decoded form of instruction words so the
//! simulator does not re-decode on every fetch; any store to a word
//! invalidates its predecoded entry, so self-modifying code (and
//! program loading) stays correct. A page gets its array on the first
//! fetch from it, so a machine costs what its program touches: the
//! words are the allocator's zero pages until written, and predecode
//! is 8 KiB per page of text that ran.

use wrl_isa::{decode, Inst};

/// Words per predecode page.
const PAGE_WORDS: usize = 1024;

/// Physical memory.
pub struct Mem {
    words: Vec<u32>,
    /// One predecode array per page that has been fetched from.
    decoded: Vec<Option<Box<[Option<Inst>; PAGE_WORDS]>>>,
}

impl Mem {
    /// Creates `bytes` of zeroed physical memory (rounded up to a word).
    pub fn new(bytes: u32) -> Mem {
        let n = bytes.div_ceil(4) as usize;
        Mem {
            words: vec![0; n],
            decoded: vec![None; n.div_ceil(PAGE_WORDS)],
        }
    }

    /// Drops word `i`'s predecoded form, if its page has any.
    #[inline]
    fn invalidate(&mut self, i: usize) {
        if let Some(page) = &mut self.decoded[i / PAGE_WORDS] {
            page[i % PAGE_WORDS] = None;
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Returns true if `paddr..paddr+len` lies within memory.
    pub fn in_range(&self, paddr: u32, len: u32) -> bool {
        (paddr as u64 + len as u64) <= self.size() as u64
    }

    /// Reads the word containing `paddr` (which must be word-aligned
    /// and in range).
    #[inline]
    pub fn read_word(&self, paddr: u32) -> u32 {
        self.words[(paddr >> 2) as usize]
    }

    /// Writes a word (invalidating any predecoded instruction).
    #[inline]
    pub fn write_word(&mut self, paddr: u32, v: u32) {
        let i = (paddr >> 2) as usize;
        self.words[i] = v;
        self.invalidate(i);
    }

    /// Reads a byte.
    #[inline]
    pub fn read_byte(&self, paddr: u32) -> u8 {
        let w = self.words[(paddr >> 2) as usize];
        (w >> ((paddr & 3) * 8)) as u8
    }

    /// Writes a byte.
    #[inline]
    pub fn write_byte(&mut self, paddr: u32, v: u8) {
        let i = (paddr >> 2) as usize;
        let sh = (paddr & 3) * 8;
        self.words[i] = (self.words[i] & !(0xffu32 << sh)) | ((v as u32) << sh);
        self.invalidate(i);
    }

    /// Reads a halfword (must be 2-byte aligned).
    #[inline]
    pub fn read_half(&self, paddr: u32) -> u16 {
        let w = self.words[(paddr >> 2) as usize];
        (w >> ((paddr & 2) * 8)) as u16
    }

    /// Writes a halfword (must be 2-byte aligned).
    #[inline]
    pub fn write_half(&mut self, paddr: u32, v: u16) {
        let i = (paddr >> 2) as usize;
        let sh = (paddr & 2) * 8;
        self.words[i] = (self.words[i] & !(0xffffu32 << sh)) | ((v as u32) << sh);
        self.invalidate(i);
    }

    /// Fetches and decodes the instruction at word-aligned `paddr`,
    /// using the predecode cache.
    #[inline]
    pub fn fetch(&mut self, paddr: u32) -> Result<Inst, u32> {
        let i = (paddr >> 2) as usize;
        if let Some(page) = &self.decoded[i / PAGE_WORDS] {
            if let Some(inst) = page[i % PAGE_WORDS] {
                return Ok(inst);
            }
        }
        self.decode_first(i)
    }

    /// The first fetch of word `i` since it was written, or the first
    /// from its page: kept out of line, so the page's array is built
    /// on this frame and not on the fetching loop's.
    #[cold]
    #[inline(never)]
    fn decode_first(&mut self, i: usize) -> Result<Inst, u32> {
        let page = self.decoded[i / PAGE_WORDS].get_or_insert_with(|| Box::new([None; PAGE_WORDS]));
        let w = self.words[i];
        let inst = decode(w).map_err(|_| w)?;
        page[i % PAGE_WORDS] = Some(inst);
        Ok(inst)
    }

    /// Copies bytes into memory (used by program loading and disk DMA).
    pub fn write_bytes(&mut self, paddr: u32, bytes: &[u8]) {
        for (k, &b) in bytes.iter().enumerate() {
            self.write_byte(paddr + k as u32, b);
        }
    }

    /// Copies bytes out of memory.
    pub fn read_bytes(&self, paddr: u32, out: &mut [u8]) {
        for (k, b) in out.iter_mut().enumerate() {
            *b = self.read_byte(paddr + k as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lanes() {
        let mut m = Mem::new(64);
        m.write_word(0, 0x11223344);
        assert_eq!(m.read_byte(0), 0x44);
        assert_eq!(m.read_byte(3), 0x11);
        m.write_byte(1, 0xaa);
        assert_eq!(m.read_word(0), 0x1122aa44);
        assert_eq!(m.read_half(0), 0xaa44);
        m.write_half(2, 0xbeef);
        assert_eq!(m.read_word(0), 0xbeefaa44);
    }

    #[test]
    fn predecode_invalidation() {
        let mut m = Mem::new(64);
        // nop decodes fine.
        assert!(m.fetch(0).is_ok());
        // Overwrite with a reserved word: fetch must see the new word.
        m.write_word(0, 0xffff_ffff);
        assert_eq!(m.fetch(0), Err(0xffff_ffff));
    }

    #[test]
    fn a_machine_costs_the_pages_it_fetched_from() {
        let mut m = Mem::new(64 << 20);
        let arrays = |m: &Mem| m.decoded.iter().flatten().count();
        assert_eq!(arrays(&m), 0);
        assert!(m.fetch(0x1000).is_ok());
        assert_eq!(arrays(&m), 1);
        // A store over the fetched word and one over a page nobody
        // fetched from: the first invalidates, the second allocates
        // nothing.
        m.write_word(0x1000, 0xffff_ffff);
        m.write_word(0x20_0000, 0xffff_ffff);
        m.write_byte(0x30_0001, 0xff);
        m.write_half(0x30_1002, 0xffff);
        assert_eq!(m.fetch(0x1000), Err(0xffff_ffff));
        assert_eq!(arrays(&m), 1);
    }

    #[test]
    fn bulk_copy_round_trips() {
        let mut m = Mem::new(128);
        let src: Vec<u8> = (0..100u8).collect();
        m.write_bytes(4, &src);
        let mut dst = vec![0u8; 100];
        m.read_bytes(4, &mut dst);
        assert_eq!(src, dst);
    }
}
