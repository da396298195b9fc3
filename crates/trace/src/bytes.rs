//! The one little-endian byte writer and bounds-checked cursor under
//! every on-disk and on-wire format in the stack (the v1 archive
//! here, the store container, `wrl-wire/v1`).
//!
//! Reads fail with one error, [`ReadError`]; each format's error type
//! converts from it into its own typed variant, so `?` works at every
//! call site and no format loses its diagnosis text. The small
//! accessors are `#[inline]` because all but one caller is in another
//! crate.

/// Appends `v`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u16` length and that many UTF-8 bytes.
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `words`, each little-endian. Writing into a pre-sized
/// tail vectorizes to a copy on little-endian targets, where a
/// per-word [`put_u32`] loop costs more than a served query itself.
pub fn put_words(out: &mut Vec<u8>, words: &[u32]) {
    let at = out.len();
    out.resize(at + words.len() * 4, 0);
    for (dst, &w) in out[at..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Why a [`Cursor`] read failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The buffer ends before the field does.
    Truncated,
    /// A string field's bytes are not UTF-8.
    NotUtf8,
}

/// A read position in a byte buffer. Every read is bounds-checked
/// against the buffer with overflow-checked arithmetic, so a length
/// taken from untrusted input can neither wrap nor index out of range.
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor::at(buf, 0)
    }

    /// A cursor at byte `at` of `buf` (which may lie past the end:
    /// the first read then fails as truncated).
    pub fn at(buf: &'a [u8], at: usize) -> Cursor<'a> {
        Cursor { buf, at }
    }

    /// The current byte position.
    pub fn pos(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.at)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ReadError::Truncated)?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `n` little-endian words, under one bounds check (so an
    /// untrusted `n` cannot size an allocation past the buffer).
    pub fn words(&mut self, n: usize) -> Result<Vec<u32>, ReadError> {
        let bytes = self.take(n.checked_mul(4).ok_or(ReadError::Truncated)?)?;
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("chunks of 4"));
        Ok(bytes.chunks_exact(4).map(word).collect())
    }

    /// The next `n` bytes as a UTF-8 string.
    pub fn utf8(&mut self, n: usize) -> Result<String, ReadError> {
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| ReadError::NotUtf8)
    }

    /// A string written by [`put_str16`].
    pub fn str16(&mut self) -> Result<String, ReadError> {
        let n = self.u16()? as usize;
        self.utf8(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_cursor_round_trip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xbeef);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, 0x0123_4567_89ab_cdef);
        put_str16(&mut out, "sed");
        put_words(&mut out, &[0x8003_0100, 0x102]);
        out.push(7);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u16(), Ok(0xbeef));
        assert_eq!(c.u32(), Ok(0xdead_beef));
        assert_eq!(c.u64(), Ok(0x0123_4567_89ab_cdef));
        assert_eq!(c.str16().as_deref(), Ok("sed"));
        assert_eq!(c.words(2), Ok(vec![0x8003_0100, 0x102]));
        assert_eq!(c.u8(), Ok(7));
        assert_eq!((c.pos(), c.remaining()), (out.len(), 0));
        assert_eq!(c.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn reads_never_wrap_or_run_past_the_end() {
        let buf = [1u8, 2, 3];
        assert_eq!(Cursor::new(&buf).u32(), Err(ReadError::Truncated));
        assert_eq!(Cursor::at(&buf, 9).u8(), Err(ReadError::Truncated));
        // `at + n` wraps here; an unchecked `at + n > len` bound
        // would let the read through to a slice panic.
        let mut c = Cursor::at(&buf, 2);
        assert_eq!(c.take(usize::MAX), Err(ReadError::Truncated));
        assert_eq!(c.words(usize::MAX / 2), Err(ReadError::Truncated));
        assert_eq!(c.pos(), 2, "a failed read does not move the cursor");
        assert_eq!(
            Cursor::new(&[2, 0, 0xff, 0xfe]).str16(),
            Err(ReadError::NotUtf8)
        );
    }
}
