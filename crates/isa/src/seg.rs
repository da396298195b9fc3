//! The fixed half of address translation: the unmapped segments.

/// `(paddr, cached)` for kseg0 (cached) and kseg1 (uncached), the two
/// windows onto physical memory from 0; `None` for every address that
/// is mapped through the TLB (kuseg, kseg2).
#[inline]
pub fn unmapped(vaddr: u32) -> Option<(u32, bool)> {
    match vaddr {
        0x8000_0000..=0x9fff_ffff => Some((vaddr - 0x8000_0000, true)),
        0xa000_0000..=0xbfff_ffff => Some((vaddr - 0xa000_0000, false)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::unmapped;

    #[test]
    fn segment_boundaries() {
        assert_eq!(unmapped(0x7fff_ffff), None);
        assert_eq!(unmapped(0x8000_0000), Some((0, true)));
        assert_eq!(unmapped(0x9fff_ffff), Some((0x1fff_ffff, true)));
        assert_eq!(unmapped(0xa000_0000), Some((0, false)));
        assert_eq!(unmapped(0xbfff_ffff), Some((0x1fff_ffff, false)));
        assert_eq!(unmapped(0xc000_0000), None);
    }
}
