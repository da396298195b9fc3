//! The trace-word format.
//!
//! "A trace entry for a basic block or memory reference is a single
//! machine word. This means that a single machine instruction records
//! a complete trace entry. In this way, trace entries remain
//! contiguous, with no locks or other protection mechanisms required."
//! (§3.3.)
//!
//! A basic-block entry is the return address stored by `jal bbtrace`
//! (an instrumented-text address); a memory entry is the effective
//! virtual address computed by `memtrace`. Both are plain addresses —
//! the parser tells them apart purely positionally, using the static
//! basic-block table. Control entries use values below
//! [`CTL_LIMIT`]: page zero is never mapped in any address space, so
//! no legitimate basic-block id or data address can collide with them.

/// Exclusive upper bound of the control-word range.
pub const CTL_LIMIT: u32 = 0x1_0000;

/// Control-word opcodes (low byte of a control word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CtlOp {
    /// Subsequent user-context entries belong to the address space in
    /// the payload (written when the kernel copies a per-process
    /// buffer, preserving interleaving).
    CtxSwitch = 1,
    /// The kernel was entered (exception/interrupt); payload is the
    /// cause code. Pushes a kernel trace context.
    KEnter = 2,
    /// The kernel returned to the interrupted activity. Pops the
    /// kernel trace context.
    KExit = 3,
    /// Trace generation resumed (end of a trace-analysis phase).
    TraceOn = 4,
    /// Trace generation suspended (start of a trace-analysis phase).
    /// Each Off/On pair is one "dirt" transition of §4.3.
    TraceOff = 5,
    /// End of trace.
    Eof = 6,
}

/// A decoded control word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ctl {
    /// The operation.
    pub op: CtlOp,
    /// The 8-bit payload (ASID for CtxSwitch, cause for KEnter).
    pub payload: u8,
}

/// Encodes a control word.
pub const fn ctl(op: CtlOp, payload: u8) -> u32 {
    ((payload as u32) << 8) | (op as u32)
}

/// Classifies a raw trace word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceWord {
    /// A control word.
    Ctl(Ctl),
    /// An address word (basic-block id or memory reference — the
    /// distinction is positional).
    Addr(u32),
    /// A value in the control range that decodes to no known opcode —
    /// a defensive-tracing error signal.
    BadCtl(u32),
}

/// Decodes a raw trace word.
pub fn classify(w: u32) -> TraceWord {
    if w >= CTL_LIMIT {
        return TraceWord::Addr(w);
    }
    let payload = (w >> 8) as u8;
    let op = match w as u8 {
        1 => CtlOp::CtxSwitch,
        2 => CtlOp::KEnter,
        3 => CtlOp::KExit,
        4 => CtlOp::TraceOn,
        5 => CtlOp::TraceOff,
        6 => CtlOp::Eof,
        _ => return TraceWord::BadCtl(w),
    };
    TraceWord::Ctl(Ctl { op, payload })
}

/// The ASID a context-switch control word switches to; `None` for
/// every other word. This is the one reading of a switch word that
/// everything attributing words to address spaces shares — the
/// store's index summaries, its run scanner and reference filter, and
/// the live feed. It agrees with [`classify`] (held by test) without
/// building the [`TraceWord`].
#[inline]
pub fn ctx_switch(w: u32) -> Option<u8> {
    (w < CTL_LIMIT && w as u8 == CtlOp::CtxSwitch as u8).then_some((w >> 8) as u8)
}

/// True if an address lies in the kernel's half of the address space.
#[inline]
pub fn is_kernel_addr(a: u32) -> bool {
    a >= 0x8000_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_round_trips_controls() {
        for (op, pay) in [
            (CtlOp::CtxSwitch, 7u8),
            (CtlOp::KEnter, 0),
            (CtlOp::KExit, 0),
            (CtlOp::TraceOn, 0),
            (CtlOp::TraceOff, 0),
            (CtlOp::Eof, 0),
        ] {
            match classify(ctl(op, pay)) {
                TraceWord::Ctl(c) => {
                    assert_eq!(c.op, op);
                    assert_eq!(c.payload, pay);
                }
                other => panic!("expected control, got {other:?}"),
            }
        }
    }

    #[test]
    fn addresses_pass_through() {
        assert_eq!(classify(0x0040_0000), TraceWord::Addr(0x0040_0000));
        assert_eq!(classify(0x8003_0124), TraceWord::Addr(0x8003_0124));
        assert_eq!(classify(CTL_LIMIT), TraceWord::Addr(CTL_LIMIT));
    }

    #[test]
    fn junk_in_control_range_is_flagged() {
        assert!(matches!(classify(0x0000_00ff), TraceWord::BadCtl(_)));
        assert!(matches!(classify(0x0000_9900), TraceWord::BadCtl(_)));
    }

    #[test]
    fn ctx_switch_agrees_with_classify_on_every_control_value() {
        let beyond = [CTL_LIMIT, CTL_LIMIT + 1, 0x0040_0001, 0x8003_0101, u32::MAX];
        for w in (0..CTL_LIMIT).chain(beyond) {
            let want = match classify(w) {
                TraceWord::Ctl(Ctl {
                    op: CtlOp::CtxSwitch,
                    payload,
                }) => Some(payload),
                _ => None,
            };
            assert_eq!(ctx_switch(w), want, "{w:#x}");
        }
    }

    #[test]
    fn kernel_addr_split() {
        assert!(is_kernel_addr(0x8000_0000));
        assert!(!is_kernel_addr(0x7fff_fffc));
    }
}
