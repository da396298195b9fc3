//! Static basic-block information tables.
//!
//! Mahler and epoxie "generate static information describing each
//! basic block (number of instructions, position of loads and
//! stores). This information is used when the trace is analyzed, to
//! determine the correct interleaving of instruction and data memory
//! references." (§3.5.) In the Ultrix/Mach systems only the bb
//! address is written to the trace; the parsing library looks the
//! address up here. The lookup also carries the per-block special
//! behaviours: idle-loop counter flags and hand-traced markers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wrl_isa::Width;

/// One load or store within a basic block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Index of the memory instruction within the block (0-based, in
    /// terms of *original* instructions).
    pub index: u16,
    /// True for stores.
    pub store: bool,
    /// Access width.
    pub width: Width,
}

/// Flags attached to a basic block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BbTraceFlags {
    /// Entering this block starts the idle-loop instruction counter.
    pub idle_start: bool,
    /// Entering this block stops the idle-loop instruction counter.
    pub idle_stop: bool,
    /// The block's record was emitted by hand-instrumented code.
    pub hand_traced: bool,
}

/// Static description of one basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbInfo {
    /// Address of the block in the *uninstrumented* binary — what the
    /// simulator sees ("the addresses seen by the simulator correspond
    /// to the uninstrumented binary", §3.2).
    pub orig_vaddr: u32,
    /// Number of original instructions in the block.
    pub n_insts: u16,
    /// The memory operations, in order.
    pub ops: Vec<MemOp>,
    /// Special behaviours.
    pub flags: BbTraceFlags,
}

impl BbInfo {
    /// Trace words this block generates: one bb word plus one word per
    /// memory operation (the count epoxie plants in the `li zero, n`
    /// delay-slot no-op).
    pub fn trace_words(&self) -> u32 {
        1 + self.ops.len() as u32
    }
}

/// Hashes a block id with one multiply. Ids are word-aligned, so the
/// product's low bits never change; the map's bucket bits are taken
/// from its high half. A table read from a file can crowd a bucket and
/// slow a lookup, never change its answer.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(ID_MUL);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(ID_MUL);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// An odd multiplier, 2^64 over the golden ratio.
const ID_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The basic-block lookup table for one binary.
///
/// Keys are *basic-block ids*: the return address that `jal bbtrace`
/// stores, i.e. an address inside the instrumented text. Blocks sit
/// in insertion order, so a block also has a *position* — what the
/// parser holds while a block is open, instead of looking the id up
/// again for every memory word.
#[derive(Clone, Debug, Default)]
pub struct BbTable {
    blocks: Vec<(u32, BbInfo)>,
    index: HashMap<u32, u32, BuildHasherDefault<IdHasher>>,
}

impl BbTable {
    /// Creates an empty table.
    pub fn new() -> BbTable {
        BbTable::default()
    }

    /// Inserts a block under its id, replacing any block already
    /// there (which keeps its position).
    pub fn insert(&mut self, bb_id: u32, info: BbInfo) {
        match self.index.get(&bb_id) {
            Some(&pos) => self.blocks[pos as usize].1 = info,
            None => {
                self.index.insert(bb_id, self.blocks.len() as u32);
                self.blocks.push((bb_id, info));
            }
        }
    }

    /// Looks up a block by id.
    pub fn get(&self, bb_id: u32) -> Option<&BbInfo> {
        self.position(bb_id).map(|pos| self.at(pos))
    }

    /// The position of the block with this id, for [`BbTable::at`].
    pub fn position(&self, bb_id: u32) -> Option<u32> {
        self.index.get(&bb_id).copied()
    }

    /// The block at a position [`BbTable::position`] returned.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a position in this table.
    pub fn at(&self, pos: u32) -> &BbInfo {
        &self.blocks[pos as usize].1
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over `(bb_id, info)` pairs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &BbInfo)> {
        self.blocks.iter().map(|(id, info)| (id, info))
    }

    /// Merges another table into this one (kernel = epoxie-rewritten
    /// objects + hand-traced entries).
    pub fn merge(&mut self, other: BbTable) {
        for (id, info) in other.blocks {
            self.insert(id, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(orig: u32, n: u16, ops: Vec<MemOp>) -> BbInfo {
        BbInfo {
            orig_vaddr: orig,
            n_insts: n,
            ops,
            flags: BbTraceFlags::default(),
        }
    }

    #[test]
    fn trace_word_counts() {
        let b = info(
            0x400000,
            5,
            vec![
                MemOp {
                    index: 1,
                    store: true,
                    width: Width::Word,
                },
                MemOp {
                    index: 2,
                    store: false,
                    width: Width::Byte,
                },
            ],
        );
        assert_eq!(b.trace_words(), 3);
    }

    #[test]
    fn table_lookup_and_merge() {
        let mut t = BbTable::new();
        t.insert(0x500000, info(0x400000, 3, vec![]));
        let mut u = BbTable::new();
        u.insert(0x500100, info(0x400040, 2, vec![]));
        t.merge(u);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0x500000).unwrap().orig_vaddr, 0x400000);
        assert!(t.get(0xdead).is_none());
    }
}
