//! Trace archives: saving and loading system traces with their
//! static tables.
//!
//! The Tunix system "produced a collection of single and multi-task
//! user-level traces on tape, which were made available to the
//! community for use in memory system research" (§3.4). A trace is
//! only usable together with the static basic-block tables that
//! decode it, so the archive format bundles the kernel table, the
//! per-ASID user tables, and the raw trace words.
//!
//! The format is a simple little-endian binary container:
//!
//! ```text
//! "W3KTRACE" magic, u32 version
//! kernel table | u32 n_user { u8 asid, table }* | u64 n_words, words
//! table := u32 n_blocks { u32 id, u32 orig, u16 n_insts, u8 flags,
//!                         u16 n_ops { u16 index, u8 store, u8 width }* }*
//! ```

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use crate::bbinfo::{BbInfo, BbTable, BbTraceFlags, MemOp};
use crate::bytes::{put_u16, put_u32, put_u64, put_words, Cursor, ReadError};
use crate::parser::TraceParser;
use wrl_isa::Width;

/// Magic bytes of the archive format.
pub const MAGIC: &[u8; 8] = b"W3KTRACE";
/// Current format version.
pub const VERSION: u32 = 1;

/// A bundled system trace.
#[derive(Clone, Debug, Default)]
pub struct TraceArchive {
    /// The kernel's basic-block table, shared with every parser and
    /// store built from this archive.
    pub kernel_table: Arc<BbTable>,
    /// Per-ASID user tables.
    pub user_tables: Vec<(u8, Arc<BbTable>)>,
    /// The raw trace words.
    pub words: Vec<u32>,
}

/// Errors while reading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a trace archive, or corrupted framing.
    Malformed(&'static str),
    /// The file *is* a trace archive, but in a format version this
    /// decoder does not speak — distinguish "your tooling is too old
    /// (or too new)" from actual corruption. Version-3 and -4 archives
    /// (the compressed block formats) are decoded by `wrl-store`, not
    /// here.
    UnsupportedVersion(u32),
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl core::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "i/o: {e}"),
            ArchiveError::Malformed(what) => write!(f, "malformed archive: {what}"),
            ArchiveError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported archive version {v} (is your tooling current?)"
                )
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ReadError> for ArchiveError {
    fn from(_: ReadError) -> Self {
        ArchiveError::Malformed("truncated")
    }
}

fn encode_table(out: &mut Vec<u8>, t: &BbTable) {
    // Deterministic order for reproducible archives.
    let mut entries: Vec<(&u32, &BbInfo)> = t.iter().collect();
    entries.sort_by_key(|(id, _)| **id);
    put_u32(out, entries.len() as u32);
    for (id, info) in entries {
        put_u32(out, *id);
        put_u32(out, info.orig_vaddr);
        put_u16(out, info.n_insts);
        let flags = u8::from(info.flags.idle_start)
            | (u8::from(info.flags.idle_stop) << 1)
            | (u8::from(info.flags.hand_traced) << 2);
        out.push(flags);
        put_u16(out, info.ops.len() as u16);
        for op in &info.ops {
            put_u16(out, op.index);
            out.push(u8::from(op.store));
            out.push(match op.width {
                Width::Byte => 1,
                Width::Half => 2,
                Width::Word => 4,
            });
        }
    }
}

/// Encodes the full table section — kernel table followed by the
/// per-ASID user tables — in the exact byte layout both archive
/// versions share. Public so the `wrl-store` containers can embed
/// an identical table section without duplicating the codec.
pub fn encode_table_section(out: &mut Vec<u8>, kernel: &BbTable, users: &[(u8, Arc<BbTable>)]) {
    encode_table(out, kernel);
    put_u32(out, users.len() as u32);
    for (asid, t) in users {
        out.push(*asid);
        encode_table(out, t);
    }
}

/// A decoded table section: the kernel table, the per-ASID user
/// tables, and the number of bytes the section occupied.
pub type TableSection = (Arc<BbTable>, Vec<(u8, Arc<BbTable>)>, usize);

/// Decodes a table section produced by [`encode_table_section`],
/// returning the tables and the number of bytes consumed.
pub fn decode_table_section(buf: &[u8]) -> Result<TableSection, ArchiveError> {
    let mut c = Cursor::new(buf);
    let kernel = decode_table(&mut c)?;
    let n_users = c.u32()? as usize;
    if n_users > 64 {
        return Err(ArchiveError::Malformed("too many user tables"));
    }
    let mut users = Vec::with_capacity(n_users);
    for _ in 0..n_users {
        let asid = c.u8()?;
        users.push((asid, decode_table(&mut c)?));
    }
    Ok((kernel, users, c.pos()))
}

fn decode_table(c: &mut Cursor) -> Result<Arc<BbTable>, ArchiveError> {
    let n = c.u32()? as usize;
    let mut t = BbTable::new();
    for _ in 0..n {
        let id = c.u32()?;
        let orig_vaddr = c.u32()?;
        let n_insts = c.u16()?;
        let flags = c.u8()?;
        let n_ops = c.u16()? as usize;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let index = c.u16()?;
            let store = c.u8()? != 0;
            let width = match c.u8()? {
                1 => Width::Byte,
                2 => Width::Half,
                4 => Width::Word,
                _ => return Err(ArchiveError::Malformed("bad width")),
            };
            ops.push(MemOp {
                index,
                store,
                width,
            });
        }
        t.insert(
            id,
            BbInfo {
                orig_vaddr,
                n_insts,
                ops,
                flags: BbTraceFlags {
                    idle_start: flags & 1 != 0,
                    idle_stop: flags & 2 != 0,
                    hand_traced: flags & 4 != 0,
                },
            },
        );
    }
    Ok(Arc::new(t))
}

impl TraceArchive {
    /// Encodes the archive to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4 + 4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        encode_table_section(&mut out, &self.kernel_table, &self.user_tables);
        put_u64(&mut out, self.words.len() as u64);
        put_words(&mut out, &self.words);
        out
    }

    /// Decodes an archive from bytes.
    pub fn decode(buf: &[u8]) -> Result<TraceArchive, ArchiveError> {
        let mut c = Cursor::new(buf);
        if c.take(8)? != MAGIC {
            return Err(ArchiveError::Malformed("bad magic"));
        }
        let v = c.u32()?;
        if v != VERSION {
            return Err(ArchiveError::UnsupportedVersion(v));
        }
        let (kernel_table, user_tables, used) = decode_table_section(&buf[c.pos()..])?;
        let mut c = Cursor::at(buf, c.pos() + used);
        let n_words = c.u64()? as usize;
        let words = c.words(n_words)?;
        Ok(TraceArchive {
            kernel_table,
            user_tables,
            words,
        })
    }

    /// Saves to a file, atomically (see [`write_atomic`]).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path, &self.encode())
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceArchive, ArchiveError> {
        TraceArchive::decode(&std::fs::read(path)?)
    }

    /// Builds a parser sharing this archive's tables.
    pub fn parser(&self) -> TraceParser {
        TraceParser::with_tables(self.kernel_table.clone(), self.user_tables.iter().cloned())
    }
}

/// Writes `bytes` to `path` so that a crash mid-save leaves the old
/// file or the new one, never a torn one: the bytes go to a temp file
/// beside the target, are synced to disk, and the temp file is then
/// renamed over the target and the directory synced, so the rename
/// itself is durable. On any failure the temp file is removed.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut name = path
        .file_name()
        .ok_or(io::ErrorKind::InvalidInput)?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let saved = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| std::fs::File::open(dir)?.sync_all());
    if saved.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{ctl, CtlOp};
    use crate::parser::CollectSink;

    fn sample() -> TraceArchive {
        let mut kt = BbTable::new();
        kt.insert(
            0x8003_0100,
            BbInfo {
                orig_vaddr: 0x8003_0000,
                n_insts: 4,
                ops: vec![MemOp {
                    index: 2,
                    store: true,
                    width: Width::Half,
                }],
                flags: BbTraceFlags {
                    idle_start: true,
                    idle_stop: false,
                    hand_traced: false,
                },
            },
        );
        let mut ut = BbTable::new();
        ut.insert(
            0x0050_0000,
            BbInfo {
                orig_vaddr: 0x0040_0000,
                n_insts: 2,
                ops: vec![MemOp {
                    index: 0,
                    store: false,
                    width: Width::Word,
                }],
                flags: BbTraceFlags::default(),
            },
        );
        TraceArchive {
            kernel_table: Arc::new(kt),
            user_tables: vec![(3, Arc::new(ut))],
            words: vec![
                ctl(CtlOp::CtxSwitch, 3),
                0x0050_0000,
                0x0100_0000,
                ctl(CtlOp::KEnter, 0),
                0x8003_0100,
                0x8030_0004,
                ctl(CtlOp::KExit, 0),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let a = sample();
        let bytes = a.encode();
        let b = TraceArchive::decode(&bytes).unwrap();
        assert_eq!(b.words, a.words);
        assert_eq!(b.user_tables.len(), 1);
        assert_eq!(b.user_tables[0].0, 3);
        let info = b.kernel_table.get(0x8003_0100).unwrap();
        assert_eq!(info.n_insts, 4);
        assert!(info.flags.idle_start);
        assert_eq!(info.ops[0].width, Width::Half);
        assert!(info.ops[0].store);
    }

    #[test]
    fn loaded_archive_parses_like_the_original() {
        let a = sample();
        let b = TraceArchive::decode(&a.encode()).unwrap();
        let mut p = b.parser();
        let mut sink = CollectSink::default();
        p.parse_all(&b.words, &mut sink);
        assert_eq!(p.stats.errors, 0, "{:?}", p.errors);
        assert_eq!(sink.irefs.len(), 6);
        assert_eq!(sink.drefs.len(), 2);
        // 4 kernel idle insts + the user block's trailing iref, which
        // is flushed lazily after the idle flag was raised.
        assert_eq!(p.stats.idle_insts, 5);
    }

    #[test]
    fn rejects_garbage() {
        assert!(TraceArchive::decode(b"not a trace").is_err());
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(TraceArchive::decode(&bytes).is_err());
        // Wrong version.
        let mut bytes = sample().encode();
        bytes[8] = 99;
        assert!(matches!(
            TraceArchive::decode(&bytes),
            Err(ArchiveError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn v2_archive_is_unsupported_not_malformed() {
        // A version-2 (compressed) archive read by the v1 decoder must
        // report "your tooling is old", not "corrupt file".
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        match TraceArchive::decode(&bytes) {
            Err(ArchiveError::UnsupportedVersion(2)) => {}
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
    }

    #[test]
    fn save_replaces_the_target_whole_or_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("wrl-trace-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listing = |d: &Path| -> Vec<_> {
            std::fs::read_dir(d)
                .map(|it| it.map(|e| e.unwrap().file_name()).collect())
                .unwrap_or_default()
        };

        // Over an existing archive: the file loads as the new archive
        // and no temp file is left beside it.
        let path = dir.join("t.w3kt");
        let old = TraceArchive::default();
        old.save(&path).unwrap();
        let new = sample();
        new.save(&path).unwrap();
        assert_eq!(TraceArchive::load(&path).unwrap().words, new.words);
        assert_eq!(listing(&dir), ["t.w3kt"]);

        // Into a missing directory: an error, and nothing is created.
        let missing = dir.join("absent");
        assert!(new.save(missing.join("t.w3kt")).is_err());
        assert!(!missing.exists());
        assert_eq!(listing(&dir), ["t.w3kt"]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_section_round_trips_standalone() {
        let a = sample();
        let mut buf = Vec::new();
        encode_table_section(&mut buf, &a.kernel_table, &a.user_tables);
        let (kernel, users, used) = decode_table_section(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(kernel.len(), a.kernel_table.len());
        assert_eq!(users.len(), 1);
        assert_eq!(users[0].0, 3);
    }
}
