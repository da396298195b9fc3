//! The `wrl-wire/v1` framing and message codec.
//!
//! Every message — request or response — travels in one
//! length-prefixed, CRC-framed binary frame:
//!
//! ```text
//! frame    := u32 len, body            len = |body|, ≤ MAX_FRAME
//! body     := u64 req_id, u8 opcode, payload, u32 crc32(req_id ‥ payload)
//! string   := u16 len, utf-8 bytes
//! opt<T>   := u8 0 | u8 1, T
//!
//! request  := 0x01 catalog  {}
//!           | 0x02 fetch    { archive: string, first_block: u32, n_blocks: u32 }
//!           | 0x03 query    { archive: string, asid: opt<u8>,
//!                             window: opt<{ lo: u64, hi: u64 }> }
//!           | 0x04 metrics  {}
//! response := 0x81 catalog  { u32 n, entry × n }
//!           | 0x82 fetch    { u32 n, raw_block × n }
//!           | 0x83 query    { blocks_decoded: u32, blocks_skipped: u32,
//!                             u64 n_words, u32 word × n_words }
//!           | 0x84 metrics  { json: string32 }      (wrl-obs-metrics/v1)
//!           | 0x7e busy     {}
//!           | 0x7f error    { code: u16, msg: string }
//! ```
//!
//! Every response answers one request and echoes its id; the server
//! sends nothing unasked.
//!
//! All integers are little-endian, matching the store container. The
//! CRC-32 (the store codec's polynomial) covers the request id, the
//! opcode and the payload, so a flipped bit anywhere in a frame is a
//! typed [`WireError::CrcMismatch`] — never a silently different
//! message, the §4.3 rule extended over the network. The length
//! prefix is capped at [`MAX_FRAME`] so a corrupted length can cost
//! at most one bounded allocation before the CRC catches it.

use std::ops::ControlFlow;

use wrl_store::{crc32_bytes, decode_block_bytes, Predicate, QueryResult, StoreError};
use wrl_trace::bytes::{put_str16, put_u16, put_u32, put_u64, put_words, Cursor, ReadError};

/// Protocol identifier; bumped on any incompatible framing change.
pub const WIRE_SCHEMA: &str = "wrl-wire/v1";

/// Hard cap on one frame's body, bounding the allocation a length
/// prefix can demand (64 MiB holds a ~16M-word query response).
pub const MAX_FRAME: usize = 64 << 20;

/// Smallest legal body: request id, opcode, empty payload, CRC.
pub const MIN_BODY: usize = 8 + 1 + 4;

/// Bytes of a fetch response's `raw_block` ahead of the compressed
/// bytes: the index-entry summary plus the `u32 comp_len`. What a
/// fetch answer budgets per block against [`MAX_FRAME`].
pub const RAW_BLOCK_HEADER_BYTES: usize = 4 + 4 + 1 + 1 + 1 + 8 + 4 + 4 + 4;

/// Request opcodes (responses are `opcode | 0x80`).
pub mod op {
    /// List the archives the server holds.
    pub const CATALOG: u8 = 0x01;
    /// Fetch a range of raw compressed blocks with their index entries.
    pub const FETCH: u8 = 0x02;
    /// Windowed decode with predicate pushdown.
    pub const QUERY: u8 = 0x03;
    /// `wrl-obs-metrics/v1` JSON snapshot of the server's registry.
    pub const METRICS: u8 = 0x04;
    // 0x05 (`shards`), 0x06 (`subscribe`) and 0x07 (`unsubscribe`)
    // are retired, never reassigned: a server answers each as any
    // unknown opcode. So are their responses 0x86 and 0x87, and the
    // pushed `event` 0x7d: a client decodes none of them.
    /// Response bit: a response's opcode is the request's, ORed in.
    pub const RESPONSE: u8 = 0x80;
    /// The admission gate refused the request; retry later.
    pub const BUSY: u8 = 0x7e;
    /// The request failed; payload carries code and message.
    pub const ERROR: u8 = 0x7f;
}

/// Error codes carried by an `error` response.
pub mod err {
    /// The named archive is not in the server's catalog.
    pub const NO_SUCH_ARCHIVE: u16 = 1;
    /// The request frame decoded but asked something unserviceable
    /// (bad block range, oversized response).
    pub const BAD_REQUEST: u16 = 2;
    /// The store failed server-side (codec, CRC) — the §4.3 outcome
    /// reported to the client instead of a wrong answer.
    pub const STORE: u16 = 3;
    /// The request frame itself was malformed or failed its CRC.
    pub const WIRE: u16 = 4;
    // 5 (`unavailable`), 6 (`slow_consumer`) and 7
    // (`retention_evicted`) are retired, never reassigned.
}

/// A decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// List the archives the server holds.
    Catalog,
    /// Fetch `n_blocks` raw compressed blocks starting at
    /// `first_block`, with their index entries.
    Fetch {
        /// Catalog name of the archive.
        archive: String,
        /// First block of the range.
        first_block: u32,
        /// Number of blocks.
        n_blocks: u32,
    },
    /// Decode and filter server-side, shipping only matching words.
    Query {
        /// Catalog name of the archive.
        archive: String,
        /// The word filter (pushed down to the block index).
        pred: Predicate,
    },
    /// Snapshot the server's metrics registry.
    Metrics,
}

impl Request {
    /// The request's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Catalog => op::CATALOG,
            Request::Fetch { .. } => op::FETCH,
            Request::Query { .. } => op::QUERY,
            Request::Metrics => op::METRICS,
        }
    }
}

/// One archive's row in a catalog response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Catalog name (what fetch/query requests reference).
    pub name: String,
    /// Total trace words.
    pub n_words: u64,
    /// Block count.
    pub n_blocks: u32,
    /// Nominal words per block.
    pub block_words: u32,
    /// Compressed block-area size in bytes.
    pub compressed_bytes: u64,
}

/// One raw block in a fetch response: the index entry plus the
/// compressed bytes, so the client can decompress and verify the
/// CRC itself — the store's end-to-end integrity check survives the
/// network hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawBlock {
    /// Decoded word count.
    pub words: u32,
    /// CRC-32 over the decoded words.
    pub crc: u32,
    /// ASID context at the block's first word.
    pub first_asid: u8,
    /// ASID context after the block's last word.
    pub last_asid: u8,
    /// Summary flags (see [`wrl_store::BlockMeta`]).
    pub flags: u8,
    /// Global word offset of the block's first word.
    pub first_word: u64,
    /// Reserved: the index entry's lower data-address bound, read
    /// only under [`wrl_store::BlockMeta::FLAG_DADDR`]; zero from
    /// today's writer.
    pub min_daddr: u32,
    /// Reserved: the index entry's upper data-address bound, read
    /// only under [`wrl_store::BlockMeta::FLAG_DADDR`]; zero from
    /// today's writer.
    pub max_daddr: u32,
    /// The compressed block bytes, exactly as stored.
    pub comp: Vec<u8>,
}

impl RawBlock {
    /// Decompresses the block and verifies its words against the
    /// shipped CRC — the client-side half of the end-to-end check,
    /// through the same [`decode_block_bytes`] a store reads its own
    /// blocks with. The shipped flags byte carries the block coding
    /// ([`wrl_store::BlockMeta::FLAG_COLUMNAR`]), so v4 blocks
    /// fetch over the unchanged `wrl-wire/v1` frame layout.
    pub fn decode(&self) -> Result<Vec<u32>, WireError> {
        let mut words = Vec::new();
        // A fetched block does not know its index; the error that
        // would name it is reshaped below.
        match decode_block_bytes(0, &self.comp, self.words, self.flags, self.crc, &mut words) {
            Ok(()) => Ok(words),
            Err(StoreError::CrcMismatch { want, got, .. }) => {
                Err(WireError::CrcMismatch { want, got })
            }
            Err(_) => Err(WireError::Malformed("fetched block fails to decompress")),
        }
    }
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The server's archives, sorted by name.
    Catalog(Vec<CatalogEntry>),
    /// The requested raw blocks, in range order.
    Fetch(Vec<RawBlock>),
    /// The matching words plus the pushdown's skip counts.
    Query(QueryResult),
    /// `wrl-obs-metrics/v1` JSON.
    Metrics(String),
    /// Admission gate full; retry later.
    Busy,
    /// The request failed with a typed code.
    Error {
        /// One of the [`err`] codes.
        code: u16,
        /// Human-readable diagnosis.
        msg: String,
    },
}

impl Response {
    /// The response's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Catalog(_) => op::CATALOG | op::RESPONSE,
            Response::Fetch(_) => op::FETCH | op::RESPONSE,
            Response::Query(_) => op::QUERY | op::RESPONSE,
            Response::Metrics(_) => op::METRICS | op::RESPONSE,
            Response::Busy => op::BUSY,
            Response::Error { .. } => op::ERROR,
        }
    }
}

/// Typed wire-level failures. Every way a frame can be damaged maps
/// here — the chaos campaign's "detected" outcome for wire faults.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Framing or payload structure is broken.
    Malformed(&'static str),
    /// The frame parsed but its CRC does not cover its bytes.
    CrcMismatch {
        /// CRC carried in the frame.
        want: u32,
        /// CRC computed over the received bytes.
        got: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::CrcMismatch { want, got } => {
                write!(
                    f,
                    "frame CRC mismatch (framed {want:#010x}, got {got:#010x})"
                )
            }
            WireError::TooLarge(n) => write!(f, "frame length {n} exceeds cap"),
            WireError::UnknownOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> Self {
        WireError::Malformed(match e {
            ReadError::Truncated => "truncated payload",
            ReadError::NotUtf8 => "string is not utf-8",
        })
    }
}

/// Long string (metrics JSON outgrows u16).
fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn done(c: &Cursor) -> Result<(), WireError> {
    if c.remaining() == 0 {
        Ok(())
    } else {
        Err(WireError::Malformed("trailing bytes after payload"))
    }
}

/// Opens a frame: the length prefix reserved, the request id and
/// opcode written, room for `payload` bytes of payload and the CRC.
/// The payload is then appended in place and [`seal_frame`] closes it.
fn open_frame(req_id: u64, opcode: u8, payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 1 + payload + 4);
    out.extend_from_slice(&[0; 4]);
    put_u64(&mut out, req_id);
    out.push(opcode);
    out
}

/// Seals a frame [`open_frame`] began: patches the length prefix and
/// appends the CRC over request id, opcode and payload.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    // The body is everything past the prefix, plus the CRC.
    let body_len = out.len() - 4 + 4;
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = crc32_bytes(&out[4..]);
    put_u32(&mut out, crc);
    out
}

/// Frame offsets of a query answer's header fields, and of its first
/// word.
const QUERY_DECODED_AT: usize = 4 + 8 + 1;
const QUERY_SKIPPED_AT: usize = QUERY_DECODED_AT + 4;
const QUERY_N_WORDS_AT: usize = QUERY_SKIPPED_AT + 4;
const QUERY_WORDS_AT: usize = QUERY_N_WORDS_AT + 8;

/// A query answer written straight into its frame — the one place
/// the query layout lives. The header is reserved, the admitted words
/// are appended span by span as the store hands them over, and
/// [`QueryFrame::seal`] patches the block counts, the word count and
/// the length prefix in place and appends the CRC.
///
/// An answer of `n` words fits its frame cap `cap` while
/// `n * 4 + 64 <= cap`. The first span that would pass that bound is
/// refused whole and the frame stops taking words, so an answer too
/// big to send is never built whole. Served answers are capped at
/// [`MAX_FRAME`]; [`encode_response`] writes an uncapped one.
pub(crate) struct QueryFrame {
    out: Vec<u8>,
    max_words: usize,
    over: bool,
}

impl QueryFrame {
    /// Opens the answer to request `req_id` under frame cap `cap`,
    /// with room for `words` words.
    pub(crate) fn new(req_id: u64, cap: usize, words: usize) -> QueryFrame {
        let max_words = cap.saturating_sub(64) / 4;
        let payload = QUERY_WORDS_AT - QUERY_DECODED_AT + 4 * words.min(max_words);
        let mut out = open_frame(req_id, op::QUERY | op::RESPONSE, payload);
        out.resize(QUERY_WORDS_AT, 0);
        QueryFrame {
            out,
            max_words,
            over: false,
        }
    }

    fn n_words(&self) -> usize {
        (self.out.len() - QUERY_WORDS_AT) / 4
    }

    /// Appends the next span of the answer, or refuses it, and every
    /// span after it, if it would pass the frame cap.
    pub(crate) fn push(&mut self, words: &[u32]) -> ControlFlow<()> {
        if self.over || words.len() > self.max_words - self.n_words() {
            self.over = true;
            return ControlFlow::Break(());
        }
        put_words(&mut self.out, words);
        ControlFlow::Continue(())
    }

    /// The sealed frame, or `None` if the answer passed the frame cap.
    pub(crate) fn seal(self, blocks_decoded: u32, blocks_skipped: u32) -> Option<Vec<u8>> {
        if self.over {
            return None;
        }
        let n_words = self.n_words() as u64;
        let mut out = self.out;
        out[QUERY_DECODED_AT..QUERY_SKIPPED_AT].copy_from_slice(&blocks_decoded.to_le_bytes());
        out[QUERY_SKIPPED_AT..QUERY_N_WORDS_AT].copy_from_slice(&blocks_skipped.to_le_bytes());
        out[QUERY_N_WORDS_AT..QUERY_WORDS_AT].copy_from_slice(&n_words.to_le_bytes());
        Some(seal_frame(out))
    }
}

/// Splits a received body into (request id, opcode, payload) after
/// checking the CRC. `body` excludes the length prefix.
fn decode_frame(body: &[u8]) -> Result<(u64, u8, &[u8]), WireError> {
    if body.len() < MIN_BODY {
        return Err(WireError::Malformed("body shorter than minimum"));
    }
    let crc_at = body.len() - 4;
    let want = u32::from_le_bytes(body[crc_at..].try_into().unwrap());
    let got = crc32_bytes(&body[..crc_at]);
    if want != got {
        return Err(WireError::CrcMismatch { want, got });
    }
    let req_id = u64::from_le_bytes(body[..8].try_into().unwrap());
    Ok((req_id, body[8], &body[9..crc_at]))
}

fn put_pred(out: &mut Vec<u8>, pred: &Predicate) {
    match pred.asid {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            out.push(a);
        }
    }
    match pred.window {
        None => out.push(0),
        Some((lo, hi)) => {
            out.push(1);
            put_u64(out, lo);
            put_u64(out, hi);
        }
    }
}

fn get_pred(c: &mut Cursor) -> Result<Predicate, WireError> {
    let asid = match c.u8()? {
        0 => None,
        1 => Some(c.u8()?),
        _ => return Err(WireError::Malformed("bad option tag")),
    };
    let window = match c.u8()? {
        0 => None,
        1 => Some((c.u64()?, c.u64()?)),
        _ => return Err(WireError::Malformed("bad option tag")),
    };
    Ok(Predicate { asid, window })
}

/// Encodes a request as one frame.
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut p = open_frame(req_id, req.opcode(), 64);
    match req {
        Request::Catalog | Request::Metrics => {}
        Request::Fetch {
            archive,
            first_block,
            n_blocks,
        } => {
            put_str16(&mut p, archive);
            put_u32(&mut p, *first_block);
            put_u32(&mut p, *n_blocks);
        }
        Request::Query { archive, pred } => {
            put_str16(&mut p, archive);
            put_pred(&mut p, pred);
        }
    }
    seal_frame(p)
}

/// Decodes a request body (without length prefix), returning the
/// request id alongside.
pub fn decode_request(body: &[u8]) -> Result<(u64, Request), WireError> {
    let (req_id, opcode, payload) = decode_frame(body)?;
    let mut c = Cursor::new(payload);
    let req = match opcode {
        op::CATALOG => Request::Catalog,
        op::METRICS => Request::Metrics,
        op::FETCH => Request::Fetch {
            archive: c.str16()?,
            first_block: c.u32()?,
            n_blocks: c.u32()?,
        },
        op::QUERY => Request::Query {
            archive: c.str16()?,
            pred: get_pred(&mut c)?,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    done(&c)?;
    Ok((req_id, req))
}

/// Encodes a response as one frame.
pub fn encode_response(req_id: u64, resp: &Response) -> Vec<u8> {
    let bulk = match resp {
        Response::Query(q) => {
            let mut f = QueryFrame::new(req_id, usize::MAX, q.words.len());
            let _ = f.push(&q.words);
            return f
                .seal(q.blocks_decoded, q.blocks_skipped)
                .expect("an uncapped frame holds any answer");
        }
        Response::Fetch(blocks) => blocks
            .iter()
            .map(|b| RAW_BLOCK_HEADER_BYTES + b.comp.len())
            .sum(),
        Response::Metrics(json) => json.len(),
        _ => 0,
    };
    let mut p = open_frame(req_id, resp.opcode(), 64 + bulk);
    match resp {
        Response::Busy | Response::Query(_) => {}
        Response::Error { code, msg } => {
            put_u16(&mut p, *code);
            put_str16(&mut p, msg);
        }
        Response::Catalog(entries) => {
            put_u32(&mut p, entries.len() as u32);
            for e in entries {
                put_str16(&mut p, &e.name);
                put_u64(&mut p, e.n_words);
                put_u32(&mut p, e.n_blocks);
                put_u32(&mut p, e.block_words);
                put_u64(&mut p, e.compressed_bytes);
            }
        }
        Response::Fetch(blocks) => {
            put_u32(&mut p, blocks.len() as u32);
            for b in blocks {
                put_u32(&mut p, b.words);
                put_u32(&mut p, b.crc);
                p.push(b.first_asid);
                p.push(b.last_asid);
                p.push(b.flags);
                put_u64(&mut p, b.first_word);
                put_u32(&mut p, b.min_daddr);
                put_u32(&mut p, b.max_daddr);
                put_u32(&mut p, b.comp.len() as u32);
                p.extend_from_slice(&b.comp);
            }
        }
        Response::Metrics(json) => put_str32(&mut p, json),
    }
    seal_frame(p)
}

/// Decodes a response body (without length prefix), returning the
/// request id it answers.
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), WireError> {
    let (req_id, opcode, payload) = decode_frame(body)?;
    let mut c = Cursor::new(payload);
    let resp = match opcode {
        op::BUSY => Response::Busy,
        op::ERROR => Response::Error {
            code: c.u16()?,
            msg: c.str16()?,
        },
        o if o == op::CATALOG | op::RESPONSE => {
            let n = c.u32()? as usize;
            if n > payload.len() / 4 {
                return Err(WireError::Malformed("catalog count exceeds payload"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(CatalogEntry {
                    name: c.str16()?,
                    n_words: c.u64()?,
                    n_blocks: c.u32()?,
                    block_words: c.u32()?,
                    compressed_bytes: c.u64()?,
                });
            }
            Response::Catalog(entries)
        }
        o if o == op::FETCH | op::RESPONSE => {
            let n = c.u32()? as usize;
            if n > payload.len() / 4 {
                return Err(WireError::Malformed("block count exceeds payload"));
            }
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                let (words, crc) = (c.u32()?, c.u32()?);
                let (first_asid, last_asid, flags) = (c.u8()?, c.u8()?, c.u8()?);
                let first_word = c.u64()?;
                let (min_daddr, max_daddr) = (c.u32()?, c.u32()?);
                let comp_len = c.u32()? as usize;
                blocks.push(RawBlock {
                    words,
                    crc,
                    first_asid,
                    last_asid,
                    flags,
                    first_word,
                    min_daddr,
                    max_daddr,
                    comp: c.take(comp_len)?.to_vec(),
                });
            }
            Response::Fetch(blocks)
        }
        o if o == op::QUERY | op::RESPONSE => {
            let blocks_decoded = c.u32()?;
            let blocks_skipped = c.u32()?;
            let n = c.u64()? as usize;
            if n != c.remaining() / 4 {
                return Err(WireError::Malformed("word count disagrees with payload"));
            }
            let words = c.words(n)?;
            Response::Query(QueryResult {
                blocks_decoded,
                blocks_skipped,
                words,
            })
        }
        o if o == op::METRICS | op::RESPONSE => Response::Metrics({
            let n = c.u32()? as usize;
            c.utf8(n)?
        }),
        other => return Err(WireError::UnknownOpcode(other)),
    };
    done(&c)?;
    Ok((req_id, resp))
}

/// What one attempt to read a frame off a socket produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete body (length prefix stripped, CRC not yet checked).
    Frame(Vec<u8>),
    /// The socket is open but idle: the read timed out before any
    /// byte of a new frame arrived. Callers poll their shutdown flag
    /// and try again — this is the tick that keeps a blocked server
    /// thread responsive.
    Idle,
    /// Clean end of stream between frames.
    Eof,
}

fn is_stall(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame from `r`, which must have a read
/// timeout set: each timeout before the first byte of a frame is an
/// [`FrameRead::Idle`] tick, while a timeout *mid-frame* counts
/// against `max_stalls` — exceeding it is a hard `TimedOut` error, so
/// a peer that stops sending mid-frame can stall a thread for at most
/// `max_stalls` read-timeout ticks. Out-of-range length prefixes are
/// `InvalidData` before any allocation beyond [`MAX_FRAME`].
pub fn read_frame(r: &mut impl std::io::Read, max_stalls: u32) -> std::io::Result<FrameRead> {
    use std::io::{Error, ErrorKind, Read};
    let mut stalls = 0u32;
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Eof)
                } else {
                    Err(ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => got += n,
            Err(e) if is_stall(&e) => {
                if got == 0 {
                    return Ok(FrameRead::Idle);
                }
                stalls += 1;
                if stalls > max_stalls {
                    return Err(Error::new(ErrorKind::TimedOut, "peer stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(MIN_BODY..=MAX_FRAME).contains(&len) {
        return Err(Error::new(
            ErrorKind::InvalidData,
            WireError::Malformed("frame length out of range").to_string(),
        ));
    }
    // The body lands in uninitialised capacity: `read_to_end` through
    // `take` fills it without a zero-fill first, keeps whatever a
    // failed read already delivered, and retries `Interrupted` itself.
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let rest = (len - body.len()) as u64;
        match r.by_ref().take(rest).read_to_end(&mut body) {
            Ok(_) if body.len() < len => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if is_stall(&e) => {
                stalls += 1;
                if stalls > max_stalls {
                    return Err(Error::new(ErrorKind::TimedOut, "peer stalled mid-frame"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(7, &req);
        let (id, back) = decode_request(&frame[4..]).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Catalog);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Fetch {
            archive: "sed".into(),
            first_block: 3,
            n_blocks: 9,
        });
        roundtrip_request(Request::Query {
            archive: "grr".into(),
            pred: Predicate {
                asid: Some(5),
                window: Some((100, 2000)),
            },
        });
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Busy,
            Response::Error {
                code: err::NO_SUCH_ARCHIVE,
                msg: "no archive named x".into(),
            },
            Response::Catalog(vec![CatalogEntry {
                name: "sed".into(),
                n_words: 123456,
                n_blocks: 31,
                block_words: 4096,
                compressed_bytes: 9999,
            }]),
            Response::Fetch(vec![RawBlock {
                words: 8,
                crc: 0xdead_beef,
                first_asid: 1,
                last_asid: 2,
                flags: 7,
                first_word: 4096,
                min_daddr: 0x1000,
                max_daddr: 0x2000,
                comp: vec![1, 2, 3, 4, 5],
            }]),
            Response::Query(QueryResult {
                blocks_decoded: 2,
                blocks_skipped: 40,
                words: vec![0x8003_0100, 0x102, 0x8003_0104],
            }),
            Response::Metrics("{\"schema\": \"wrl-obs-metrics/v1\"}".into()),
        ] {
            let frame = encode_response(99, &resp);
            let (id, back) = decode_response(&frame[4..]).unwrap();
            assert_eq!(id, 99);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn retired_push_and_ack_opcodes_decode_as_unknown() {
        // The retired `event` push and the two retired acks: a sealed
        // body under any of them, empty or shaped like an end-of-feed
        // event (seq, zero words), is no answer at all.
        for opcode in [0x7d, 0x86, 0x87] {
            for payload in [&[][..], &[0; 12]] {
                let mut frame = open_frame(3, opcode, payload.len());
                frame.extend_from_slice(payload);
                let frame = seal_frame(frame);
                assert_eq!(
                    decode_response(&frame[4..]),
                    Err(WireError::UnknownOpcode(opcode)),
                    "{opcode:#04x}, {} payload bytes",
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let frame = encode_request(
            1,
            &Request::Query {
                archive: "sed".into(),
                pred: Predicate {
                    asid: Some(3),
                    window: None,
                },
            },
        );
        // Flip every bit of the body in turn: each must surface as a
        // typed error (almost always a CRC mismatch; flips inside the
        // CRC field itself also land there).
        for at in 4..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    decode_request(&bad[4..]).is_err(),
                    "flip at byte {at} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_and_junk_bodies_are_typed_errors() {
        let frame = encode_request(1, &Request::Catalog);
        for cut in 0..frame.len() - 5 {
            assert!(decode_request(&frame[4..4 + cut]).is_err(), "cut={cut}");
        }
        assert!(matches!(
            decode_request(&[0u8; 64]),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    /// One step of a [`Scripted`] reader.
    #[derive(Clone, Copy)]
    enum Step {
        /// Hand over at most this many bytes (also capped by the
        /// caller's buffer).
        Give(usize),
        /// Fail this one call with this kind.
        Fail(std::io::ErrorKind),
    }

    /// A reader that plays `steps` over `data`; past the last step the
    /// rest of `data` flows freely, then EOF.
    struct Scripted {
        data: Vec<u8>,
        at: usize,
        steps: std::collections::VecDeque<Step>,
    }

    impl std::io::Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let cap = match self.steps.pop_front() {
                Some(Step::Fail(kind)) => return Err(kind.into()),
                Some(Step::Give(n)) => n,
                None => usize::MAX,
            };
            let n = cap.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Runs `read_frame` over `data` under `steps`, returning what it
    /// produced and how many bytes it consumed.
    fn play(data: &[u8], steps: &[Step], max_stalls: u32) -> (std::io::Result<FrameRead>, usize) {
        let mut r = Scripted {
            data: data.to_vec(),
            at: 0,
            steps: steps.iter().copied().collect(),
        };
        let got = read_frame(&mut r, max_stalls);
        (got, r.at)
    }

    fn sample_frame() -> Vec<u8> {
        encode_response(
            5,
            &Response::Query(QueryResult {
                blocks_decoded: 1,
                blocks_skipped: 3,
                words: (0..40).collect(),
            }),
        )
    }

    fn body_of(got: std::io::Result<FrameRead>) -> Vec<u8> {
        match got {
            Ok(FrameRead::Frame(body)) => body,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn err_kind(got: std::io::Result<FrameRead>) -> std::io::ErrorKind {
        match got {
            Err(e) => e.kind(),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_is_idle_on_a_timeout_before_any_byte() {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let frame = sample_frame();
        for kind in [WouldBlock, TimedOut] {
            let (got, at) = play(&frame, &[Step::Fail(kind)], 0);
            assert!(matches!(got, Ok(FrameRead::Idle)), "{kind:?}: {got:?}");
            assert_eq!(at, 0, "an idle tick consumes nothing");
        }
        let (got, _) = play(&[], &[], 0);
        assert!(matches!(got, Ok(FrameRead::Eof)), "{got:?}");
    }

    #[test]
    fn read_frame_counts_one_stall_per_mid_frame_timeout() {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let frame = sample_frame();
        // One stall mid-prefix, two mid-body: three in all.
        let script = [
            Step::Give(1),
            Step::Fail(WouldBlock),
            Step::Give(9),
            Step::Fail(TimedOut),
            Step::Fail(WouldBlock),
        ];
        for max_stalls in 0..6 {
            let (got, _) = play(&frame, &script, max_stalls);
            if max_stalls >= 3 {
                assert_eq!(body_of(got), frame[4..], "max_stalls {max_stalls}");
            } else {
                assert_eq!(err_kind(got), TimedOut, "max_stalls {max_stalls}");
            }
        }
        // Stalls charged in the prefix and in the body share one count.
        let prefix_only = [Step::Give(2), Step::Fail(WouldBlock), Step::Fail(TimedOut)];
        assert_eq!(err_kind(play(&frame, &prefix_only, 1).0), TimedOut);
        assert_eq!(body_of(play(&frame, &prefix_only, 2).0), frame[4..]);
        let body_only = [Step::Give(4), Step::Fail(TimedOut), Step::Give(3)];
        assert_eq!(err_kind(play(&frame, &body_only, 0).0), TimedOut);
        assert_eq!(body_of(play(&frame, &body_only, 1).0), frame[4..]);
    }

    #[test]
    fn read_frame_reports_eof_mid_frame_as_unexpected() {
        let frame = sample_frame();
        for cut in 1..frame.len() {
            let (got, at) = play(&frame[..cut], &[], 0);
            assert_eq!(
                err_kind(got),
                std::io::ErrorKind::UnexpectedEof,
                "cut {cut}"
            );
            assert_eq!(at, cut);
        }
    }

    #[test]
    fn read_frame_retries_interrupted_reads_without_charging_a_stall() {
        use std::io::ErrorKind::Interrupted;
        let frame = sample_frame();
        let script = [
            Step::Fail(Interrupted),
            Step::Give(2),
            Step::Fail(Interrupted),
            Step::Give(6),
            Step::Fail(Interrupted),
            Step::Fail(Interrupted),
        ];
        assert_eq!(body_of(play(&frame, &script, 0).0), frame[4..]);
    }

    #[test]
    fn read_frame_reassembles_one_byte_reads() {
        let frame = sample_frame();
        let script = vec![Step::Give(1); frame.len()];
        let (got, at) = play(&frame, &script, 0);
        assert_eq!(body_of(got), frame[4..]);
        assert_eq!(at, frame.len());
        // A frame followed by another: only the first is consumed.
        let two = [frame.clone(), frame.clone()].concat();
        let (got, at) = play(&two, &[], 0);
        assert_eq!(body_of(got), frame[4..]);
        assert_eq!(at, frame.len());
    }

    #[test]
    fn read_frame_refuses_an_out_of_range_prefix_before_reading_the_body() {
        let junk = vec![0xa5u8; 64];
        for len in [0, MIN_BODY as u32 - 1, MAX_FRAME as u32 + 1, u32::MAX] {
            let data = [len.to_le_bytes().as_slice(), &junk].concat();
            let (got, at) = play(&data, &[], 0);
            assert_eq!(err_kind(got), std::io::ErrorKind::InvalidData, "len {len}");
            assert_eq!(at, 4, "len {len}: nothing past the prefix is read");
        }
        // Both bounds themselves are legal lengths.
        let data = [(MIN_BODY as u32).to_le_bytes().as_slice(), &junk].concat();
        assert_eq!(body_of(play(&data, &[], 0).0), junk[..MIN_BODY]);
        let data = (MAX_FRAME as u32).to_le_bytes();
        assert_eq!(
            err_kind(play(&data, &[], 0).0),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn read_frame_passes_other_errors_through() {
        use std::io::ErrorKind::ConnectionReset;
        let frame = sample_frame();
        for script in [
            vec![Step::Fail(ConnectionReset)],
            vec![Step::Give(2), Step::Fail(ConnectionReset)],
            vec![Step::Give(20), Step::Fail(ConnectionReset)],
        ] {
            assert_eq!(err_kind(play(&frame, &script, 9).0), ConnectionReset);
        }
    }

    #[test]
    fn query_frame_admits_up_to_the_frame_cap_and_stops_copying_past_it() {
        let words: Vec<u32> = (0..11).map(|i| 0x8003_0100 + 4 * i).collect();
        let cap = 10 * 4 + 64;
        let answer = |n: usize| {
            Response::Query(QueryResult {
                blocks_decoded: 2,
                blocks_skipped: 3,
                words: words[..n].to_vec(),
            })
        };
        // Exactly at the bound, in two spans: the frame is what
        // `encode_response` makes of the whole answer.
        let mut f = QueryFrame::new(7, cap, 0);
        assert!(f.push(&words[..6]).is_continue());
        assert!(f.push(&words[6..10]).is_continue());
        let frame = f.seal(2, 3).expect("ten words fit");
        assert_eq!(frame, encode_response(7, &answer(10)));
        assert_eq!(decode_response(&frame[4..]).unwrap(), (7, answer(10)));
        // One word more: the span that would pass the bound is not
        // copied, nor is any after it, and nothing is sealed.
        let mut f = QueryFrame::new(7, cap, 0);
        assert!(f.push(&words[..7]).is_continue());
        assert!(f.push(&words[7..]).is_break());
        assert_eq!(f.n_words(), 7);
        assert!(
            f.push(&words[..1]).is_break(),
            "a refused frame takes no more"
        );
        assert_eq!(f.out.len(), QUERY_WORDS_AT + 7 * 4);
        assert!(f.seal(2, 3).is_none());
        let mut f = QueryFrame::new(7, cap, 11);
        assert!(f.push(&words).is_break());
        assert_eq!(f.n_words(), 0);
        // Served frames are held to the same bound under MAX_FRAME.
        let served = QueryFrame::new(1, MAX_FRAME, 0);
        assert_eq!(served.max_words * 4 + 64, MAX_FRAME);
    }

    #[test]
    fn fetched_block_verifies_end_to_end() {
        let words: Vec<u32> = (0..100).map(|i| 0x8003_0000 + i * 4).collect();
        let comp = wrl_store::compress_block(&words);
        let mut b = RawBlock {
            words: 100,
            crc: wrl_store::crc32_words(&words),
            first_asid: 0,
            last_asid: 0,
            flags: 0,
            first_word: 0,
            min_daddr: 0,
            max_daddr: 0,
            comp,
        };
        assert_eq!(b.decode().unwrap(), words);
        b.comp[0] ^= 0xff;
        assert!(b.decode().is_err());
    }
}
