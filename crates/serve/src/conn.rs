//! The per-connection state machine the reactor drives — and the
//! deterministic [`Transport`] seam that lets tests drive it without
//! sockets.
//!
//! One connection is a little state machine:
//!
//! ```text
//!             frame complete, admitted        response enqueued
//!   Reading ───────────────────────▶ Dispatching ─────────▶ Writing
//!      ▲                                                       │
//!      │                  response flushed                     │
//!      └───────────────────────────────────────────────────────┘
//!                                │
//!        shutdown / wire error / │ sever-after-write
//!                                ▼
//!                            Draining ──▶ Closed
//! ```
//!
//! Everything here is *nonblocking and byte-boundary honest*: reads
//! arrive in arbitrary fragments (a length prefix split across two
//! reads, a body delivered one byte at a time), writes may accept
//! fewer bytes than offered or none at all, and the machine must make
//! progress exactly when the transport does. The [`FrameDecoder`]
//! owns reassembly; [`Conn`] owns interest (does it want readability,
//! writability, neither), stall accounting, and the outgoing frame
//! queue with its fault-injection [`WriteShape`]s.
//!
//! The seam is the point: the reactor drives a `Conn<TcpStream>`, the
//! FSM test suite drives a `Conn<ScriptedTransport>` byte by byte
//! with no sockets and no sleeps, and the two are the same code.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};

use crate::wire::{WireError, MAX_FRAME, MIN_BODY};

/// The byte pipe a connection state machine runs over. Implementors
/// must behave like a nonblocking socket: `read`/`write` return
/// `Ok(0)` for EOF (reads) or a closed peer, `Ok(n)` for partial
/// progress, and `ErrorKind::WouldBlock` when no progress is possible
/// right now. [`TcpStream`] in nonblocking mode is the production
/// implementor; tests script their own.
pub trait Transport {
    /// Reads up to `buf.len()` bytes; `Ok(0)` is EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes a prefix of `buf`, returning how much was accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Severs the connection immediately (both directions,
    /// best-effort) — the `CutAfter` fault and the stall cutoff.
    fn sever(&mut self);
}

impl Transport for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }
    fn sever(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Incremental reassembly of length-prefixed `wrl-wire/v1` frames
/// from arbitrarily fragmented reads. Mirrors the blocking
/// [`crate::wire::read_frame`] exactly: a length prefix outside
/// `MIN_BODY..=MAX_FRAME` is a typed error before any oversized
/// allocation, and everything else is pure buffering — the decoder
/// never looks inside a body (CRC and opcode checks happen at
/// dispatch).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Length-prefix bytes collected so far (< 4 while incomplete).
    len: Vec<u8>,
    /// Body bytes collected so far; capacity bounded by the checked
    /// length prefix.
    body: Vec<u8>,
    /// Expected body length once the prefix is complete.
    want: usize,
}

impl FrameDecoder {
    /// A decoder at the start of a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Whether the decoder is mid-frame — some bytes of a frame have
    /// arrived but not all. This is what distinguishes a harmless
    /// idle connection from a peer stalled mid-frame (only the latter
    /// counts against the stall budget).
    pub fn mid_frame(&self) -> bool {
        !self.len.is_empty()
    }

    /// Feeds one fragment, appending any completed bodies (length
    /// prefix stripped, CRC not yet checked) to `out` in arrival
    /// order. A fragment may complete zero, one, or several frames.
    /// An out-of-range length prefix is a typed [`WireError`]; the
    /// decoder is then poisoned (framing can no longer be trusted)
    /// and the caller must drop the connection.
    pub fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), WireError> {
        while !chunk.is_empty() {
            if self.len.len() < 4 {
                let take = chunk.len().min(4 - self.len.len());
                self.len.extend_from_slice(&chunk[..take]);
                chunk = &chunk[take..];
                if self.len.len() < 4 {
                    return Ok(());
                }
                let want = u32::from_le_bytes(self.len[..].try_into().unwrap());
                if (want as usize) > MAX_FRAME {
                    return Err(WireError::TooLarge(want));
                }
                if (want as usize) < MIN_BODY {
                    return Err(WireError::Malformed("frame length out of range"));
                }
                self.want = want as usize;
                self.body = Vec::with_capacity(self.want.min(1 << 16));
            }
            let take = chunk.len().min(self.want - self.body.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() == self.want {
                out.push(std::mem::take(&mut self.body));
                self.len.clear();
                self.want = 0;
            }
        }
        Ok(())
    }
}

/// Where in its lifecycle a connection is. Tests assert on these;
/// the reactor derives poll interest from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for (or mid-way through) a request frame.
    Reading,
    /// A complete request was handed off; no reads until its
    /// response is enqueued (requests on one connection are served
    /// in order, like the thread-per-connection server before).
    Dispatching,
    /// Flushing a response; back to `Reading` when the queue drains.
    Writing,
    /// Flushing final frames, then closing — no further reads.
    Draining,
    /// Done; the reactor reaps the connection.
    Closed,
}

/// How one outgoing frame is written — the fault-injection seam's
/// write-path half. The default shape writes as fast as the
/// transport accepts.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteShape {
    /// Write at most this many bytes per writability event — the
    /// `wire.partial` fault (short writes), and a real-world model of
    /// a congested peer.
    pub max_chunk: Option<usize>,
    /// After `at` bytes of this frame are out, pause for `ticks`
    /// reactor ticks before writing more — the `wire.stall` fault
    /// (mid-frame stall).
    pub stall: Option<(usize, u32)>,
}

/// One queued outgoing frame.
struct Outgoing {
    buf: Vec<u8>,
    at: usize,
    shape: WriteShape,
    /// Stall already taken (the shape fires once).
    stalled: bool,
    /// Sever the connection right after this frame — `CutAfter`
    /// delivers a truncated buffer with this set.
    sever_after: bool,
}

/// What one readability event produced, beyond buffered frames.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEvent {
    /// Progress (possibly zero new frames); connection stays open.
    Open,
    /// Clean EOF at a frame boundary.
    Eof,
    /// Peer vanished mid-frame.
    MidFrameEof,
    /// The length prefix was out of range — framing is untrustworthy.
    BadFrame(WireError),
}

/// What a tick decided about a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum TickVerdict {
    /// Within budget.
    Ok,
    /// Stall budget exhausted mid-frame — the connection was severed.
    CutOff,
}

/// Byte-level statistics one event pass produced, for the
/// `serve.reactor.*` counters (the conn layer stays metrics-free so
/// tests need no registry).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct IoTally {
    /// Reads that left a frame incomplete (fragmented arrival).
    pub partial_reads: u64,
    /// Writes that flushed only part of the pending frame.
    pub partial_writes: u64,
}

/// The per-connection state machine. Generic over [`Transport`] so
/// the deterministic test suite drives it byte-by-byte; the reactor
/// instantiates it with a nonblocking [`TcpStream`].
pub struct Conn<T: Transport> {
    t: T,
    dec: FrameDecoder,
    state: ConnState,
    /// Complete request bodies not yet handed to dispatch.
    ready: VecDeque<Vec<u8>>,
    out: VecDeque<Outgoing>,
    /// Read-side stalls (ticks mid-frame without progress).
    read_stalls: u32,
    /// Write-side stalls (ticks with pending output and no progress).
    write_stalls: u32,
    /// Injected stall: ticks left before writing may resume.
    pause_ticks: u32,
    read_progress: bool,
    write_progress: bool,
    max_read_stalls: u32,
    max_write_stalls: u32,
}

impl<T: Transport> Conn<T> {
    /// Wraps a transport in a fresh state machine. The budgets bound
    /// how many reactor ticks a peer may stall mid-frame (reads) or
    /// sit on an undrained response (writes) before being cut off.
    pub fn new(t: T, max_read_stalls: u32, max_write_stalls: u32) -> Conn<T> {
        Conn {
            t,
            dec: FrameDecoder::new(),
            state: ConnState::Reading,
            ready: VecDeque::new(),
            out: VecDeque::new(),
            read_stalls: 0,
            write_stalls: 0,
            pause_ticks: 0,
            read_progress: false,
            write_progress: false,
            max_read_stalls,
            max_write_stalls,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Whether the reactor should poll this connection for
    /// readability: only while awaiting a request, and only until one
    /// is buffered (one request is in flight per connection at a time).
    pub fn wants_read(&self) -> bool {
        self.state == ConnState::Reading && self.ready.is_empty()
    }

    /// Whether the reactor should poll for writability: there are
    /// bytes to flush and no injected pause in force.
    pub fn wants_write(&self) -> bool {
        matches!(self.state, ConnState::Writing | ConnState::Draining)
            && !self.out.is_empty()
            && self.pause_ticks == 0
    }

    /// Handles one readability event: reads until the transport
    /// blocks, EOF, or a frame completes. Buffered request bodies are
    /// retrieved with [`Conn::take_frame`].
    pub fn on_readable(&mut self, tally: &mut IoTally) -> ReadEvent {
        if self.state != ConnState::Reading {
            return ReadEvent::Open;
        }
        let mut buf = [0u8; 4096];
        loop {
            match self.t.read(&mut buf) {
                Ok(0) => {
                    let ev = if self.dec.mid_frame() {
                        ReadEvent::MidFrameEof
                    } else if self.ready.is_empty() {
                        ReadEvent::Eof
                    } else {
                        // Frames arrived with the EOF; serve them,
                        // the next read pass reports the EOF.
                        return ReadEvent::Open;
                    };
                    self.close();
                    return ev;
                }
                Ok(n) => {
                    self.read_progress = true;
                    self.read_stalls = 0;
                    let mut done = Vec::new();
                    if let Err(e) = self.dec.feed(&buf[..n], &mut done) {
                        self.state = ConnState::Draining;
                        return ReadEvent::BadFrame(e);
                    }
                    self.ready.extend(done);
                    if !self.ready.is_empty() {
                        // Enough for now — one request at a time.
                        return ReadEvent::Open;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.dec.mid_frame() {
                        tally.partial_reads += 1;
                    }
                    return ReadEvent::Open;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close();
                    return ReadEvent::MidFrameEof;
                }
            }
        }
    }

    /// Takes the next buffered complete request body, moving the
    /// machine to `Dispatching`. Returns `None` when no full frame is
    /// buffered (or the connection is past reading).
    pub fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.state != ConnState::Reading {
            return None;
        }
        let body = self.ready.pop_front()?;
        self.state = ConnState::Dispatching;
        Some(body)
    }

    /// Enqueues one encoded response frame for writing. `sever_after`
    /// cuts the connection as soon as the (possibly truncated) buffer
    /// is out — the `CutAfter` fault. Moves `Dispatching`/`Reading`
    /// to `Writing`; a draining connection stays draining.
    pub fn enqueue(&mut self, buf: Vec<u8>, shape: WriteShape, sever_after: bool) {
        if self.state == ConnState::Closed {
            return;
        }
        self.out.push_back(Outgoing {
            buf,
            at: 0,
            shape,
            stalled: false,
            sever_after,
        });
        if self.state != ConnState::Draining {
            self.state = ConnState::Writing;
        }
    }

    /// Handles one writability event: flushes queued frames until the
    /// transport blocks, honouring each frame's [`WriteShape`].
    /// Returns the total bytes written (the `serve.bytes.out`
    /// accounting the caller owns).
    pub fn on_writable(&mut self, tally: &mut IoTally) -> u64 {
        let mut total = 0u64;
        while let Some(cur) = self.out.front_mut() {
            if self.pause_ticks > 0 {
                break;
            }
            // Fire the one-shot mid-frame stall when the write
            // position reaches its offset.
            if let Some((at, ticks)) = cur.shape.stall {
                if !cur.stalled && cur.at >= at.min(cur.buf.len()) {
                    cur.stalled = true;
                    if ticks > 0 {
                        self.pause_ticks = ticks;
                        break;
                    }
                }
            }
            if cur.at == cur.buf.len() {
                let sever = cur.sever_after;
                self.out.pop_front();
                if sever {
                    self.close();
                    return total;
                }
                continue;
            }
            let mut end = match cur.shape.max_chunk {
                Some(c) => (cur.at + c.max(1)).min(cur.buf.len()),
                None => cur.buf.len(),
            };
            if let Some((at, _)) = cur.shape.stall {
                if !cur.stalled {
                    // Never write past an unfired stall point, so the
                    // pause lands mid-frame even on a transport that
                    // would swallow the whole buffer.
                    end = end.min(at.min(cur.buf.len()).max(cur.at));
                }
            }
            match self.t.write(&cur.buf[cur.at..end]) {
                Ok(0) => {
                    // A zero-byte write is a closed peer.
                    self.close();
                    return total;
                }
                Ok(n) => {
                    cur.at += n;
                    total += n as u64;
                    self.write_progress = true;
                    self.write_stalls = 0;
                    if cur.at < cur.buf.len() {
                        tally.partial_writes += 1;
                        if cur.shape.max_chunk.is_some() {
                            // One shaped chunk per writability event:
                            // this is what makes `wire.partial` a
                            // genuine short-write storm rather than a
                            // single capped loop.
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    tally.partial_writes += 1;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close();
                    return total;
                }
            }
        }
        if self.out.is_empty() {
            match self.state {
                ConnState::Writing => {
                    self.state = ConnState::Reading;
                    self.read_stalls = 0;
                }
                ConnState::Draining => self.close(),
                _ => {}
            }
        }
        total
    }

    /// One reactor tick: advances injected pauses and charges the
    /// stall budgets. A peer stalled mid-frame (reading) or sitting
    /// on an undrained response (writing) for more ticks than its
    /// budget is severed — the bound that keeps a wedged peer from
    /// pinning reactor state forever. Idle connections *between*
    /// frames are never charged.
    pub fn on_tick(&mut self) -> TickVerdict {
        if self.pause_ticks > 0 {
            self.pause_ticks -= 1;
            self.read_progress = false;
            self.write_progress = false;
            return TickVerdict::Ok;
        }
        let mut cut = false;
        if self.state == ConnState::Reading && self.dec.mid_frame() && !self.read_progress {
            self.read_stalls += 1;
            cut |= self.read_stalls > self.max_read_stalls;
        }
        if !self.out.is_empty() && !self.write_progress {
            self.write_stalls += 1;
            cut |= self.write_stalls > self.max_write_stalls;
        }
        self.read_progress = false;
        self.write_progress = false;
        if cut {
            self.close();
            TickVerdict::CutOff
        } else {
            TickVerdict::Ok
        }
    }

    /// Begins a graceful drain: no more reads; pending output (if
    /// any) flushes, then the connection closes. Dispatching
    /// connections are left alone — their response is still owed and
    /// will drain through the normal write path.
    pub fn begin_drain(&mut self) {
        match self.state {
            ConnState::Closed | ConnState::Dispatching => {}
            _ if self.out.is_empty() => self.close(),
            _ => self.state = ConnState::Draining,
        }
    }

    /// Whether any buffered request body is ready for dispatch.
    pub fn has_frame(&self) -> bool {
        self.state == ConnState::Reading && !self.ready.is_empty()
    }

    fn close(&mut self) {
        if self.state != ConnState::Closed {
            self.t.sever();
            self.state = ConnState::Closed;
            self.out.clear();
            self.ready.clear();
        }
    }

    /// The underlying transport (the reactor needs the fd).
    pub fn transport(&self) -> &T {
        &self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_reassembles_across_any_fragmentation() {
        let frame = crate::wire::encode_request(9, &crate::wire::Request::Catalog);
        for step in 1..frame.len() {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            for chunk in frame.chunks(step) {
                dec.feed(chunk, &mut out).unwrap();
            }
            assert_eq!(out.len(), 1, "step={step}");
            assert_eq!(out[0], frame[4..].to_vec(), "step={step}");
            assert!(!dec.mid_frame());
        }
    }

    #[test]
    fn decoder_rejects_out_of_range_lengths_before_allocating() {
        let mut out = Vec::new();
        let mut dec = FrameDecoder::new();
        assert!(matches!(
            dec.feed(&u32::MAX.to_le_bytes(), &mut out),
            Err(WireError::TooLarge(_))
        ));
        let mut dec = FrameDecoder::new();
        assert!(matches!(
            dec.feed(&3u32.to_le_bytes(), &mut out),
            Err(WireError::Malformed(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_holds_the_exact_frame_bounds() {
        let prefixed = |len: usize, body: usize| {
            let mut f = (len as u32).to_le_bytes().to_vec();
            f.resize(4 + body, 0xa5);
            f
        };
        // One past either end: a typed error, and not one body byte
        // taken in or reserved, though body bytes came with the prefix.
        let refuse = |len: usize| {
            let (mut dec, mut out) = (FrameDecoder::new(), Vec::new());
            let err = dec.feed(&prefixed(len, 32), &mut out).unwrap_err();
            assert!(out.is_empty() && dec.body.capacity() == 0, "len {len}");
            err
        };
        assert!(matches!(refuse(MIN_BODY - 1), WireError::Malformed(_)));
        let n = MAX_FRAME as u32 + 1;
        assert!(matches!(refuse(n as usize), WireError::TooLarge(got) if got == n));
        // Exactly `MIN_BODY`: the smallest frame completes.
        let (mut dec, mut out) = (FrameDecoder::new(), Vec::new());
        dec.feed(&prefixed(MIN_BODY, MIN_BODY), &mut out).unwrap();
        assert_eq!(out, vec![vec![0xa5; MIN_BODY]]);
        assert!(!dec.mid_frame());
        // Exactly `MAX_FRAME`: accepted and mid-frame, with at most
        // 64 KiB reserved before any body byte arrives.
        let (mut dec, mut out) = (FrameDecoder::new(), Vec::new());
        dec.feed(&prefixed(MAX_FRAME, 0), &mut out).unwrap();
        assert!(out.is_empty() && dec.mid_frame());
        assert!(dec.body.is_empty() && dec.body.capacity() <= 1 << 16);
    }
}
