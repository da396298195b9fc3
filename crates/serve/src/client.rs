//! The trace-service client: one connection, synchronous calls,
//! typed errors.
//!
//! Every failure mode a network hop adds — damaged frames, truncated
//! responses, severed connections, overload — maps to a typed
//! [`ServeError`], never a silently wrong result: response frames
//! carry the same CRC framing as requests, a fetched block is
//! decompressed and CRC-checked client-side against its index entry,
//! and a response's request id must echo the request's. `Busy` is its
//! own variant so callers can implement retry policy (the stress test
//! and `serve_bench` retry; `tracedump` reports it).

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use wrl_store::{Predicate, QueryResult};

use crate::wire::{
    self, read_frame, CatalogEntry, FrameRead, RawBlock, Request, Response, WireError,
};

/// Client-side socket parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClientCfg {
    /// Read-timeout tick while waiting for a response.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Read-timeout ticks tolerated per call — both while waiting for
    /// the response to start and mid-frame — before the call fails
    /// with [`ServeError::TimedOut`] (total wait ≈ `max_stalls ×
    /// read_timeout`).
    pub max_stalls: u32,
}

impl Default for ClientCfg {
    fn default() -> ClientCfg {
        ClientCfg {
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            max_stalls: 200,
        }
    }
}

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (includes truncated responses, which
    /// surface as `UnexpectedEof`).
    Io(io::Error),
    /// The response frame was damaged (CRC, framing, opcode).
    Wire(WireError),
    /// The server's admission gate refused the request; retry later.
    Busy,
    /// The server answered with a typed error.
    Remote {
        /// One of the [`wire::err`] codes.
        code: u16,
        /// The server's diagnosis.
        msg: String,
    },
    /// The response decoded but does not answer the request (wrong
    /// id or wrong kind).
    BadReply(&'static str),
    /// No response within the configured stall budget.
    TimedOut,
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::TimedOut {
            ServeError::TimedOut
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Busy => write!(f, "server busy (admission gate full)"),
            ServeError::Remote { code, msg } => write!(f, "server error {code}: {msg}"),
            ServeError::BadReply(what) => write!(f, "bad reply: {what}"),
            ServeError::TimedOut => write!(f, "timed out waiting for response"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A connected trace-service client.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_stalls: u32,
}

impl Client {
    /// Connects with default socket parameters.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_cfg(addr, ClientCfg::default())
    }

    /// Connects with explicit socket parameters.
    pub fn connect_cfg(addr: impl ToSocketAddrs, cfg: ClientCfg) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 1,
            max_stalls: cfg.max_stalls,
        })
    }

    /// Sends one request and reads its response. The exposed typed
    /// calls below are thin wrappers; this is also the raw entry the
    /// chaos campaign uses.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&wire::encode_request(id, req))?;
        let mut idles = 0u32;
        let body = loop {
            match read_frame(&mut self.stream, self.max_stalls)? {
                FrameRead::Frame(b) => break b,
                FrameRead::Eof => return Err(ServeError::Io(io::ErrorKind::UnexpectedEof.into())),
                FrameRead::Idle => {
                    idles += 1;
                    if idles > self.max_stalls {
                        return Err(ServeError::TimedOut);
                    }
                }
            }
        };
        let (rid, resp) = wire::decode_response(&body)?;
        if rid != id {
            return Err(ServeError::BadReply("response answers a different request"));
        }
        match resp {
            Response::Busy => Err(ServeError::Busy),
            Response::Error { code, msg } => Err(ServeError::Remote { code, msg }),
            other => Ok(other),
        }
    }

    /// Lists the server's archives.
    pub fn catalog(&mut self) -> Result<Vec<CatalogEntry>, ServeError> {
        match self.call(&Request::Catalog)? {
            Response::Catalog(rows) => Ok(rows),
            _ => Err(ServeError::BadReply("catalog answered with wrong kind")),
        }
    }

    /// Fetches `n_blocks` raw blocks of `archive` starting at
    /// `first_block`. Use [`RawBlock::decode`] to decompress and
    /// CRC-verify each.
    pub fn fetch(
        &mut self,
        archive: &str,
        first_block: u32,
        n_blocks: u32,
    ) -> Result<Vec<RawBlock>, ServeError> {
        let req = Request::Fetch {
            archive: archive.to_string(),
            first_block,
            n_blocks,
        };
        match self.call(&req)? {
            Response::Fetch(blocks) => Ok(blocks),
            _ => Err(ServeError::BadReply("fetch answered with wrong kind")),
        }
    }

    /// Runs a windowed, filtered query server-side; only matching
    /// words come back.
    pub fn query(&mut self, archive: &str, pred: &Predicate) -> Result<QueryResult, ServeError> {
        let req = Request::Query {
            archive: archive.to_string(),
            pred: *pred,
        };
        match self.call(&req)? {
            Response::Query(q) => Ok(q),
            _ => Err(ServeError::BadReply("query answered with wrong kind")),
        }
    }

    /// Like [`Client::query`], retrying `Busy` answers up to
    /// `retries` times with a short backoff — the polite client the
    /// admission gate expects.
    pub fn query_retry(
        &mut self,
        archive: &str,
        pred: &Predicate,
        retries: u32,
    ) -> Result<QueryResult, ServeError> {
        let mut busy = 0u32;
        loop {
            match self.query(archive, pred) {
                Err(ServeError::Busy) if busy < retries => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(1 << busy.min(5)));
                }
                other => return other,
            }
        }
    }

    /// Fetches the server's `wrl-obs-metrics/v1` JSON snapshot.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(json) => Ok(json),
            _ => Err(ServeError::BadReply("metrics answered with wrong kind")),
        }
    }
}
