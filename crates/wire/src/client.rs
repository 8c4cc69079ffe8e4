//! The remote client: mirrors the in-process [`ClientHandle`] API over a
//! wire connection.
//!
//! One [`RemoteClientHandle`] owns one connection. Requests are
//! multiplexed by client-chosen ids: a submit or scan returns a ticket
//! immediately (the request is encoded straight into the connection's
//! outbound buffer, and written from it unless the connection is corked,
//! under one lock). There is **no reader thread**: a caller that waits on a
//! ticket reads the connection itself — it takes the read half, reads
//! reply frames and completes tickets by id until its own is complete, one
//! frame per turn, so a waiter whose reply another waiter read returns at
//! once. One wake-up (socket → the calling thread) stands where two stood
//! (socket → reader thread → caller). A reader hands the turn back with a
//! notify only when a waiter is asleep for it: at depth 1 nobody is, and
//! the hand-off costs no futex call.
//!
//! The pending table holds each outstanding request's reply itself. An
//! entry is `Waiting` from the send until its reply is read, then `Done`
//! with the reply until its ticket takes it. Dropping a ticket unwaited
//! removes a `Done` entry and marks a `Waiting` one `Abandoned`: its reply,
//! when it comes, is discarded — it is not an unknown reply — and
//! [`close`](RemoteClientHandle::close) still reads it.
//!
//! If the connection dies — reset, server shutdown,
//! [`kill`](RemoteClientHandle::kill) — whoever observes it (a waiter's
//! read, or [`is_dead`](RemoteClientHandle::is_dead)'s probe) resolves
//! every outstanding ticket with [`WireError::ConnectionLost`]: a caller
//! blocked in `wait()` always gets an answer.
//!
//! The error surface is wider than in-process: `Busy` and `Closed` arrive
//! asynchronously in the reply rather than synchronously from the submit
//! call, so tickets resolve `Result<_, WireError>` instead of the bare
//! value.
//!
//! [`ClientHandle`]: psnap_serve::ClientHandle

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use psnap_json::Json;
use psnap_serve::Freshness;

use crate::frame::{encode_frame, encode_frame_with, read_frame, read_frame_into, FrameError};
use crate::proto::{
    hello_json, parse_handshake_answer, Reply, ReplyBody, Request, RequestBody, WireErrorKind,
    PROTOCOL_VERSION,
};
use crate::stream::Stream;

/// Why a remote operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The server's ingestion queue for this connection was full — the
    /// wire form of [`SubmitError::Busy`](psnap_serve::SubmitError::Busy).
    /// Back off and retry.
    Busy,
    /// The service (or this connection's intake) is shut down.
    Closed,
    /// The request was rejected as malformed or out of range — by the
    /// server, or client-side before writing when its encoded frame
    /// exceeds the server's advertised cap (see
    /// [`max_frame`](RemoteClientHandle::max_frame)).
    BadRequest,
    /// The connection died with this request outstanding. The request may
    /// or may not have been applied server-side.
    ConnectionLost(String),
    /// The peer violated the protocol (handshake rejected, undecodable
    /// reply, version mismatch).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Busy => write!(f, "server busy"),
            WireError::Closed => write!(f, "service closed"),
            WireError::BadRequest => write!(f, "bad request"),
            WireError::ConnectionLost(why) => write!(f, "connection lost: {why}"),
            WireError::Protocol(why) => write!(f, "protocol error: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireErrorKind> for WireError {
    fn from(kind: WireErrorKind) -> WireError {
        match kind {
            WireErrorKind::Busy => WireError::Busy,
            WireErrorKind::Closed => WireError::Closed,
            WireErrorKind::BadRequest => WireError::BadRequest,
        }
    }
}

type ReplyResult = Result<ReplyBody, WireError>;

/// One outstanding request in the pending table.
enum Entry {
    /// Sent; its reply has not been read and its ticket is alive.
    Waiting,
    /// Its ticket was dropped before the reply was read; the reply is
    /// discarded when it arrives.
    Abandoned,
    /// The reply (or the connection's loss), for the ticket to take.
    Done(ReplyResult),
}

/// The connection's write side. Request frames are encoded straight into
/// `buf`; uncorked, each is written at once, while corked they accumulate
/// and go out in one write on [`RemoteClientHandle::flush`]. The buffer is
/// kept, so steady-state sends allocate nothing.
struct Outbound {
    stream: Stream,
    corked: bool,
    buf: Vec<u8>,
}

impl Outbound {
    /// Writes out the buffer (whatever happens, it is empty after).
    fn write_out(&mut self) -> io::Result<()> {
        let wrote = self.stream.write_all(&self.buf);
        self.buf.clear();
        wrote
    }
}

/// The connection's read half. Buffered: a batched flush from the server
/// costs one read syscall per buffer fill instead of two per frame.
struct ReadHalf {
    stream: BufReader<Stream>,
    payload: Vec<u8>,
}

/// The turn at the read half.
struct ReadTurn {
    /// The read half, or `None` while a waiter is inside a socket read with
    /// it.
    half: Option<ReadHalf>,
    /// Waiters asleep on `turn_over` for the half. A notify is a futex call
    /// even when nobody sleeps, so the reader that hands the half back
    /// notifies only while this is non-zero.
    sleepers: usize,
}

struct ClientInner {
    /// For severing the connection (kill / close) and probing it.
    stream: Stream,
    out: Mutex<Outbound>,
    reader: Mutex<ReadTurn>,
    /// Signalled when the read half comes back to sleeping waiters, i.e.
    /// after a frame: some entry was completed, and the turn is free.
    turn_over: Condvar,
    /// Outstanding request id → its entry. Waiters complete entries as
    /// they read; a dead connection completes them all with
    /// `ConnectionLost`.
    pending: Mutex<HashMap<u64, Entry>>,
    next_id: AtomicU64,
    dead: AtomicBool,
    /// Replies whose id matched no outstanding request — a duplicated or
    /// misattributed response. Stays 0 on a correct server.
    unknown_replies: AtomicU64,
    components: usize,
    max_frame: usize,
}

impl ClientInner {
    /// Resolves every outstanding ticket with `ConnectionLost` and marks
    /// the connection dead. Idempotent; called by whoever observes the
    /// connection's end, so no caller is left hanging.
    fn fail_all_pending(&self, why: &str) {
        self.dead.store(true, Ordering::Release);
        self.lock_pending().retain(|_, entry| match entry {
            Entry::Waiting => {
                *entry = Entry::Done(Err(WireError::ConnectionLost(why.to_string())));
                true
            }
            Entry::Abandoned => false,
            Entry::Done(_) => true,
        });
    }

    fn lock_out(&self) -> MutexGuard<'_, Outbound> {
        self.out.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_reader(&self) -> MutexGuard<'_, ReadTurn> {
        self.reader.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, HashMap<u64, Entry>> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes request `id`'s reply if it has arrived.
    fn take_reply(&self, id: u64) -> Option<ReplyResult> {
        let mut pending = self.lock_pending();
        if let Some(Entry::Done(_)) = pending.get(&id) {
            if let Some(Entry::Done(reply)) = pending.remove(&id) {
                return Some(reply);
            }
        }
        None
    }

    /// One turn at the read half: reads one reply frame and completes its
    /// entry; a connection that has ended fails every pending entry instead.
    /// `deadline` bounds the wait for the frame's first byte only — a frame
    /// that has started arriving is read whole — and past it nothing is
    /// read.
    fn read_reply(&self, half: &mut ReadHalf, deadline: Option<Instant>) {
        if let Some(deadline) = deadline.filter(|_| half.stream.buffer().is_empty()) {
            // `SO_RCVTIMEO` is per socket, but only the holder of the read
            // half reads, and the timeout is cleared before the half goes
            // back. (A zero timeout is rejected, i.e. would wait forever.)
            let left = deadline.saturating_duration_since(Instant::now());
            let socket = half.stream.get_ref();
            socket.set_read_timeout(Some(left.max(Duration::from_micros(1))));
            let first = half.stream.fill_buf().map(|_| ());
            half.stream.get_ref().set_read_timeout(None);
            // Any other outcome (bytes, EOF, a dead socket) is the frame
            // read's to report.
            if first.is_err_and(|e| {
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            }) {
                return;
            }
        }
        match read_frame_into(&mut half.stream, self.max_frame, &mut half.payload) {
            Ok(()) => {}
            Err(FrameError::Eof) => return self.fail_all_pending("server closed the connection"),
            Err(e) => return self.fail_all_pending(&format!("read: {e}")),
        }
        // Fast path first (the canonical shape), general JSON route for
        // everything else (stats replies in particular).
        let reply = std::str::from_utf8(&half.payload).ok().and_then(|text| {
            Reply::parse_wire(text).or_else(|| {
                Json::parse(text)
                    .ok()
                    .and_then(|json| Reply::from_json(&json))
            })
        });
        let Some(reply) = reply else {
            self.fail_all_pending("undecodable reply frame");
            self.stream.shutdown(Shutdown::Both);
            return;
        };
        let mut pending = self.lock_pending();
        match pending.get_mut(&reply.id) {
            Some(entry @ Entry::Waiting) => {
                *entry = Entry::Done(reply.result.map_err(WireError::from));
            }
            Some(Entry::Abandoned) => {
                pending.remove(&reply.id);
            }
            // An unknown id, or a second reply to an answered request, is a
            // duplicated or misattributed response (the server's id-0
            // bad_request for an unattributable frame also lands here);
            // count it so chaos harnesses can assert zero.
            Some(Entry::Done(_)) | None => {
                self.unknown_replies.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Takes turns at the read half until `done()` returns a value or
    /// `deadline` passes. A turn is one frame, after which every waiter
    /// re-checks its own entry: a waiter whose reply was read by another
    /// returns without waiting for that waiter's own reply.
    fn drive<V>(
        &self,
        deadline: Option<Instant>,
        mut done: impl FnMut() -> Option<V>,
    ) -> Option<V> {
        let mut turn = self.lock_reader();
        loop {
            if let Some(value) = done() {
                return Some(value);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return None;
            }
            match turn.half.take() {
                Some(mut half) => {
                    drop(turn);
                    self.read_reply(&mut half, deadline);
                    turn = self.lock_reader();
                    turn.half = Some(half);
                    if turn.sleepers > 0 {
                        self.turn_over.notify_all();
                    }
                }
                None => {
                    // Counted under the lock the wait releases, so the
                    // reader that hands the half back sees this sleeper.
                    turn.sleepers += 1;
                    turn = match deadline {
                        None => (self.turn_over.wait(turn)).unwrap_or_else(|e| e.into_inner()),
                        Some(deadline) => {
                            let left = deadline.saturating_duration_since(Instant::now());
                            (self.turn_over.wait_timeout(turn, left))
                                .unwrap_or_else(|e| e.into_inner())
                                .0
                        }
                    };
                    turn.sleepers -= 1;
                }
            }
        }
    }
}

/// A connected remote client. Cloneable handles are not provided — a
/// connection is one multiplexed stream; open more connections for more
/// parallelism (each gets its own server-side share of the ingest queue).
pub struct RemoteClientHandle {
    inner: Arc<ClientInner>,
}

impl RemoteClientHandle {
    /// Connects over TCP and performs the handshake.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<RemoteClientHandle, WireError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| WireError::ConnectionLost(format!("connect: {e}")))?;
        let _ = stream.set_nodelay(true);
        Self::establish(Stream::tcp(stream))
    }

    /// Connects over a unix-domain socket and performs the handshake.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<RemoteClientHandle, WireError> {
        let stream = UnixStream::connect(path)
            .map_err(|e| WireError::ConnectionLost(format!("connect: {e}")))?;
        Self::establish(Stream::unix(stream))
    }

    fn establish(stream: Stream) -> Result<RemoteClientHandle, WireError> {
        let reader = stream
            .try_clone()
            .map_err(|e| WireError::ConnectionLost(format!("clone: {e}")))?;
        let mut reader = BufReader::with_capacity(64 * 1024, reader);
        let writer = stream
            .try_clone()
            .map_err(|e| WireError::ConnectionLost(format!("clone: {e}")))?;
        // Handshake, synchronously on the caller's thread: hello out,
        // welcome (or reject) back.
        {
            let hello = hello_json(PROTOCOL_VERSION).to_string_compact();
            let frame = encode_frame(hello.as_bytes());
            let mut w = stream
                .try_clone()
                .map_err(|e| WireError::ConnectionLost(format!("clone: {e}")))?;
            w.write_all(&frame)
                .map_err(|e| WireError::ConnectionLost(format!("handshake write: {e}")))?;
        }
        let answer = read_frame(&mut reader, crate::frame::MAX_FRAME_LEN)
            .map_err(|e| WireError::ConnectionLost(format!("handshake read: {e}")))?;
        let answer = std::str::from_utf8(&answer)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|json| parse_handshake_answer(&json))
            .ok_or_else(|| WireError::Protocol("undecodable handshake answer".to_string()))?;
        let (components, max_frame) = match answer {
            Ok(welcome) => welcome,
            Err(reason) => return Err(WireError::Protocol(reason)),
        };
        let inner = Arc::new(ClientInner {
            stream,
            out: Mutex::new(Outbound {
                stream: writer,
                corked: false,
                buf: Vec::new(),
            }),
            reader: Mutex::new(ReadTurn {
                half: Some(ReadHalf {
                    stream: reader,
                    payload: Vec::new(),
                }),
                sleepers: 0,
            }),
            turn_over: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            unknown_replies: AtomicU64::new(0),
            components,
            max_frame,
        });
        Ok(RemoteClientHandle { inner })
    }

    /// Component space `m` advertised by the server in its welcome.
    pub fn components(&self) -> usize {
        self.inner.components
    }

    /// Frame payload cap advertised by the server. Requests whose encoded
    /// frame would exceed it fail with [`WireError::BadRequest`] before
    /// anything is written — one oversized submit must not tear down the
    /// connection under every other in-flight request.
    pub fn max_frame(&self) -> usize {
        self.inner.max_frame
    }

    /// True once the connection has died (any outstanding and future
    /// requests resolve `ConnectionLost`). Prompt even with nobody waiting:
    /// if no waiter is inside a read, this probes the socket for its end
    /// without blocking (a waiter that is would observe it itself).
    pub fn is_dead(&self) -> bool {
        let turn = self.inner.lock_reader();
        if let Some(half) = turn.half.as_ref() {
            // Replies already buffered are still deliverable.
            if half.stream.buffer().is_empty() && half.stream.get_ref().peer_closed() {
                self.inner.fail_all_pending("server closed the connection");
            }
        }
        drop(turn);
        self.inner.dead.load(Ordering::Acquire)
    }

    /// Replies received whose id matched no outstanding request — each one
    /// is a duplicated or misattributed response from the server. Stays 0
    /// against a correct server; chaos harnesses assert on it.
    pub fn unknown_replies(&self) -> u64 {
        self.inner.unknown_replies.load(Ordering::Acquire)
    }

    fn send(&self, body: RequestBody) -> Result<Pending, WireError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let request = Request { id, body };
        let mut out = self.inner.lock_out();
        // The frame is encoded in place: after whatever a cork holds, or
        // into the empty buffer it is written from.
        let start = out.buf.len();
        let len = encode_frame_with(&mut out.buf, |buf| request.write_wire(buf));
        // Enforce the server's advertised frame cap before anything is
        // written or enqueued: server-side, an oversized frame is a
        // connection-fatal framing error that would fail every other
        // in-flight ticket with ConnectionLost. Refusing it here fails
        // just the offending request.
        if len > self.inner.max_frame {
            out.buf.truncate(start);
            return Err(WireError::BadRequest);
        }
        {
            // The dead check and the insert share one pending-lock critical
            // section. `fail_all_pending` marks the connection dead before
            // draining under this same lock, so either this entry lands
            // before the drain (and the drain resolves it) or the drain ran
            // first and the dead flag is visible here. Checking dead before
            // inserting (the old shape) left a window where the entry landed
            // after the drain and, if the write below still succeeded
            // against a half-closed socket, its ticket never resolved.
            let mut pending = self.inner.lock_pending();
            if self.inner.dead.load(Ordering::Acquire) {
                drop(pending);
                out.buf.truncate(start);
                return Err(WireError::ConnectionLost("connection is dead".to_string()));
            }
            pending.insert(id, Entry::Waiting);
        }
        // Corked, the frame waits for the next `flush` (and so does any
        // write error). Otherwise it is one buffered frame, one write: the
        // server's reader wakes once with the whole frame instead of once
        // for the header and once for the payload.
        if !out.corked {
            if let Err(e) = out.write_out() {
                drop(out);
                self.inner.lock_pending().remove(&id);
                return Err(WireError::ConnectionLost(format!("write: {e}")));
            }
        }
        Ok(Pending {
            inner: Arc::clone(&self.inner),
            id,
            spent: false,
        })
    }

    /// Corks (or uncorks) the connection's writes. While corked, requests
    /// accumulate client-side and go out in one write on
    /// [`flush`](RemoteClientHandle::flush) — a pipelining client amortizes
    /// its syscalls (and the server reader's wake-ups) across the batch.
    /// Uncorking flushes. A corked client that never flushes sends nothing:
    /// the cork is for callers driving an explicit issue-then-flush loop.
    pub fn set_corked(&self, corked: bool) -> Result<(), WireError> {
        self.inner.lock_out().corked = corked;
        if corked {
            Ok(())
        } else {
            self.flush()
        }
    }

    /// Writes out every corked request frame. A write failure here kills
    /// the connection: all outstanding tickets (buffered or on the wire)
    /// resolve `ConnectionLost`.
    pub fn flush(&self) -> Result<(), WireError> {
        let mut out = self.inner.lock_out();
        if out.buf.is_empty() {
            return Ok(());
        }
        let wrote = out.write_out();
        drop(out);
        if let Err(e) = wrote {
            let why = format!("flush write: {e}");
            self.inner.fail_all_pending(&why);
            return Err(WireError::ConnectionLost(why));
        }
        Ok(())
    }

    /// Submits one write. The ticket resolves once the write is applied
    /// server-side (or with the wire error the server answered).
    pub fn submit(&self, component: usize, value: u64) -> Result<RemoteSubmitTicket, WireError> {
        self.submit_batch(vec![(component, value)])
    }

    /// Submits a batch of writes, applied as one atomic `update_many`.
    pub fn submit_batch(&self, writes: Vec<(usize, u64)>) -> Result<RemoteSubmitTicket, WireError> {
        let pending = self.send(RequestBody::Submit { writes })?;
        Ok(RemoteSubmitTicket { pending })
    }

    /// Requests a partial scan; the ticket resolves with one value per
    /// requested component, in request order.
    pub fn scan(
        &self,
        components: Vec<usize>,
        freshness: Freshness,
    ) -> Result<RemoteScanTicket, WireError> {
        let pending = self.send(RequestBody::Scan {
            components,
            freshness,
        })?;
        Ok(RemoteScanTicket { pending })
    }

    /// Blocking submit: send and wait for the applied acknowledgement.
    pub fn submit_blocking(&self, component: usize, value: u64) -> Result<(), WireError> {
        self.submit(component, value)?.wait()
    }

    /// Blocking scan.
    pub fn scan_blocking(
        &self,
        components: Vec<usize>,
        freshness: Freshness,
    ) -> Result<Vec<u64>, WireError> {
        self.scan(components, freshness)?.wait()
    }

    /// Fetches the server's observability snapshot (blocking).
    pub fn stats(&self) -> Result<Json, WireError> {
        match self.send(RequestBody::Stats)?.wait() {
            Ok(ReplyBody::Stats(json)) => Ok(json),
            Ok(_) => Err(WireError::Protocol(
                "stats reply carried no stats".to_string(),
            )),
            Err(e) => Err(e),
        }
    }

    /// Graceful close: half-close the sending direction so the server
    /// drains in-flight requests and flushes their replies, then read them
    /// until every ticket has resolved (or the server's EOF resolves the
    /// rest).
    pub fn close(self) {
        // Corked requests still buffered client-side go out first; their
        // tickets are outstanding and the drain below waits on them.
        let _ = self.flush();
        self.inner.stream.shutdown(Shutdown::Write);
        // Bounded, so a wedged server cannot hang the caller forever.
        let deadline = Instant::now() + Duration::from_secs(30);
        let inner = &self.inner;
        inner.drive(Some(deadline), || {
            let pending = inner.lock_pending();
            let unanswered = pending
                .values()
                .any(|entry| matches!(entry, Entry::Waiting | Entry::Abandoned));
            (!unanswered).then_some(())
        });
        self.inner.stream.shutdown(Shutdown::Both);
    }

    /// Abrupt close (chaos testing): sever both directions immediately.
    /// Outstanding tickets resolve `ConnectionLost` — now for a waiter
    /// inside a read, otherwise as soon as anyone waits or asks
    /// [`is_dead`](RemoteClientHandle::is_dead); requests the server
    /// already accepted still apply and resolve server-side.
    pub fn kill(&self) {
        self.inner.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        self.stream.shutdown(Shutdown::Both);
    }
}

/// An issued request: its id in the pending table, and the connection to
/// read its reply from.
struct Pending {
    inner: Arc<ClientInner>,
    id: u64,
    /// Set once a wait has taken the reply (and its entry) out: a later
    /// wait must not sit reading for a reply that already came.
    spent: bool,
}

impl Drop for Pending {
    /// An unwaited ticket leaves nothing behind: a reply already read goes
    /// now, one still to come is discarded when it arrives.
    fn drop(&mut self) {
        if self.spent {
            return;
        }
        let mut pending = self.inner.lock_pending();
        match pending.get_mut(&self.id) {
            Some(entry @ Entry::Waiting) => *entry = Entry::Abandoned,
            Some(Entry::Done(_)) => {
                pending.remove(&self.id);
            }
            Some(Entry::Abandoned) | None => {}
        }
    }
}

impl Pending {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<ReplyResult> {
        if self.spent {
            return Some(Err(WireError::Protocol(
                "this ticket's reply was already taken".to_string(),
            )));
        }
        let reply = self
            .inner
            .drive(deadline, || self.inner.take_reply(self.id));
        self.spent = reply.is_some();
        reply
    }

    fn wait(mut self) -> ReplyResult {
        self.wait_until(None)
            .expect("a wait without a deadline ends only with the reply")
    }

    fn wait_timeout(&mut self, timeout: Duration) -> Option<ReplyResult> {
        self.wait_until(Some(Instant::now() + timeout))
    }
}

/// Ticket for a remote submit; resolves `Ok(())` once applied server-side.
pub struct RemoteSubmitTicket {
    pending: Pending,
}

impl RemoteSubmitTicket {
    /// Blocks until the reply arrives (or the connection dies), reading
    /// the connection on the calling thread.
    pub fn wait(self) -> Result<(), WireError> {
        map_submit(self.pending.wait())
    }

    /// Like [`wait`](RemoteSubmitTicket::wait), but gives up — `None`, the
    /// ticket still good for another wait — if no reply has started to
    /// arrive within `timeout`.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<(), WireError>> {
        self.pending.wait_timeout(timeout).map(map_submit)
    }
}

fn map_submit(reply: ReplyResult) -> Result<(), WireError> {
    match reply {
        Ok(ReplyBody::Submitted) => Ok(()),
        Ok(_) => Err(WireError::Protocol(
            "submit reply carried unexpected body".to_string(),
        )),
        Err(e) => Err(e),
    }
}

/// Ticket for a remote scan; resolves with the scanned values.
pub struct RemoteScanTicket {
    pending: Pending,
}

impl RemoteScanTicket {
    /// Blocks until the reply arrives (or the connection dies), reading
    /// the connection on the calling thread.
    pub fn wait(self) -> Result<Vec<u64>, WireError> {
        map_scan(self.pending.wait())
    }

    /// Like [`wait`](RemoteScanTicket::wait), but gives up — `None`, the
    /// ticket still good for another wait — if no reply has started to
    /// arrive within `timeout`.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Vec<u64>, WireError>> {
        self.pending.wait_timeout(timeout).map(map_scan)
    }
}

fn map_scan(reply: ReplyResult) -> Result<Vec<u64>, WireError> {
    match reply {
        Ok(ReplyBody::Values(values)) => Ok(values),
        Ok(_) => Err(WireError::Protocol(
            "scan reply carried unexpected body".to_string(),
        )),
        Err(e) => Err(e),
    }
}
