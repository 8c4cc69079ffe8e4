//! The remote client: mirrors the in-process [`ClientHandle`] API over a
//! wire connection.
//!
//! One [`RemoteClientHandle`] owns one connection. Requests are
//! multiplexed by client-chosen ids: a submit or scan returns a ticket
//! immediately (the frame is written under a writer lock). There is **no
//! reader thread**: a caller that waits on a ticket reads the connection
//! itself — it takes the read half, reads reply frames and completes
//! tickets by id until its own is complete, one frame per turn, so a
//! waiter whose reply another waiter read returns at once. One wake-up
//! (socket → the calling thread) stands where two stood (socket → reader
//! thread → caller).
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
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use psnap_json::Json;
use psnap_serve::Freshness;

use crate::frame::{encode_frame, encode_frame_into, read_frame, read_frame_into, FrameError};
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

/// Where one request's reply lands; filled by whichever waiter reads it.
#[derive(Default)]
struct ReplySlot(Mutex<Option<ReplyResult>>);

impl ReplySlot {
    fn complete(&self, result: ReplyResult) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    }

    fn take(&self) -> Option<ReplyResult> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// The client's outbound buffer for corked mode: while corked, request
/// frames accumulate here and go out in one write on
/// [`RemoteClientHandle::flush`].
struct OutBuf {
    corked: bool,
    buf: Vec<u8>,
}

/// The connection's read half. Buffered: a batched flush from the server
/// costs one read syscall per buffer fill instead of two per frame.
struct ReadHalf {
    stream: BufReader<Stream>,
    payload: Vec<u8>,
}

struct ClientInner {
    /// For severing the connection (kill / close) and probing it.
    stream: Stream,
    writer: Mutex<Stream>,
    out: Mutex<OutBuf>,
    /// The read half, or `None` while a waiter is inside a socket read with
    /// it. Waiters without it sleep on `turn_over`.
    reader: Mutex<Option<ReadHalf>>,
    /// Signalled each time the read half comes back, i.e. after every
    /// frame: some slot was completed, and the turn is free.
    turn_over: Condvar,
    /// Outstanding request id → its reply slot. Waiters resolve entries as
    /// they read; a dead connection resolves them all with `ConnectionLost`.
    pending: Mutex<HashMap<u64, Arc<ReplySlot>>>,
    next_id: AtomicU64,
    dead: AtomicBool,
    /// Replies whose id matched no pending request — a duplicated or
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
        let drained: Vec<Arc<ReplySlot>> = {
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.drain().map(|(_, slot)| slot).collect()
        };
        for slot in drained {
            slot.complete(Err(WireError::ConnectionLost(why.to_string())));
        }
    }

    fn lock_reader(&self) -> MutexGuard<'_, Option<ReadHalf>> {
        self.reader.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One turn at the read half: reads one reply frame and completes its
    /// slot; a connection that has ended fails every pending slot instead.
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
        let slot = self
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&reply.id);
        match slot {
            Some(slot) => slot.complete(reply.result.map_err(WireError::from)),
            // An unknown id is a duplicated or misattributed response (the
            // server's id-0 bad_request for an unattributable frame also
            // lands here); count it so chaos harnesses can assert zero.
            None => {
                self.unknown_replies.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Takes turns at the read half until `done()` returns a value or
    /// `deadline` passes. A turn is one frame, after which every waiter
    /// re-checks its own slot: a waiter whose reply was read by another
    /// returns without waiting for that waiter's own reply.
    fn drive<V>(
        &self,
        deadline: Option<Instant>,
        mut done: impl FnMut() -> Option<V>,
    ) -> Option<V> {
        let mut reader = self.lock_reader();
        loop {
            if let Some(value) = done() {
                return Some(value);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return None;
            }
            match reader.take() {
                Some(mut half) => {
                    drop(reader);
                    self.read_reply(&mut half, deadline);
                    reader = self.lock_reader();
                    *reader = Some(half);
                    self.turn_over.notify_all();
                }
                None => {
                    reader = match deadline {
                        None => (self.turn_over.wait(reader)).unwrap_or_else(|e| e.into_inner()),
                        Some(deadline) => {
                            let left = deadline.saturating_duration_since(Instant::now());
                            (self.turn_over.wait_timeout(reader, left))
                                .unwrap_or_else(|e| e.into_inner())
                                .0
                        }
                    };
                }
            }
        }
    }
}

/// A connected remote client. Cloneable handles are not provided — a
/// connection is one multiplexed stream; open more connections for more
/// parallelism (they get independent server-side ingestion queues).
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
            writer: Mutex::new(writer),
            out: Mutex::new(OutBuf {
                corked: false,
                buf: Vec::new(),
            }),
            reader: Mutex::new(Some(ReadHalf {
                stream: reader,
                payload: Vec::new(),
            })),
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
        let reader = self.inner.lock_reader();
        if let Some(half) = reader.as_ref() {
            // Replies already buffered are still deliverable.
            if half.stream.buffer().is_empty() && half.stream.get_ref().peer_closed() {
                self.inner.fail_all_pending("server closed the connection");
            }
        }
        drop(reader);
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
        let text = Request { id, body }.to_wire_string();
        // Enforce the server's advertised frame cap before anything is
        // written or enqueued: server-side, an oversized frame is a
        // connection-fatal framing error that would fail every other
        // in-flight ticket with ConnectionLost. Refusing it here fails
        // just the offending request.
        if text.len() > self.inner.max_frame {
            return Err(WireError::BadRequest);
        }
        let slot = Arc::<ReplySlot>::default();
        {
            // The dead check and the insert share one pending-lock critical
            // section. `fail_all_pending` marks the connection dead before
            // draining under this same lock, so either this slot lands
            // before the drain (and the drain resolves it) or the drain ran
            // first and the dead flag is visible here. Checking dead before
            // inserting (the old shape) left a window where the slot landed
            // after the drain and, if the write below still succeeded
            // against a half-closed socket, its ticket never resolved.
            let mut pending = self.inner.pending.lock().unwrap_or_else(|e| e.into_inner());
            if self.inner.dead.load(Ordering::Acquire) {
                return Err(WireError::ConnectionLost("connection is dead".to_string()));
            }
            pending.insert(id, Arc::clone(&slot));
        }
        let pending = Pending {
            inner: Arc::clone(&self.inner),
            slot,
            spent: false,
        };
        // One buffered frame, one write: the server's reader wakes once
        // with the whole frame instead of once for the header and once for
        // the payload.
        {
            let mut out = self.inner.out.lock().unwrap_or_else(|e| e.into_inner());
            if out.corked {
                // Corked: accumulate straight into the batch buffer; the
                // bytes (and any write error) go out on the next `flush`.
                encode_frame_into(text.as_bytes(), &mut out.buf);
                return Ok(pending);
            }
        }
        let frame = encode_frame(text.as_bytes());
        let wrote = {
            let mut w = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.write_all(&frame)
        };
        if let Err(e) = wrote {
            self.inner
                .pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            return Err(WireError::ConnectionLost(format!("write: {e}")));
        }
        Ok(pending)
    }

    /// Corks (or uncorks) the connection's writes. While corked, requests
    /// accumulate client-side and go out in one write on
    /// [`flush`](RemoteClientHandle::flush) — a pipelining client amortizes
    /// its syscalls (and the server reader's wake-ups) across the batch.
    /// Uncorking flushes. A corked client that never flushes sends nothing:
    /// the cork is for callers driving an explicit issue-then-flush loop.
    pub fn set_corked(&self, corked: bool) -> Result<(), WireError> {
        {
            let mut out = self.inner.out.lock().unwrap_or_else(|e| e.into_inner());
            out.corked = corked;
        }
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
        let bytes = {
            let mut out = self.inner.out.lock().unwrap_or_else(|e| e.into_inner());
            if out.buf.is_empty() {
                return Ok(());
            }
            std::mem::take(&mut out.buf)
        };
        let wrote = {
            let mut w = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.write_all(&bytes)
        };
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
            let pending = inner.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.is_empty().then_some(())
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

/// An issued request: its reply slot, and the connection to read it from.
struct Pending {
    inner: Arc<ClientInner>,
    slot: Arc<ReplySlot>,
    /// Set once `wait_timeout` has handed the reply out: a later wait must
    /// not sit reading for a reply that already came.
    spent: bool,
}

impl Pending {
    fn wait_until(&mut self, deadline: Option<Instant>) -> Option<ReplyResult> {
        if self.spent {
            return Some(Err(WireError::Protocol(
                "this ticket's reply was already taken".to_string(),
            )));
        }
        let reply = self.inner.drive(deadline, || self.slot.take());
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
