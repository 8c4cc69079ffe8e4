//! The wire server: hosts a [`SnapshotService`] over TCP or unix-domain
//! sockets.
//!
//! # Architecture
//!
//! One **acceptor thread** per endpoint blocks in `accept` on the listener
//! it owns and hands each accepted socket to a connection;
//! [`WireServer::shutdown`] wakes it with one connection of its own. Each
//! **connection** owns
//!
//! * its own [`ClientHandle`] — a bounded share of the service's one
//!   ingest queue, so one slow or hostile connection exhausts *its* share
//!   and sees `busy` replies while other connections keep their own room
//!   (the in-process backpressure contract, verbatim, over the wire);
//! * one **connection thread** that reads the socket, decodes frames,
//!   roots a [`SpanKind::WireRequest`] span at decode time (the in-process
//!   request tree assembles beneath it), and dispatches requests. While
//!   the backing object is **wait-free** it also answers them: every time
//!   it is about to block in a socket read with requests in flight, it
//!   tries their tickets in order — [`Ticket::try_take`] runs the
//!   pipeline's round on the calling thread when the role is free, so this
//!   thread combines — serializes the replies that are now complete and
//!   sends them with one non-blocking send. A round trip then wakes this
//!   thread and nobody else. Wait-freedom is the licence: a round finishes
//!   in a bounded number of the combiner's own steps, so the thread that
//!   must get back to reading cannot be held by a lock holder or a gated
//!   scan. **The connection thread never waits in a write**: a client may
//!   flush a corked batch larger than both socket buffers before it reads a
//!   single reply, and a server that stopped reading to write would
//!   deadlock against it;
//! * a **reply pump** on its own writer thread, started by the first
//!   entry it is handed: the bytes a non-blocking send did not take, the
//!   replies still pending when the connection thread went back to
//!   reading (another thread holds the role, a coalescing window is open)
//!   and — while the backing object is *not* wait-free (the property is
//!   read per request) — every ticket-backed reply: the connection thread
//!   only dispatches, and the pump waits on the tickets, which makes it
//!   the combiner. It drains its FIFO in order; consecutive completed
//!   replies are serialized into one buffer and flushed with a single
//!   write. Flushes block the pump's own thread only — a peer that stops
//!   reading its replies wedges *its* connection (bounded by the
//!   configured write timeout, which severs it), never an executor worker
//!   and never the thread that reads, so other connections keep running;
//! * an optional **idle watchdog**, a job on the executor's deadline heap
//!   that severs connections with no activity — no inbound frame, no
//!   outbound flush, nothing in flight — for the configured timeout.
//!   A quiet peer waiting on a slow in-flight request is active, not
//!   idle, and is never severed mid-request.
//!
//! Both threads run under the executor's chaos configuration, if it has
//! one ([`Handle::enter_chaos`]): they are where the pipelines run.
//!
//! # Lifecycle
//!
//! Handshake first (`hello`/`welcome`, protocol version checked), then
//! requests. A peer that half-closes its sending direction stops intake;
//! in-flight tickets resolve, their replies flush, and only then does the
//! server close its side. [`WireServer::shutdown`] performs the same drain
//! across every connection — stop the acceptor, refuse new work with
//! `closed`, wait for in-flight tickets, flush, then close the listener.
//! A connection that dies mid-request hands its accepted requests to its
//! reply pump, which waits on them — they are applied and their tickets
//! resolve server-side, so the service's `accepted == resolved` accounting
//! holds no matter how rudely a peer disconnects.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

use psnap_core::PartialSnapshot;
use psnap_json::Json;
use psnap_obs::{span, Span, SpanKind};
use psnap_serve::{ClientHandle, Executor, Handle, OpCell, SnapshotService, SubmitError, Ticket};

use crate::frame::{
    buffered_frame, encode_frame, encode_frame_with, read_frame, read_frame_into, FrameError,
    HEADER_LEN, MAX_FRAME_LEN,
};
use crate::proto::{
    parse_hello, reject_json, welcome_json, Reply, ReplyBody, Request, RequestBody, WireErrorKind,
    PROTOCOL_VERSION,
};
use crate::stream::Stream;

/// Wire server tuning knobs.
#[derive(Clone, Debug)]
pub struct WireServerConfig {
    /// Per-frame payload cap, advertised in the welcome frame.
    pub max_frame_len: usize,
    /// Sever connections with no activity (inbound frame, outbound reply
    /// flush, or in-flight request) for this long. `None` disables the
    /// watchdog.
    pub idle_timeout: Option<Duration>,
    /// Handshake read deadline: a connection that does not complete its
    /// hello within this window is dropped.
    pub handshake_timeout: Duration,
    /// Sever a connection whose peer has stopped reading: a reply write
    /// that cannot make progress for this long fails and tears the
    /// connection down (its tickets still resolve server-side). `None`
    /// lets a non-reading peer block its own writer thread indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            max_frame_len: MAX_FRAME_LEN,
            idle_timeout: None,
            handshake_timeout: Duration::from_secs(5),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::tcp(stream))
            }
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Stream::unix(stream))
            }
        }
    }
}

/// A ticket the reply pump is waiting on, paired with the reply body it
/// produces on completion.
enum PendingTicket {
    Submit(Ticket<()>),
    Scan(Ticket<Vec<u64>>),
}

impl PendingTicket {
    /// The reply body if [`Ticket::try_take`] finds it, or the ticket back.
    fn try_body(self) -> Result<ReplyBody, PendingTicket> {
        Ok(match self {
            PendingTicket::Submit(t) => {
                t.try_take().map_err(PendingTicket::Submit)?;
                ReplyBody::Submitted
            }
            PendingTicket::Scan(t) => ReplyBody::Values(t.try_take().map_err(PendingTicket::Scan)?),
        })
    }

    /// The reply body, once the ticket resolves.
    fn wait_body(self) -> ReplyBody {
        match self {
            PendingTicket::Submit(t) => {
                t.wait();
                ReplyBody::Submitted
            }
            PendingTicket::Scan(t) => ReplyBody::Values(t.wait()),
        }
    }
}

/// One in-flight request queued for the reply pump.
struct PendingReply {
    id: u64,
    ticket: PendingTicket,
    /// Held, never read: the wire span travels with the request and ends
    /// (by drop) once its reply has been serialized — the flight-recorder
    /// tree completes when the wire layer is done with the request.
    _span: Span,
}

/// Appends the reply frame of request `id` to `out`, encoded in place.
fn encode_reply_into(id: u64, body: ReplyBody, out: &mut Vec<u8>) {
    let reply = Reply {
        id,
        result: Ok(body),
    };
    encode_frame_with(out, |out| reply.write_wire(out));
}

/// What the connection thread hands the reply pump.
enum PumpEntry {
    /// A request whose ticket the pump waits on.
    Pending(PendingReply),
    /// Frames the connection thread serialised itself, answering `replies`
    /// in-flight requests, that the socket would not take at once: `bytes`
    /// if the pump was inside a write at the time, otherwise they sit in
    /// the [`ReplyWriter`]'s backlog (and `bytes` is empty), which any
    /// flush writes out first.
    Frames { bytes: Vec<u8>, replies: u64 },
}

/// The reply pump's FIFO, shared between the connection thread (producer)
/// and the pump (consumer).
struct PumpQueue {
    entries: VecDeque<PumpEntry>,
    /// Set while the pump is parked on an empty queue; the producer rings
    /// it to wake the pump.
    doorbell: Option<Arc<OpCell<()>>>,
    /// Set when the connection thread exits: the pump drains what is left
    /// and stops.
    closed: bool,
    /// The pump thread exists: it is spawned by the first entry, so a
    /// connection whose replies all leave from its own thread never has
    /// one.
    started: bool,
}

/// The connection's write half. Whole frames only, in the order they were
/// accepted: whatever a non-blocking send left over goes out before
/// anything else does.
struct ReplyWriter {
    stream: Stream,
    /// Accepted by [`write_now`](ReplyWriter::write_now) and not yet taken
    /// by the socket.
    backlog: Vec<u8>,
}

impl ReplyWriter {
    /// Writes the backlog, then `bytes`, waiting for the peer as long as
    /// the socket's write timeout allows.
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if !self.backlog.is_empty() {
            let backlog = std::mem::take(&mut self.backlog);
            self.stream.write_all(&backlog)?;
        }
        self.stream.write_all(bytes)
    }

    /// Never waits: one non-blocking send, the remainder kept as backlog.
    /// `Ok(false)` if a backlog remains for a blocking writer to flush.
    fn write_now(&mut self, bytes: &[u8]) -> std::io::Result<bool> {
        let sent = if self.backlog.is_empty() {
            self.stream.try_write(bytes)?
        } else {
            0
        };
        self.backlog.extend_from_slice(&bytes[sent..]);
        Ok(self.backlog.is_empty())
    }
}

/// Flush the pump's write buffer once it crosses this size even if more
/// completed replies are queued, bounding reply latency under sustained
/// bursts.
const PUMP_FLUSH_BYTES: usize = 32 * 1024;

/// Per-connection shared state, reachable from the reader thread, the
/// reply pump, the idle watchdog, and the server's drain.
struct Conn {
    /// The accepted socket (this handle is used for severing only; reads
    /// and writes go through clones).
    stream: Stream,
    /// Serialized reply writer (replies sent from the connection thread
    /// interleave with pump flushes; ids correlate).
    writer: Mutex<ReplyWriter>,
    /// Requests accepted but not yet replied to, with a condvar for the
    /// drain to wait on.
    in_flight: Mutex<u64>,
    drained: Condvar,
    /// Ticket-backed requests awaiting their reply, in dispatch order.
    pump: Mutex<PumpQueue>,
    /// Set once the connection stops accepting new requests (half-close,
    /// idle severance, or server drain); later requests get `closed`.
    intake_closed: AtomicBool,
    /// The server's clock epoch (shared with [`ServerShared`]).
    epoch: Instant,
    /// Nanoseconds (since the epoch) of the last activity: inbound frame
    /// or successfully flushed outbound reply. The idle watchdog also
    /// treats in-flight requests as activity, so this only has to cover
    /// the quiet gaps between requests.
    last_activity_ns: AtomicU64,
    /// Set by the reader thread on exit, under `in_flight`'s lock and with
    /// `drained` signalled: the drain waits for it.
    finished: AtomicBool,
    /// Where the reply pump's thread enters the executor's chaos.
    handle: Handle,
}

impl Conn {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn touch(&self) {
        self.last_activity_ns
            .store(self.now_ns(), Ordering::Release);
    }

    /// Stops intake and severs both socket directions; the reader wakes
    /// with an error and tears the connection down.
    fn sever(&self) {
        self.intake_closed.store(true, Ordering::Release);
        self.stream.shutdown(Shutdown::Both);
    }

    fn in_flight_count(&self) -> u64 {
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn begin_request(&self) {
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn end_requests(&self, completed: u64) {
        if completed == 0 {
            return;
        }
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        *n -= completed;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    /// Queues `entry` for the reply pump, whose thread the first entry
    /// starts: one dedicated writer per connection that needs one (see
    /// [`reply_pump`] — its flushes block on the socket, so it must not
    /// occupy an executor worker, nor the thread that reads the
    /// connection).
    fn push_pump(self: &Arc<Self>, entry: PumpEntry) {
        let mut q = self.pump.lock().unwrap_or_else(|e| e.into_inner());
        q.entries.push_back(entry);
        if let Some(bell) = q.doorbell.take() {
            bell.complete(());
        }
        if !q.started {
            q.started = true;
            let conn = Arc::clone(self);
            std::thread::Builder::new()
                .name("psnap-wire-pump".into())
                .spawn(move || {
                    let _chaos = conn.handle.enter_chaos();
                    reply_pump(conn)
                })
                .expect("spawning a connection's reply pump");
        }
    }

    /// Tells the pump to drain what is queued and exit (the connection
    /// thread is gone; no more entries can arrive).
    fn close_pump(&self) {
        let mut q = self.pump.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        if let Some(bell) = q.doorbell.take() {
            bell.complete(());
        }
    }

    /// Blocks until `done` holds of the in-flight count, re-checked each
    /// time `drained` is signalled (bounded by `deadline`).
    fn wait_until(&self, deadline: Instant, done: impl Fn(u64) -> bool) {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        while !done(*n) {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .drained
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            n = guard;
        }
    }

    /// Answers one request that never reached the service (an error, or
    /// stats) from the connection thread. `never_wait` is the thread's
    /// promise for replies it sends while the backing object is wait-free:
    /// the reply leaves like the ticket-backed ones around it. Otherwise it
    /// is written here and now, waiting for the peer if the socket is full —
    /// ticket-backed replies may then be parked in the pump behind work
    /// that blocks, and an explicit `busy` must not queue behind them.
    fn reply_inline(self: &Arc<Self>, reply: &Reply, never_wait: bool) {
        // One buffered frame, one write: the peer wakes once with the whole
        // frame instead of once for the header and once for the payload.
        let mut frame = Vec::new();
        encode_frame_with(&mut frame, |out| reply.write_wire(out));
        if never_wait {
            return self.send_now(&frame, 0);
        }
        let ok = {
            let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.write_all(&frame).is_ok()
        };
        if ok {
            self.touch();
        } else {
            // Dead peer, or one that stopped reading long enough to trip
            // the write timeout: sever so the connection tears down
            // instead of queueing more replies it will never take.
            self.sever();
        }
    }

    /// Sends `frames` (answering `replies` in-flight requests) from the
    /// calling thread **without ever waiting**: one non-blocking send, and
    /// what the socket does not take — or all of it, if the pump is inside
    /// a write — is the pump's to flush.
    fn send_now(self: &Arc<Self>, frames: &[u8], replies: u64) {
        let sent = match self.writer.try_lock() {
            Ok(mut w) => w.write_now(frames),
            Err(TryLockError::Poisoned(e)) => e.into_inner().write_now(frames),
            Err(TryLockError::WouldBlock) => {
                return self.push_pump(PumpEntry::Frames {
                    bytes: frames.to_vec(),
                    replies,
                });
            }
        };
        match sent {
            Ok(true) => {
                self.touch();
                self.end_requests(replies);
            }
            Ok(false) => self.push_pump(PumpEntry::Frames {
                bytes: Vec::new(),
                replies,
            }),
            Err(_) => {
                self.end_requests(replies);
                self.sever();
            }
        }
    }
}

/// The per-connection reply pump: drains its FIFO in order, serializing
/// consecutive completed replies (and frames the connection thread could
/// not send) into one buffer and flushing them with a single write. The
/// buffer is flushed before the pump suspends on a still-pending ticket (no
/// completed reply waits behind a pending one) and when it crosses
/// [`PUMP_FLUSH_BYTES`].
///
/// Runs on a dedicated writer thread, NOT as an executor job: flushes
/// block on the socket, and so does waiting on a ticket, which runs the
/// service's rounds whenever their role is free. On its own thread a stall
/// is confined to this connection, and the socket write timeout severs a
/// peer that stopped reading.
fn reply_pump(conn: Arc<Conn>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut unflushed = 0u64;
    // Something was taken off the FIFO since the last flush: `buf`, the
    // writer's backlog, or both may hold bytes.
    let mut dirty = false;
    let flush = |buf: &mut Vec<u8>, unflushed: &mut u64, dirty: &mut bool| {
        if !std::mem::take(dirty) {
            return;
        }
        let ok = {
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            // A dead peer makes this fail; the tickets behind these replies
            // have resolved either way, so the drain accounting proceeds.
            w.write_all(buf).is_ok()
        };
        buf.clear();
        conn.end_requests(std::mem::take(unflushed));
        if ok {
            // An outbound flush is activity: the idle watchdog must not
            // sever a peer the moment its last slow reply lands.
            conn.touch();
        } else {
            // Write failed or timed out (peer gone, or it stopped reading
            // its replies): sever so the reader tears the connection down
            // rather than letting more replies pile up behind a socket
            // that will never drain.
            conn.sever();
        }
    };
    loop {
        let mut q = conn.pump.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = q.entries.pop_front() else {
            let bell = (!q.closed).then(|| Arc::clone(q.doorbell.insert(OpCell::new())));
            drop(q);
            flush(&mut buf, &mut unflushed, &mut dirty);
            match bell {
                Some(bell) => Ticket::new(bell).wait(),
                None => return,
            }
            continue;
        };
        drop(q);
        match entry {
            PumpEntry::Frames { bytes, replies } => {
                buf.extend_from_slice(&bytes);
                unflushed += replies;
            }
            PumpEntry::Pending(pending) => {
                let body = pending.ticket.try_body().unwrap_or_else(|ticket| {
                    // Genuinely pending: everything serialized so far goes
                    // out before we wait.
                    flush(&mut buf, &mut unflushed, &mut dirty);
                    ticket.wait_body()
                });
                encode_reply_into(pending.id, body, &mut buf);
                unflushed += 1;
                // The wire span drops with `pending`: the request tree is complete.
            }
        }
        dirty = true;
        if buf.len() >= PUMP_FLUSH_BYTES {
            flush(&mut buf, &mut unflushed, &mut dirty);
        }
    }
}

struct ServerShared<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    service: Arc<SnapshotService<u64, S>>,
    config: WireServerConfig,
    handle: Handle,
    epoch: Instant,
    stop: AtomicBool,
    conns: Mutex<Vec<Arc<Conn>>>,
}

impl<S> ServerShared<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A listening wire endpoint hosting one [`SnapshotService`]. Dropping the
/// server (or calling [`shutdown`](WireServer::shutdown)) drains in-flight
/// requests before the listener closes. The service itself is shared and
/// stays up — in-process clients and other endpoints are unaffected.
pub struct WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    shared: Arc<ServerShared<S>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    /// The acceptor thread; `None` once shutdown has begun.
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<S> WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    /// Starts a TCP endpoint on `addr` (use port 0 for an ephemeral port;
    /// the bound address is available via [`local_addr`]).
    ///
    /// [`local_addr`]: WireServer::local_addr
    pub fn serve_tcp(
        service: Arc<SnapshotService<u64, S>>,
        addr: &str,
        config: WireServerConfig,
        executor: &Executor,
    ) -> std::io::Result<WireServer<S>> {
        let listener = TcpListener::bind(addr)?;
        let tcp_addr = Some(listener.local_addr()?);
        Ok(Self::start(
            service,
            Listener::Tcp(listener),
            tcp_addr,
            None,
            config,
            executor,
        ))
    }

    /// Starts a unix-domain endpoint at `path` (removed first if it is a
    /// stale socket file).
    pub fn serve_unix(
        service: Arc<SnapshotService<u64, S>>,
        path: &Path,
        config: WireServerConfig,
        executor: &Executor,
    ) -> std::io::Result<WireServer<S>> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Ok(Self::start(
            service,
            Listener::Unix(listener),
            None,
            Some(path.to_path_buf()),
            config,
            executor,
        ))
    }

    fn start(
        service: Arc<SnapshotService<u64, S>>,
        listener: Listener,
        tcp_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
        config: WireServerConfig,
        executor: &Executor,
    ) -> WireServer<S> {
        let shared = Arc::new(ServerShared {
            service,
            config,
            handle: executor.handle(),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("psnap-wire-accept".into())
            .spawn(move || accept_loop(&accept_shared, listener))
            .expect("spawning the acceptor thread");
        WireServer {
            shared,
            tcp_addr,
            unix_path,
            acceptor: Mutex::new(Some(acceptor)),
        }
    }

    /// The bound TCP address, if this is a TCP endpoint.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Live connections (racy gauge; finished connections are pruned at
    /// the next accept and by shutdown).
    pub fn connection_count(&self) -> usize {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|c| !c.finished.load(Ordering::Acquire))
            .count()
    }

    /// Graceful drain: stop accepting connections and new requests, let
    /// every in-flight ticket resolve and its reply flush, then close all
    /// sockets and the listener. Bounded by `timeout` per phase; idempotent.
    pub fn shutdown(&self, timeout: Duration) {
        let mut running = self.acceptor.lock().unwrap_or_else(|e| e.into_inner());
        let Some(acceptor) = running.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Release);
        // Wake the acceptor out of `accept` and wait for it to exit: after
        // this no connection can be added behind the drain's back. A wake-up
        // that cannot connect leaves it where it is.
        if self.wake_acceptor(timeout) {
            let _ = acceptor.join();
        }
        let conns: Vec<Arc<Conn>> = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // Phase 1: stop intake everywhere (later requests answer `closed`).
        for conn in &conns {
            conn.intake_closed.store(true, Ordering::Release);
        }
        // Phase 2: wait for in-flight tickets to resolve and flush.
        let deadline = Instant::now() + timeout;
        for conn in &conns {
            conn.wait_until(deadline, |n| n == 0);
        }
        // Phase 3: sever. Readers blocked in `read` wake with an error and
        // finish; the listener (and any socket file) goes away with self.
        for conn in &conns {
            conn.stream.shutdown(Shutdown::Both);
        }
        let deadline = Instant::now() + timeout;
        for conn in &conns {
            conn.wait_until(deadline, |_| conn.finished.load(Ordering::Acquire));
        }
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Connects to this endpoint once, so that the acceptor's `accept`
    /// returns; `false` if the connect failed.
    fn wake_acceptor(&self, timeout: Duration) -> bool {
        if let Some(path) = &self.unix_path {
            return UnixStream::connect(path).is_ok();
        }
        self.tcp_addr
            .is_some_and(|addr| TcpStream::connect_timeout(&addr, timeout).is_ok())
    }
}

impl<S> Drop for WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

/// Pause after a failed `accept` (an aborted handshake, fd pressure)
/// before the next: a persistent error backs off rather than spins.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// The acceptor thread: blocks in `accept` and spawns a connection thread
/// per accepted socket, until a connection finds `stop` set — the wake-up
/// from [`WireServer::shutdown`], or a peer that came too late and is
/// dropped unanswered. The listener closes with this thread.
fn accept_loop<S>(shared: &Arc<ServerShared<S>>, listener: Listener)
where
    S: PartialSnapshot<u64> + 'static,
{
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok(stream) => {
                spawn_connection(shared, stream);
                // Prune finished connections so a long-lived server with
                // churning clients does not accumulate dead entries.
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|c| !c.finished.load(Ordering::Acquire));
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn spawn_connection<S>(shared: &Arc<ServerShared<S>>, stream: Stream)
where
    S: PartialSnapshot<u64> + 'static,
{
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream,
        writer: Mutex::new(ReplyWriter {
            stream: writer,
            backlog: Vec::new(),
        }),
        in_flight: Mutex::new(0),
        drained: Condvar::new(),
        pump: Mutex::new(PumpQueue {
            entries: VecDeque::new(),
            doorbell: None,
            closed: false,
            started: false,
        }),
        intake_closed: AtomicBool::new(false),
        epoch: shared.epoch,
        last_activity_ns: AtomicU64::new(shared.now_ns()),
        finished: AtomicBool::new(false),
        handle: shared.handle.clone(),
    });
    // One socket-level write timeout covers every clone (pump flushes and
    // the connection thread's blocking replies alike): a peer that stops
    // reading can wedge only its own connection, and only this long.
    conn.stream.set_write_timeout(shared.config.write_timeout);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&conn));
    // Idle watchdog: a job on the executor's deadline heap that runs when
    // the connection would next be idle for the whole timeout. It re-arms
    // after activity — inbound frames, outbound reply flushes, or requests
    // still in flight — and severs a connection only once all three have
    // been absent for the timeout.
    if let Some(idle) = shared.config.idle_timeout {
        let conn = Arc::clone(&conn);
        shared.handle.schedule(Instant::now() + idle, move || {
            if conn.finished.load(Ordering::Acquire) || conn.intake_closed.load(Ordering::Acquire) {
                return None;
            }
            let age = conn
                .now_ns()
                .saturating_sub(conn.last_activity_ns.load(Ordering::Acquire));
            let age = Duration::from_nanos(age);
            if age < idle {
                Some(Instant::now() + (idle - age))
            } else if conn.in_flight_count() > 0 {
                // Quiet wire, but a request is still in flight (a slow
                // scan, a gated drain): the connection is active, not
                // idle. Its reply flush will stamp fresh activity; a peer
                // that never reads that reply is the write timeout's
                // problem, not ours.
                Some(Instant::now() + idle)
            } else {
                // Sever both directions: the reader wakes with an error and
                // tears the connection down.
                conn.sever();
                None
            }
        });
    }
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("psnap-wire-conn".into())
        .spawn(move || {
            let _chaos = shared.handle.enter_chaos();
            run_connection(&shared, &conn, reader);
            // No more dispatches can arrive: let the pump drain and exit.
            conn.close_pump();
            // Under the lock the drain waits with, so the signal cannot
            // land between its check and its wait.
            let _in_flight = conn.in_flight.lock().unwrap_or_else(|e| e.into_inner());
            conn.finished.store(true, Ordering::Release);
            conn.drained.notify_all();
        })
        .expect("spawning a connection thread");
}

/// The connection thread's read half, and the requests it has in flight.
///
/// Reading the socket is the only place this thread may block, so that is
/// where it [`settle`](ConnReader::settle)s: every read of the socket
/// (through the `BufReader` around this type — a buffered frame costs no
/// read) first answers what was dispatched since the last one.
struct ConnReader<'a> {
    stream: Stream,
    conn: &'a Arc<Conn>,
    /// Requests this thread dispatched against a wait-free object since
    /// the last socket read, oldest first.
    batch: Vec<PendingReply>,
    /// Scratch for the frames `settle` sends.
    frames: Vec<u8>,
}

impl ConnReader<'_> {
    /// Answers the batch from this thread: tries its tickets in order —
    /// each [`try_take`](Ticket::try_take) runs its pipeline's round here
    /// if the role is free — sends the replies at the head of the batch
    /// that are complete with one non-blocking send, and leaves the rest,
    /// in order, to the reply pump.
    fn settle(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let mut replies = 0u64;
        self.frames.clear();
        let mut rest = self.batch.drain(..);
        let first_pending = loop {
            let Some(entry) = rest.next() else {
                break None;
            };
            match entry.ticket.try_body() {
                Ok(body) => {
                    encode_reply_into(entry.id, body, &mut self.frames);
                    replies += 1;
                }
                Err(ticket) => break Some(PendingReply { ticket, ..entry }),
            }
        };
        if replies > 0 {
            self.conn.send_now(&self.frames, replies);
        }
        for entry in first_pending.into_iter().chain(rest) {
            self.conn.push_pump(PumpEntry::Pending(entry));
        }
    }
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.settle();
        let read = self.stream.read(buf)?;
        // Inbound bytes are activity: stamped once per socket read, however
        // many frames the read brought.
        if read > 0 {
            self.conn.touch();
        }
        Ok(read)
    }
}

/// The connection thread: handshake, then the request loop. Runs on its own
/// OS thread (frame reads block). Against a wait-free backing object it
/// answers its own requests — [`ConnReader::settle`] combines on this
/// thread and sends the replies without ever waiting on the socket;
/// otherwise everything it dispatches is waited on, and so combined and
/// answered, by the reply pump.
fn run_connection<S>(shared: &Arc<ServerShared<S>>, conn: &Arc<Conn>, mut reader: Stream)
where
    S: PartialSnapshot<u64> + 'static,
{
    // --- Handshake -------------------------------------------------------
    reader.set_read_timeout(Some(shared.config.handshake_timeout));
    let hello = match read_frame(&mut reader, shared.config.max_frame_len) {
        Ok(bytes) => bytes,
        Err(_) => {
            conn.stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let version = std::str::from_utf8(&hello)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| parse_hello(&json));
    match version {
        Some(v) if v == PROTOCOL_VERSION => {
            let welcome = welcome_json(shared.service.components(), shared.config.max_frame_len)
                .to_string_compact();
            let frame = encode_frame(welcome.as_bytes());
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            if w.write_all(&frame).is_err() {
                drop(w);
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
        }
        _ => {
            let reject = reject_json("version_mismatch").to_string_compact();
            let frame = encode_frame(reject.as_bytes());
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.write_all(&frame);
            drop(w);
            conn.stream.shutdown(Shutdown::Both);
            return;
        }
    }
    reader.set_read_timeout(None);
    conn.touch();

    // --- Request loop ----------------------------------------------------
    // Buffered from here on: a burst of pipelined frames costs one read
    // syscall per buffer fill instead of two per frame (header + payload).
    let mut reader = BufReader::with_capacity(
        64 * 1024,
        ConnReader {
            stream: reader,
            conn,
            batch: Vec::new(),
            frames: Vec::new(),
        },
    );
    let client = shared.service.client();
    let components = shared.service.components();
    let max_frame = shared.config.max_frame_len;
    let mut payload = Vec::new();
    loop {
        // A frame already whole in the buffer is decoded where it lies (and
        // consumed once answered); only one that is not is read — copied —
        // into `payload`.
        let buffered = buffered_frame(reader.buffer(), max_frame).map(<[u8]>::len);
        let read = match buffered {
            Some(_) => Ok(()),
            None => read_frame_into(&mut reader, max_frame, &mut payload),
        };
        match read {
            Ok(()) => {}
            Err(FrameError::Eof) => {
                // Half-close: the peer is done sending. Stop intake, let
                // in-flight replies flush, close our side, done.
                conn.intake_closed.store(true, Ordering::Release);
                conn.wait_until(Instant::now() + Duration::from_secs(30), |n| n == 0);
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => {
                // Died mid-frame (reset, truncation, oversized, idle
                // severance). Accepted submissions are already in the
                // service pipeline and will resolve server-side; nothing
                // can be replied on a broken framing layer. (A frame cut
                // short inside the buffer never reached a socket read:
                // settle, so nothing dispatched is left without a waiter.)
                reader.get_mut().settle();
                conn.intake_closed.store(true, Ordering::Release);
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
        };

        // Whether this thread may answer the request itself: only a
        // wait-free backing object finishes in a bounded number of its
        // own steps.
        let combining = shared.service.is_wait_free();
        let attempt = |reader: &mut BufReader<ConnReader<'_>>| {
            // Root the request tree at frame decode: the service's own
            // request root (ingest / scan request) nests beneath this span,
            // so a wire request shows up in the flight recorder as one tree
            // from byte arrival to reply.
            let mut wire_span = Span::root(SpanKind::WireRequest);

            // Fast path first: the canonical document shape parses with a
            // strict scanner; anything else (whitespace, reordered keys,
            // foreign clients) takes the general JSON route.
            let frame = match buffered {
                Some(len) => &reader.buffer()[HEADER_LEN..HEADER_LEN + len],
                None => &payload[..],
            };
            let request = Request::from_wire(frame);
            let len = frame.len();
            // Undecodable request: answer `bad_request` with id 0 (the id,
            // if any, did not parse) and keep the connection — framing is
            // intact, only this payload was malformed.
            let request = request.ok_or((0, WireErrorKind::BadRequest))?;
            wire_span.set_args(request.body.opcode(), len as u64);
            let id = request.id;
            if conn.intake_closed.load(Ordering::Acquire) {
                return Err((id, WireErrorKind::Closed));
            }
            let combining = combining.then(|| reader.get_mut());
            dispatch(
                shared, conn, &client, components, request, wire_span, combining,
            )
            .map_err(|kind| (id, kind))
        };
        let mut outcome = attempt(&mut reader);
        if matches!(outcome, Err((_, WireErrorKind::Busy))) && !reader.get_ref().batch.is_empty() {
            // About to refuse for want of room that this thread's own
            // unsettled batch may be holding: do that work first. (Settling
            // reads nothing, so a buffered frame is still where it was.)
            reader.get_mut().settle();
            outcome = attempt(&mut reader);
        }
        if let Some(len) = buffered {
            reader.consume(HEADER_LEN + len);
        }
        if let Err((id, kind)) = outcome {
            let reply = Reply {
                id,
                result: Err(kind),
            };
            conn.reply_inline(&reply, combining);
        }
    }
}

/// Validates and dispatches one decoded request; an `Err` is the caller's
/// to answer. A ticket-backed request joins `combining`'s batch, which the
/// connection thread answers itself, or without one goes to the
/// connection's reply pump. Stats answer inline.
fn dispatch<S>(
    shared: &Arc<ServerShared<S>>,
    conn: &Arc<Conn>,
    client: &ClientHandle<u64, S>,
    components: usize,
    request: Request,
    wire_span: Span,
    combining: Option<&mut ConnReader<'_>>,
) -> Result<(), WireErrorKind>
where
    S: PartialSnapshot<u64> + 'static,
{
    let id = request.id;
    // The wire span is entered around the service call so the in-process
    // request root parents beneath it; it then travels with the request and
    // ends once the reply frame is serialized — the tree completes when
    // the wire layer is truly done with the request.
    let ticket = match request.body {
        RequestBody::Submit { writes } => {
            if writes.iter().any(|(c, _)| *c >= components) {
                return Err(WireErrorKind::BadRequest);
            }
            let _in = span::enter(wire_span.context());
            PendingTicket::Submit(client.submit_batch(writes).map_err(submit_error)?)
        }
        RequestBody::Scan {
            components: requested,
            freshness,
        } => {
            if requested.iter().any(|c| *c >= components) {
                return Err(WireErrorKind::BadRequest);
            }
            let _in = span::enter(wire_span.context());
            PendingTicket::Scan(client.scan(requested, freshness).map_err(submit_error)?)
        }
        RequestBody::Stats => {
            let reply = Reply {
                id,
                result: Ok(ReplyBody::Stats(shared.service.obs().to_json())),
            };
            conn.reply_inline(&reply, combining.is_some());
            return Ok(());
        }
    };
    conn.begin_request();
    let entry = PendingReply {
        id,
        ticket,
        _span: wire_span,
    };
    match combining {
        Some(reader) => reader.batch.push(entry),
        None => conn.push_pump(PumpEntry::Pending(entry)),
    }
    Ok(())
}

fn submit_error(e: SubmitError) -> WireErrorKind {
    match e {
        SubmitError::Busy => WireErrorKind::Busy,
        SubmitError::Closed => WireErrorKind::Closed,
    }
}
