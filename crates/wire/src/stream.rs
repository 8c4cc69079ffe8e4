//! A TCP or unix-domain stream behind one type, so the connection
//! machinery (server and client side) is written once.

use std::ffi::{c_int, c_void};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

use psnap_serve::{WaitCounters, WaitSite};

// The two socket calls std has no per-call non-blocking form of. std already
// links libc; `set_nonblocking` is not a substitute, because it flips the
// open file description that the thread blocked on the other half of the
// connection shares.
extern "C" {
    fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

const MSG_PEEK: c_int = 0x2;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MSG_DONTWAIT: c_int = 0x40;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MSG_DONTWAIT: c_int = 0x80;
/// A write to a closed peer is an `EPIPE` error, not a signal (std's own
/// writes pass the same flag where it exists).
#[cfg(any(target_os = "linux", target_os = "android"))]
const MSG_NOSIGNAL: c_int = 0x4000;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MSG_NOSIGNAL: c_int = 0;

/// `wire.wait.*`: socket reads, on either end of a connection.
fn wire_waits() -> &'static WaitCounters {
    static COUNTERS: OnceLock<WaitCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| WaitCounters::named("wire.wait"))
}

enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// One handle on a connection's socket. Clones share the socket; each has
/// its own waiting site, so the one that is the connection's read half
/// carries that half's poll-then-park state with it, whichever thread
/// reads.
pub(crate) struct Stream {
    socket: Socket,
    reads: WaitSite,
}

impl Stream {
    fn new(socket: Socket) -> Stream {
        Stream {
            socket,
            reads: WaitSite::new(wire_waits()),
        }
    }

    pub(crate) fn tcp(stream: TcpStream) -> Stream {
        Stream::new(Socket::Tcp(stream))
    }

    pub(crate) fn unix(stream: UnixStream) -> Stream {
        Stream::new(Socket::Unix(stream))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(Stream::new(match &self.socket {
            Socket::Tcp(s) => Socket::Tcp(s.try_clone()?),
            Socket::Unix(s) => Socket::Unix(s.try_clone()?),
        }))
    }

    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = match &self.socket {
            Socket::Tcp(s) => s.shutdown(how),
            Socket::Unix(s) => s.shutdown(how),
        };
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) {
        let _ = match &self.socket {
            Socket::Tcp(s) => s.set_read_timeout(t),
            Socket::Unix(s) => s.set_read_timeout(t),
        };
    }

    fn fd(&self) -> RawFd {
        match &self.socket {
            Socket::Tcp(s) => s.as_raw_fd(),
            Socket::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Sends as much of `buf` as the socket takes without waiting: `Ok(n)`
    /// with `n < buf.len()` (possibly 0) when its send buffer is full.
    pub(crate) fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        loop {
            // SAFETY: `fd` is this stream's open socket for the whole call
            // (`&self` keeps it from closing), and `buf` is valid for reads
            // of `buf.len()` bytes; `send` neither keeps the pointer nor
            // writes through it.
            let n = unsafe {
                send(
                    self.fd(),
                    buf.as_ptr().cast(),
                    buf.len(),
                    MSG_DONTWAIT | MSG_NOSIGNAL,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            match e.kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => return Ok(0),
                _ => return Err(e),
            }
        }
    }

    /// True if the peer has closed its sending direction (or the connection
    /// has failed) and nothing is left to read; never waits, consumes
    /// nothing.
    pub(crate) fn peer_closed(&self) -> bool {
        let mut byte = 0u8;
        loop {
            // SAFETY: `fd` is this stream's open socket for the whole call,
            // and `byte` is one writable byte that outlives it.
            let n = unsafe {
                recv(
                    self.fd(),
                    (&raw mut byte).cast(),
                    1,
                    MSG_PEEK | MSG_DONTWAIT,
                )
            };
            if n >= 0 {
                return n == 0;
            }
            match io::Error::last_os_error().kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => return false,
                _ => return true,
            }
        }
    }

    /// Socket-level (`SO_SNDTIMEO`): applies to every clone of this stream.
    pub(crate) fn set_write_timeout(&self, t: Option<Duration>) {
        let _ = match &self.socket {
            Socket::Tcp(s) => s.set_write_timeout(t),
            Socket::Unix(s) => s.set_write_timeout(t),
        };
    }
}

/// `recv` without waiting: `None` if nothing has arrived yet.
fn try_read(fd: RawFd, buf: &mut [u8]) -> Option<io::Result<usize>> {
    // SAFETY: `fd` is an open socket for the whole call (its `Stream` is
    // borrowed by the caller), and `buf` is valid for writes of `buf.len()`
    // bytes; `recv` does not keep the pointer.
    let n = unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
    if n >= 0 {
        return Some(Ok(n as usize));
    }
    let e = io::Error::last_os_error();
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => None,
        _ => Some(Err(e)),
    }
}

impl Read for Stream {
    /// Polls the socket briefly, then blocks in the ordinary read, which is
    /// what honours `SO_RCVTIMEO` (see [`WaitSite`]).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let fd = self.fd();
        let socket = &mut self.socket;
        // One buffer for two closures, of which at most one runs at a time.
        let buf = std::cell::RefCell::new(buf);
        self.reads.wait(
            || try_read(fd, &mut buf.borrow_mut()),
            || match socket {
                Socket::Tcp(s) => s.read(&mut buf.borrow_mut()),
                Socket::Unix(s) => s.read(&mut buf.borrow_mut()),
            },
        )
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut self.socket {
            Socket::Tcp(s) => s.write(buf),
            Socket::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match &mut self.socket {
            Socket::Tcp(s) => s.flush(),
            Socket::Unix(s) => s.flush(),
        }
    }
}
