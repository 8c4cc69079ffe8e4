//! Length-prefixed frame codec.
//!
//! Every message on a connection — handshake, request, reply — is one
//! *frame*: a 4-byte big-endian payload length followed by that many bytes
//! of UTF-8 JSON. The codec is deliberately dumb so its failure modes are
//! enumerable:
//!
//! * a length above the negotiated cap is rejected **before** any payload
//!   allocation (a hostile peer cannot make the server reserve gigabytes
//!   with four bytes);
//! * a connection that ends mid-prefix or mid-payload is a
//!   [`FrameError::Truncated`], never a panic or a partial frame handed to
//!   the JSON parser;
//! * a clean end of stream *between* frames is [`FrameError::Eof`] — the
//!   half-close a peer performs when it is done sending, distinct from
//!   truncation.

use std::io::{self, Read, Write};

/// Default cap on a frame's payload length, in bytes. Generous for request
/// traffic (a maximal batch of a few hundred writes is a few kilobytes) but
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Length of the frame header (big-endian u32 payload length).
pub const HEADER_LEN: usize = 4;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between frames: the peer half-closed its sending
    /// direction. Not an error in the protocol sense — the reader should
    /// stop reading and let in-flight replies flush.
    Eof,
    /// The stream ended inside a frame (mid-prefix or mid-payload).
    Truncated {
        /// Bytes expected beyond what arrived.
        missing: usize,
    },
    /// The length prefix exceeds the cap; nothing was allocated.
    Oversized {
        /// The advertised payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The payload is not valid UTF-8 (frames carry JSON text).
    NotUtf8,
    /// An underlying I/O error (connection reset, timeout, ...).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated { missing: 0 },
            _ => FrameError::Io(e),
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= u32::MAX as usize);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Serializes one frame into a buffer (for tests and batching writers).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(payload, &mut out);
    out
}

/// Appends one frame (header, then payload) to `out` — the
/// allocation-reusing sibling of [`encode_frame`] for writers that batch
/// many frames into one buffer.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame to `out` whose payload `write` appends in place: a
/// header placeholder goes first and is back-patched with the length of
/// what `write` appended, which is returned. The payload is written once,
/// straight into the buffer the frame leaves from.
pub fn encode_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write(out);
    let len = out.len() - start - HEADER_LEN;
    debug_assert!(len <= u32::MAX as usize);
    out[start..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    len
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF at offset 0
/// (`Ok(false)`) from truncation mid-read (`Err(Truncated)`).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated {
                    missing: buf.len() - filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame's payload, enforcing `max_len` before allocating.
///
/// A clean end of stream before any header byte is [`FrameError::Eof`];
/// a stream ending anywhere inside the frame is
/// [`FrameError::Truncated`]. The payload is returned as owned bytes,
/// verified UTF-8-decodable by [`read_frame_str`]'s wrapper if text is
/// needed.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, max_len, &mut payload)?;
    Ok(payload)
}

/// Reads one frame's payload into `payload` (cleared first), reusing its
/// allocation — the per-connection read loops call this, with one
/// long-lived buffer, for each frame not already whole in their read
/// buffer, so no frame allocates.
/// Same error contract as [`read_frame`]; the length cap is enforced
/// before the buffer grows.
pub fn read_frame_into(
    r: &mut impl Read,
    max_len: usize,
    payload: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Err(FrameError::Eof);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    // The length is now known ≤ max_len, so growth is bounded.
    payload.clear();
    payload.resize(len, 0);
    if !read_full(r, payload)? {
        return Err(FrameError::Truncated { missing: len });
    }
    Ok(())
}

/// The payload of the frame at the head of `buffered` — a reader's buffer —
/// if the whole frame is there and its length is within `max_len`; the
/// frame then spans `HEADER_LEN` + the payload's length bytes. Otherwise
/// `None`, and [`read_frame_into`] reads the frame (and reports whatever is
/// wrong with it).
pub(crate) fn buffered_frame(buffered: &[u8], max_len: usize) -> Option<&[u8]> {
    let (header, rest) = buffered.split_first_chunk::<HEADER_LEN>()?;
    let len = u32::from_be_bytes(*header) as usize;
    if len > max_len {
        return None;
    }
    rest.get(..len)
}

/// Reads one frame and decodes it as UTF-8 text.
pub fn read_frame_str(r: &mut impl Read, max_len: usize) -> Result<String, FrameError> {
    String::from_utf8(read_frame(r, max_len)?).map_err(|_| FrameError::NotUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = br#"{"op":"hello","version":1}"#;
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        assert_eq!(buf, encode_frame(payload));
        let mut in_place = b"prefix".to_vec();
        let len = encode_frame_with(&mut in_place, |out| out.extend_from_slice(payload));
        assert_eq!((len, &in_place[6..]), (payload.len(), &buf[..]));
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), payload);
        // Stream exhausted: the next read is a clean Eof.
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_LEN),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn truncated_prefix_and_payload_error_cleanly() {
        let full = encode_frame(b"abcdef");
        for cut in 1..full.len() {
            let mut r = &full[..cut];
            assert!(
                matches!(
                    read_frame(&mut r, MAX_FRAME_LEN),
                    Err(FrameError::Truncated { .. })
                ),
                "cut at {cut} not reported as truncation"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        // Advertise 4 GiB - 1; the reader must refuse before allocating.
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut r = &buf[..];
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let buf = encode_frame(b"");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"");
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let buf = encode_frame(&[0xff, 0xfe, 0x80]);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame_str(&mut r, MAX_FRAME_LEN),
            Err(FrameError::NotUtf8)
        ));
    }
}
