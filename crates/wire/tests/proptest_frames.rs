//! Wire-safety property tests: adversarial bytes and adversarial JSON
//! against the frame codec and the protocol decoder. The invariant under
//! test is uniform — *error, never panic, never over-allocate* — because a
//! wire endpoint feeds these decoders attacker-controlled input.

use std::io::Read;

use proptest::prelude::*;
use psnap_json::Json;
use psnap_serve::Freshness;
use psnap_wire::{
    encode_frame, encode_frame_with, read_frame, read_frame_str, FrameError, Reply, ReplyBody,
    Request, RequestBody, WireErrorKind, MAX_FRAME_LEN,
};

/// Largest integer a JSON number carries exactly; above it the codec
/// switches to decimal strings.
const MAX_SAFE: u64 = 1 << 53;

/// A `u64` at one of the codec's edges — one and two digits, either side
/// of the number/string switch, the largest value — or anywhere.
fn wire_u64() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 7] = [0, 9, 10, MAX_SAFE - 1, MAX_SAFE, MAX_SAFE + 1, u64::MAX];
    prop_oneof![(0..EDGES.len()).prop_map(|i| EDGES[i]), 0u64..=u64::MAX]
}

/// A component index. The general path carries components as JSON
/// numbers, so they stay at or below 2^53 (the same edges, from below).
fn component() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 5] = [0, 9, 10, MAX_SAFE as usize - 1, MAX_SAFE as usize];
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        0usize..=MAX_SAFE as usize
    ]
}

fn request() -> impl Strategy<Value = Request> {
    let submit = (
        wire_u64(),
        proptest::collection::vec((component(), wire_u64()), 1..24),
    )
        .prop_map(|(id, writes)| Request {
            id,
            body: RequestBody::Submit { writes },
        });
    let scan =
        (wire_u64(), proptest::collection::vec(component(), 0..24)).prop_map(|(id, components)| {
            Request {
                id,
                body: RequestBody::Scan {
                    components,
                    freshness: Freshness::Fresh,
                },
            }
        });
    let stats = wire_u64().prop_map(|id| Request {
        id,
        body: RequestBody::Stats,
    });
    prop_oneof![submit, scan, stats]
}

fn reply() -> impl Strategy<Value = Reply> {
    let values =
        (wire_u64(), proptest::collection::vec(wire_u64(), 0..24)).prop_map(|(id, values)| Reply {
            id,
            result: Ok(ReplyBody::Values(values)),
        });
    let other = (wire_u64(), 0usize..5).prop_map(|(id, shape)| Reply {
        id,
        result: match shape {
            0 => Ok(ReplyBody::Submitted),
            1 => Ok(ReplyBody::Stats(Json::obj([("x", Json::u64(id))]))),
            2 => Err(WireErrorKind::Busy),
            3 => Err(WireErrorKind::Closed),
            _ => Err(WireErrorKind::BadRequest),
        },
    });
    prop_oneof![values, other]
}

/// `write_wire`'s output, and the same payload framed in place after bytes
/// already in the buffer (with the framed part split off).
fn encoded(write: impl Fn(&mut Vec<u8>)) -> (Vec<u8>, Vec<u8>) {
    let mut payload = Vec::new();
    write(&mut payload);
    let earlier = b"earlier frames";
    let mut buf = earlier.to_vec();
    let len = encode_frame_with(&mut buf, write);
    assert_eq!(len, payload.len());
    (payload, buf.split_off(earlier.len()))
}

/// A reader that hands out at most `limit` bytes, then EOF — models a peer
/// that dies mid-frame.
struct Cutoff<'a> {
    data: &'a [u8],
    pos: usize,
    limit: usize,
}

impl Read for Cutoff<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.limit.min(self.data.len());
        let n = buf.len().min(end.saturating_sub(self.pos));
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    /// Any payload round-trips through the codec byte-for-byte.
    #[test]
    fn frames_roundtrip(payload in proptest::collection::vec(0u8..=255, 0..4096)) {
        let buf = encode_frame(&payload);
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), payload);
        prop_assert!(matches!(read_frame(&mut r, MAX_FRAME_LEN), Err(FrameError::Eof)));
    }

    /// A stream cut anywhere inside a frame is `Truncated` (or `Eof` when
    /// not a single byte arrived) — never a panic, never a partial frame.
    #[test]
    fn truncation_at_any_offset_is_an_error(
        payload in proptest::collection::vec(0u8..=255, 1..512),
        cut_sel in 0usize..1_000_000,
    ) {
        let buf = encode_frame(&payload);
        let cut = cut_sel % buf.len();
        let mut r = Cutoff { data: &buf, pos: 0, limit: cut };
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameError::Eof) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated { .. }) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// A hostile length prefix above the cap is rejected before any
    /// allocation, whatever the advertised length and cap.
    #[test]
    fn oversized_prefix_never_allocates(
        len in 1u32..=u32::MAX,
        cap in 0usize..100_000,
    ) {
        prop_assume!((len as usize) > cap);
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(b"some bytes that must never be read");
        let mut r = &buf[..];
        match read_frame(&mut r, cap) {
            Err(FrameError::Oversized { len: got, max }) => {
                prop_assert_eq!(got, len as usize);
                prop_assert_eq!(max, cap);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    /// Arbitrary bytes as a frame payload: `read_frame_str` either decodes
    /// UTF-8 or errors; it never panics.
    #[test]
    fn arbitrary_payload_bytes_never_panic_the_text_decoder(
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let buf = encode_frame(&payload);
        let mut r = &buf[..];
        let _ = read_frame_str(&mut r, MAX_FRAME_LEN);
    }

    /// Arbitrary bytes through the JSON parser and the request/reply
    /// decoders: `None`/`Err` on garbage, never a panic.
    #[test]
    fn arbitrary_text_never_panics_the_protocol_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(json) = Json::parse(&text) {
            let _ = Request::from_json(&json);
            let _ = Reply::from_json(&json);
        }
    }

    /// Requests with arbitrary well-formed contents round-trip exactly —
    /// including ids and values above 2^53, where f64 JSON numbers lose
    /// precision and the codec must fall back to decimal strings.
    #[test]
    fn well_formed_requests_roundtrip_with_full_precision(
        id in 0u64..=u64::MAX,
        writes in proptest::collection::vec((0usize..1024, 0u64..=u64::MAX), 1..64),
    ) {
        let request = Request {
            id,
            body: psnap_wire::RequestBody::Submit { writes: writes.clone() },
        };
        let decoded = Request::from_json(&request.to_json()).expect("self-encoded request");
        prop_assert_eq!(decoded.id, id);
        match decoded.body {
            psnap_wire::RequestBody::Submit { writes: got } => prop_assert_eq!(&got, &writes),
            other => prop_assert!(false, "wrong body {:?}", other.opcode()),
        }
        // The fast-path codec must agree with the general path exactly:
        // byte-identical serialization, identical parse.
        let fast = request.to_wire_string();
        prop_assert_eq!(&fast, &request.to_json().to_string_compact());
        prop_assert_eq!(Request::parse_wire(&fast), Some(request));
    }

    /// Replies with arbitrary values round-trip exactly, same precision
    /// constraint as requests.
    #[test]
    fn well_formed_replies_roundtrip_with_full_precision(
        id in 0u64..=u64::MAX,
        values in proptest::collection::vec(0u64..=u64::MAX, 0..64),
    ) {
        let reply = Reply {
            id,
            result: Ok(psnap_wire::ReplyBody::Values(values.clone())),
        };
        let decoded = Reply::from_json(&reply.to_json()).expect("self-encoded reply");
        prop_assert_eq!(decoded.id, id);
        match decoded.result {
            Ok(psnap_wire::ReplyBody::Values(got)) => prop_assert_eq!(&got, &values),
            other => prop_assert!(false, "wrong result {:?}", other.is_ok()),
        }
        // Fast-path parity, as for requests.
        let fast = reply.to_wire_string();
        prop_assert_eq!(&fast, &reply.to_json().to_string_compact());
        prop_assert_eq!(Reply::parse_wire(&fast), Some(reply));
    }

    /// The byte encoder writes exactly what the general serializer writes,
    /// the fast parser inverts it, and a frame built in place is the frame
    /// of the encoded text.
    #[test]
    fn request_encoder_matches_the_general_path_and_frames_in_place(request in request()) {
        let (payload, frame) = encoded(|out| request.write_wire(out));
        let text = request.to_json().to_string_compact();
        prop_assert_eq!(&payload, text.as_bytes());
        prop_assert_eq!(Request::parse_wire(&text).as_ref(), Some(&request));
        prop_assert_eq!(frame, encode_frame(request.to_wire_string().as_bytes()));
    }

    /// The same three properties for replies; stats replies carry free-form
    /// JSON, which the fast parser declines and the general one inverts.
    #[test]
    fn reply_encoder_matches_the_general_path_and_frames_in_place(reply in reply()) {
        let (payload, frame) = encoded(|out| reply.write_wire(out));
        let text = reply.to_json().to_string_compact();
        prop_assert_eq!(&payload, text.as_bytes());
        let parsed = match reply.result {
            Ok(ReplyBody::Stats(_)) => {
                prop_assert_eq!(Reply::parse_wire(&text), None);
                Reply::from_json(&Json::parse(&text).unwrap())
            }
            _ => Reply::parse_wire(&text),
        };
        prop_assert_eq!(parsed.as_ref(), Some(&reply));
        prop_assert_eq!(frame, encode_frame(reply.to_wire_string().as_bytes()));
    }
}

/// Deterministic adversarial corpus — the edge shapes named by the wire
/// contract: huge integers, empty component lists, maximum-length strings,
/// wrong types in every slot.
#[test]
fn adversarial_documents_error_cleanly() {
    let max_len_string = "x".repeat(1 << 16);
    let cases = [
        // Empty submit batches are meaningless on the wire.
        r#"{"id":1,"op":"submit","writes":[]}"#.to_string(),
        // Writes must be [component, value] pairs exactly.
        r#"{"id":1,"op":"submit","writes":[[1]]}"#.to_string(),
        r#"{"id":1,"op":"submit","writes":[[1,2,3]]}"#.to_string(),
        r#"{"id":1,"op":"submit","writes":[1,2]}"#.to_string(),
        // Values beyond u64 (or negative, fractional, overflow strings).
        r#"{"id":1,"op":"submit","writes":[[0,-1]]}"#.to_string(),
        r#"{"id":1,"op":"submit","writes":[[0,1.5]]}"#.to_string(),
        r#"{"id":1,"op":"submit","writes":[[0,"18446744073709551616"]]}"#.to_string(),
        r#"{"id":1,"op":"submit","writes":[[0,"01"]]}"#.to_string(),
        // Scans need a components array and a recognizable freshness.
        r#"{"id":1,"op":"scan","components":"all","freshness":"fresh"}"#.to_string(),
        r#"{"id":1,"op":"scan","components":[0],"freshness":"soon"}"#.to_string(),
        r#"{"id":1,"op":"scan","components":[0],"freshness":{"stale_ns":-5}}"#.to_string(),
        // Unknown ops, missing ids, wrong-typed ids.
        r#"{"id":1,"op":"transmogrify"}"#.to_string(),
        r#"{"op":"submit","writes":[[0,1]]}"#.to_string(),
        r#"{"id":"one","op":"submit","writes":[[0,1]]}"#.to_string(),
        r#"{"id":1.5,"op":"submit","writes":[[0,1]]}"#.to_string(),
        // Maximum-length garbage strings in op position.
        format!(r#"{{"id":1,"op":"{max_len_string}"}}"#),
        // Top-level non-objects.
        "[1,2,3]".to_string(),
        "\"hello\"".to_string(),
        "42".to_string(),
        "null".to_string(),
    ];
    for case in &cases {
        let json = Json::parse(case).expect("adversarial corpus is valid JSON");
        assert!(
            Request::from_json(&json).is_none(),
            "decoder accepted adversarial request: {case:.80}"
        );
    }
}
