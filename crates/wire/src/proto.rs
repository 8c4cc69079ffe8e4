//! The request/reply protocol carried inside frames.
//!
//! Payloads are `psnap-json` documents — the wire format is spelled out in
//! code, both directions, with no derived serialization:
//!
//! * handshake: client sends `{"op":"hello","version":V}`, server answers
//!   `{"op":"welcome","version":V,"components":M,"max_frame":N}` or
//!   `{"op":"reject","error":"version_mismatch","server_version":V}`;
//! * requests carry a client-chosen `id` echoed verbatim on the reply, so
//!   one connection multiplexes any number of in-flight operations;
//! * component values are `u64` encoded via [`Json::u64`], which falls back
//!   to decimal strings above 2^53 — a number JSON's doubles cannot carry
//!   losslessly must never round on the wire;
//! * `Busy` backpressure is an explicit error reply, not a dropped frame:
//!   the client sees `{"ok":false,"error":"busy"}` and decides to retry or
//!   shed, exactly like an in-process caller seeing `SubmitError::Busy`;
//! * the canonical request and reply shapes take a fast path: `write_wire`
//!   appends exactly the bytes `to_json().to_string_compact()` would
//!   produce, straight into the frame being built, and `parse_wire` scans
//!   them back without a `Json` tree; any other document takes the general
//!   route.

use psnap_json::Json;
use psnap_serve::Freshness;

/// Protocol version spoken by this build. A server rejects hellos with any
/// other version — explicit incompatibility beats silent misparses.
pub const PROTOCOL_VERSION: u64 = 1;

/// Error kinds a reply can carry. `Busy` and `Closed` mirror
/// [`psnap_serve::SubmitError`]; `BadRequest` covers frames that decoded as
/// JSON but not as a request the server understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The connection's share of the ingest queue (or the scan queue) is full.
    /// Nothing was enqueued; retry or shed.
    Busy,
    /// The service is shutting down (or the connection is draining) and no
    /// longer accepts work.
    Closed,
    /// The request was structurally invalid (unknown op, missing field,
    /// component out of range, ...).
    BadRequest,
}

impl WireErrorKind {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireErrorKind::Busy => "busy",
            WireErrorKind::Closed => "closed",
            WireErrorKind::BadRequest => "bad_request",
        }
    }

    /// Inverse of [`as_str`](WireErrorKind::as_str).
    pub fn parse(s: &str) -> Option<WireErrorKind> {
        match s {
            "busy" => Some(WireErrorKind::Busy),
            "closed" => Some(WireErrorKind::Closed),
            "bad_request" => Some(WireErrorKind::BadRequest),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One request, as decoded by the server (and encoded by the client).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations the protocol carries.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// An atomic batch of component writes (a single write is a batch of
    /// one). Maps to [`psnap_serve::ClientHandle::submit_batch`].
    Submit {
        /// `(component, value)` pairs; must be non-empty on the wire.
        writes: Vec<(usize, u64)>,
    },
    /// A partial scan under a freshness bound.
    Scan {
        /// The requested components, in reply order.
        components: Vec<usize>,
        /// Always `Fresh` (`"fresh"` on the wire).
        freshness: Freshness,
    },
    /// One observability snapshot of the service ([`ServiceObs`] JSON).
    ///
    /// [`ServiceObs`]: psnap_serve::ServiceObs
    Stats,
}

impl RequestBody {
    /// Wire opcode, also carried as the wire span's `a` argument.
    pub fn opcode(&self) -> u64 {
        match self {
            RequestBody::Submit { .. } => 1,
            RequestBody::Scan { .. } => 2,
            RequestBody::Stats => 3,
        }
    }
}

/// One reply, as encoded by the server (and decoded by the client).
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The outcome.
    pub result: Result<ReplyBody, WireErrorKind>,
}

/// Successful reply payloads, one per [`RequestBody`] variant.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBody {
    /// The batch was applied (the in-process ticket resolved).
    Submitted,
    /// The scan's values, one per requested component in request order.
    Values(Vec<u64>),
    /// The service obs snapshot, passed through as JSON.
    Stats(Json),
}

fn freshness_to_json(freshness: &Freshness) -> Json {
    match freshness {
        Freshness::Fresh => Json::Str("fresh".into()),
    }
}

fn freshness_from_json(json: &Json) -> Option<Freshness> {
    (json.as_str() == Some("fresh")).then_some(Freshness::Fresh)
}

impl Request {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("id".into(), Json::u64(self.id))];
        match &self.body {
            RequestBody::Submit { writes } => {
                pairs.push(("op".into(), Json::Str("submit".into())));
                pairs.push((
                    "writes".into(),
                    Json::arr(
                        writes
                            .iter()
                            .map(|(c, v)| Json::arr([Json::Num(*c as f64), Json::u64(*v)])),
                    ),
                ));
            }
            RequestBody::Scan {
                components,
                freshness,
            } => {
                pairs.push(("op".into(), Json::Str("scan".into())));
                pairs.push((
                    "components".into(),
                    Json::arr(components.iter().map(|c| Json::Num(*c as f64))),
                ));
                pairs.push(("freshness".into(), freshness_to_json(freshness)));
            }
            RequestBody::Stats => {
                pairs.push(("op".into(), Json::Str("stats".into())));
            }
        }
        Json::obj(pairs)
    }

    /// Parses a request document. `None` is the server's `bad_request`.
    pub fn from_json(json: &Json) -> Option<Request> {
        let id = json.get("id")?.as_u64_precise()?;
        let body = match json.get("op")?.as_str()? {
            "submit" => {
                let writes = json
                    .get("writes")?
                    .as_array()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array()?;
                        if pair.len() != 2 {
                            return None;
                        }
                        Some((pair[0].as_usize()?, pair[1].as_u64_precise()?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                if writes.is_empty() {
                    return None;
                }
                RequestBody::Submit { writes }
            }
            "scan" => RequestBody::Scan {
                components: json
                    .get("components")?
                    .as_array()?
                    .iter()
                    .map(Json::as_usize)
                    .collect::<Option<Vec<_>>>()?,
                freshness: freshness_from_json(json.get("freshness")?)?,
            },
            "stats" => RequestBody::Stats,
            _ => return None,
        };
        Some(Request { id, body })
    }
}

impl Reply {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("id".into(), Json::u64(self.id))];
        match &self.result {
            Ok(body) => {
                pairs.push(("ok".into(), Json::Bool(true)));
                match body {
                    ReplyBody::Submitted => {}
                    ReplyBody::Values(values) => pairs.push((
                        "values".into(),
                        Json::arr(values.iter().map(|v| Json::u64(*v))),
                    )),
                    ReplyBody::Stats(stats) => pairs.push(("stats".into(), stats.clone())),
                }
            }
            Err(kind) => {
                pairs.push(("ok".into(), Json::Bool(false)));
                pairs.push(("error".into(), Json::Str(kind.as_str().into())));
            }
        }
        Json::obj(pairs)
    }

    /// Parses a reply document.
    pub fn from_json(json: &Json) -> Option<Reply> {
        let id = json.get("id")?.as_u64_precise()?;
        let ok = match json.get("ok")? {
            Json::Bool(b) => *b,
            _ => return None,
        };
        let result = if ok {
            if let Some(values) = json.get("values") {
                Ok(ReplyBody::Values(
                    values
                        .as_array()?
                        .iter()
                        .map(Json::as_u64_precise)
                        .collect::<Option<Vec<_>>>()?,
                ))
            } else if let Some(stats) = json.get("stats") {
                Ok(ReplyBody::Stats(stats.clone()))
            } else {
                Ok(ReplyBody::Submitted)
            }
        } else {
            Err(WireErrorKind::parse(json.get("error")?.as_str()?)?)
        };
        Some(Reply { id, result })
    }
}

// --- Fast-path codec ------------------------------------------------------
//
// Requests and replies dominate wire traffic, and their documents are tiny
// and rigidly shaped; building a `Json` tree (and walking one back) for
// every operation costs several times the underlying service work. The
// fast path appends straight into a byte buffer — the frame being built,
// so the bytes are written once — with a hand-rolled decimal writer, and
// parses with a strict scanner over the exact canonical byte sequence the
// encoder emits, sizing each vector by counting its items first. Anything
// the scanner does not recognize — extra whitespace, reordered keys,
// foreign fields — falls back to the general `Json` path, so the protocol
// accepted on the wire is unchanged; the fast path is purely a cheaper
// route through the common case. Tests pin the encoders byte-for-byte to
// `to_json().to_string_compact()` and the scanners to `from_json`.

/// Largest integer carried as a bare JSON number (see [`Json::u64`]).
const MAX_SAFE_NUM: u64 = 1 << 53;

/// Appends `v` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a `u64` exactly as [`Json::u64`] + `to_string_compact` would:
/// bare decimal up to 2^53, quoted decimal string above.
fn push_u64(out: &mut Vec<u8>, v: u64) {
    if v <= MAX_SAFE_NUM {
        push_decimal(out, v);
    } else {
        out.push(b'"');
        push_decimal(out, v);
        out.push(b'"');
    }
}

/// Appends `items` as a JSON array body (no brackets), comma-separated.
fn push_list<T: Copy>(out: &mut Vec<u8>, items: &[T], mut push: impl FnMut(&mut Vec<u8>, T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push(out, *item);
    }
}

/// The encoder's bytes as the `String` they are: they come from ASCII
/// literals, decimal digits and `to_string_compact`.
fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the wire encoder writes UTF-8")
}

/// A strict scanner over a canonical wire document. Every method returns
/// `None` on the first unexpected byte; callers then fall back to the
/// general `Json` parser.
struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// A bare decimal integer with no sign and no leading zero (other than
    /// `0` itself), bounded by `max`.
    fn bare_u64(&mut self, max: u64) -> Option<u64> {
        let start = self.at;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
            self.at += 1;
        }
        let len = self.at - start;
        if len == 0 || (len > 1 && self.bytes[start] == b'0') || v > max {
            return None;
        }
        Some(v)
    }

    /// A `u64` as [`push_u64`] writes it: bare up to 2^53, quoted above.
    fn u64_value(&mut self) -> Option<u64> {
        if self.peek() == Some(b'"') {
            self.at += 1;
            let v = self.bare_u64(u64::MAX)?;
            if v <= MAX_SAFE_NUM {
                // Canonical form would be bare; defer to the general path.
                return None;
            }
            self.lit("\"")?;
            Some(v)
        } else {
            self.bare_u64(MAX_SAFE_NUM)
        }
    }

    /// The number of items in the flat array whose body starts here: one
    /// more than the commas before its `]`. A capacity hint only — the
    /// parse that follows rejects a document that is not canonical — and
    /// no larger than the body could hold at one digit and one comma per
    /// item, so no frame reserves more than a canonical one of its length.
    fn flat_items(&self) -> usize {
        let rest = &self.bytes[self.at..];
        let body = &rest[..rest.iter().position(|&b| b == b']').unwrap_or(rest.len())];
        if body.is_empty() {
            return 0;
        }
        let commas = body.iter().filter(|&&b| b == b',').count();
        (commas + 1).min(body.len().div_ceil(2))
    }

    /// The number of `[c,v]` pairs in the array of pairs whose body starts
    /// here: the `[`s before its closing `]]`. A capacity hint, bounded like
    /// [`flat_items`](Scanner::flat_items) by the shortest pair, `[0,0],`.
    fn pair_items(&self) -> usize {
        let rest = &self.bytes[self.at..];
        let end = rest
            .windows(2)
            .position(|w| w == b"]]")
            .unwrap_or(rest.len());
        let body = &rest[..end];
        let opens = body.iter().filter(|&&b| b == b'[').count();
        opens.min((body.len() + 2) / 6)
    }
}

impl Request {
    /// Appends the canonical wire text to `out` (byte-identical to
    /// `self.to_json().to_string_compact()`) — the frame's payload, written
    /// in place.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        // Keys in alphabetical order, matching `to_string_compact`'s
        // canonical object serialization.
        match &self.body {
            RequestBody::Submit { writes } => {
                out.extend_from_slice(b"{\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"op\":\"submit\",\"writes\":[");
                push_list(out, writes, |out, (c, v)| {
                    out.push(b'[');
                    push_u64(out, c as u64);
                    out.push(b',');
                    push_u64(out, v);
                    out.push(b']');
                });
                out.push(b']');
            }
            RequestBody::Scan {
                components,
                freshness,
            } => {
                out.extend_from_slice(b"{\"components\":[");
                push_list(out, components, |out, c| push_u64(out, c as u64));
                out.extend_from_slice(b"],\"freshness\":");
                match freshness {
                    Freshness::Fresh => out.extend_from_slice(b"\"fresh\""),
                }
                out.extend_from_slice(b",\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"op\":\"scan\"");
            }
            RequestBody::Stats => {
                out.extend_from_slice(b"{\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"op\":\"stats\"");
            }
        }
        out.push(b'}');
    }

    /// The canonical wire text as a `String` ([`write_wire`] into a fresh
    /// buffer).
    ///
    /// [`write_wire`]: Request::write_wire
    pub fn to_wire_string(&self) -> String {
        let mut out = Vec::with_capacity(64);
        self.write_wire(&mut out);
        into_text(out)
    }

    /// The strict fast parser: accepts exactly the canonical documents
    /// [`write_wire`](Request::write_wire) emits and returns `None`
    /// for everything else (the caller falls back to [`Json::parse`] +
    /// [`from_json`](Request::from_json)).
    pub fn parse_wire(text: &str) -> Option<Request> {
        let mut s = Scanner::new(text);
        let (id, body) = if s.lit("{\"components\":[").is_some() {
            let mut components = Vec::with_capacity(s.flat_items());
            if s.peek() != Some(b']') {
                loop {
                    components.push(s.bare_u64(MAX_SAFE_NUM)? as usize);
                    if s.lit(",").is_none() {
                        break;
                    }
                }
            }
            s.lit("],\"freshness\":")?;
            s.lit("\"fresh\"")?;
            let freshness = Freshness::Fresh;
            s.lit(",\"id\":")?;
            let id = s.u64_value()?;
            s.lit(",\"op\":\"scan\"")?;
            (
                id,
                RequestBody::Scan {
                    components,
                    freshness,
                },
            )
        } else {
            s.lit("{\"id\":")?;
            let id = s.u64_value()?;
            s.lit(",\"op\":\"")?;
            if s.lit("submit\",\"writes\":[").is_some() {
                let mut writes = Vec::with_capacity(s.pair_items());
                if s.peek() != Some(b']') {
                    loop {
                        s.lit("[")?;
                        let c = s.bare_u64(MAX_SAFE_NUM)? as usize;
                        s.lit(",")?;
                        let v = s.u64_value()?;
                        s.lit("]")?;
                        writes.push((c, v));
                        if s.lit(",").is_none() {
                            break;
                        }
                    }
                }
                s.lit("]")?;
                if writes.is_empty() {
                    return None;
                }
                (id, RequestBody::Submit { writes })
            } else if s.lit("stats\"").is_some() {
                (id, RequestBody::Stats)
            } else {
                return None;
            }
        };
        s.lit("}")?;
        if !s.done() {
            return None;
        }
        Some(Request { id, body })
    }
}

impl Reply {
    /// Appends the canonical wire text to `out` (byte-identical to
    /// `self.to_json().to_string_compact()`) — the frame's payload, written
    /// in place. Stats replies carry an arbitrary JSON document and go
    /// through the general serializer.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        // Keys in alphabetical order, matching `to_string_compact`'s
        // canonical object serialization.
        match &self.result {
            Ok(ReplyBody::Submitted) => {
                out.extend_from_slice(b"{\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"ok\":true");
            }
            Ok(ReplyBody::Values(values)) => {
                out.extend_from_slice(b"{\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"ok\":true,\"values\":[");
                push_list(out, values, push_u64);
                out.push(b']');
            }
            Ok(ReplyBody::Stats(_)) => {
                return out.extend_from_slice(self.to_json().to_string_compact().as_bytes());
            }
            Err(kind) => {
                out.extend_from_slice(b"{\"error\":\"");
                out.extend_from_slice(kind.as_str().as_bytes());
                out.extend_from_slice(b"\",\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"ok\":false");
            }
        }
        out.push(b'}');
    }

    /// The canonical wire text as a `String` ([`write_wire`] into a fresh
    /// buffer).
    ///
    /// [`write_wire`]: Reply::write_wire
    pub fn to_wire_string(&self) -> String {
        let mut out = Vec::with_capacity(64);
        self.write_wire(&mut out);
        into_text(out)
    }

    /// The strict fast parser for replies; `None` falls back to the general
    /// path (stats replies always do — their payload is free-form JSON).
    pub fn parse_wire(text: &str) -> Option<Reply> {
        let mut s = Scanner::new(text);
        let (id, result) = if s.lit("{\"error\":\"").is_some() {
            let kind = if s.lit("busy").is_some() {
                WireErrorKind::Busy
            } else if s.lit("closed").is_some() {
                WireErrorKind::Closed
            } else if s.lit("bad_request").is_some() {
                WireErrorKind::BadRequest
            } else {
                return None;
            };
            s.lit("\",\"id\":")?;
            let id = s.u64_value()?;
            s.lit(",\"ok\":false")?;
            (id, Err(kind))
        } else {
            s.lit("{\"id\":")?;
            let id = s.u64_value()?;
            s.lit(",\"ok\":true")?;
            let body = if s.lit(",\"values\":[").is_some() {
                let mut values = Vec::with_capacity(s.flat_items());
                if s.peek() != Some(b']') {
                    loop {
                        values.push(s.u64_value()?);
                        if s.lit(",").is_none() {
                            break;
                        }
                    }
                }
                s.lit("]")?;
                ReplyBody::Values(values)
            } else {
                ReplyBody::Submitted
            };
            (id, Ok(body))
        };
        s.lit("}")?;
        if !s.done() {
            return None;
        }
        Some(Reply { id, result })
    }
}

/// The client's opening frame.
pub fn hello_json(version: u64) -> Json {
    Json::obj([
        ("op", Json::Str("hello".into())),
        ("version", Json::u64(version)),
    ])
}

/// Parses a hello; returns the client's version.
pub fn parse_hello(json: &Json) -> Option<u64> {
    if json.get("op")?.as_str()? != "hello" {
        return None;
    }
    json.get("version")?.as_u64_precise()
}

/// The server's accepting handshake frame.
pub fn welcome_json(components: usize, max_frame: usize) -> Json {
    Json::obj([
        ("op", Json::Str("welcome".into())),
        ("version", Json::u64(PROTOCOL_VERSION)),
        ("components", Json::Num(components as f64)),
        ("max_frame", Json::Num(max_frame as f64)),
    ])
}

/// The server's rejecting handshake frame.
pub fn reject_json(reason: &str) -> Json {
    Json::obj([
        ("op", Json::Str("reject".into())),
        ("error", Json::Str(reason.into())),
        ("server_version", Json::u64(PROTOCOL_VERSION)),
    ])
}

/// Parses the server's handshake answer: `Ok((components, max_frame))` on
/// welcome, `Err(reason)` on reject, `None` on anything else.
pub fn parse_handshake_answer(json: &Json) -> Option<Result<(usize, usize), String>> {
    match json.get("op")?.as_str()? {
        "welcome" => {
            if json.get("version")?.as_u64_precise()? != PROTOCOL_VERSION {
                return Some(Err("version_mismatch".into()));
            }
            Some(Ok((
                json.get("components")?.as_usize()?,
                json.get("max_frame")?.as_usize()?,
            )))
        }
        "reject" => Some(Err(json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("rejected")
            .to_string())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request {
                id: 7,
                body: RequestBody::Submit {
                    writes: vec![(0, 1), (5, u64::MAX)],
                },
            },
            Request {
                id: u64::MAX,
                body: RequestBody::Scan {
                    components: vec![0, 3, 3, 9],
                    freshness: Freshness::Fresh,
                },
            },
            Request {
                id: 0,
                body: RequestBody::Scan {
                    components: vec![],
                    freshness: Freshness::Fresh,
                },
            },
            Request {
                id: 42,
                body: RequestBody::Stats,
            },
        ];
        for request in requests {
            let text = request.to_json().to_string_compact();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, request, "via {text}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply {
                id: 1,
                result: Ok(ReplyBody::Submitted),
            },
            Reply {
                id: 2,
                result: Ok(ReplyBody::Values(vec![0, (1 << 53) + 7, u64::MAX])),
            },
            Reply {
                id: 3,
                result: Ok(ReplyBody::Stats(Json::obj([("x", Json::Num(1.0))]))),
            },
            Reply {
                id: 4,
                result: Err(WireErrorKind::Busy),
            },
            Reply {
                id: 5,
                result: Err(WireErrorKind::Closed),
            },
            Reply {
                id: 6,
                result: Err(WireErrorKind::BadRequest),
            },
        ];
        for reply in replies {
            let text = reply.to_json().to_string_compact();
            let back = Reply::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, reply, "via {text}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        for text in [
            r#"{}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"op":"nope"}"#,
            r#"{"id":1,"op":"submit","writes":[]}"#,
            r#"{"id":1,"op":"submit","writes":[[1]]}"#,
            r#"{"id":1,"op":"submit","writes":[[1,2,3]]}"#,
            r#"{"id":1,"op":"submit","writes":[["a",2]]}"#,
            r#"{"id":-1,"op":"stats"}"#,
            r#"{"id":1.5,"op":"stats"}"#,
            r#"{"id":1,"op":"scan","components":[0]}"#,
            r#"{"id":1,"op":"scan","components":[0],"freshness":"stale"}"#,
            r#"{"id":1,"op":"scan","components":[0],"freshness":{"stale_ns":-4}}"#,
            r#"{"id":1,"op":"scan","components":[0],"freshness":{"stale_ns":250000000}}"#,
        ] {
            let json = Json::parse(text).unwrap();
            assert!(Request::from_json(&json).is_none(), "accepted: {text}");
        }
    }

    #[test]
    fn fast_codec_matches_the_general_path_byte_for_byte() {
        let requests = [
            Request {
                id: 7,
                body: RequestBody::Submit {
                    writes: vec![(0, 1), (5, u64::MAX), (300, (1 << 53) + 9)],
                },
            },
            Request {
                id: u64::MAX,
                body: RequestBody::Scan {
                    components: vec![0, 3, 3, 9],
                    freshness: Freshness::Fresh,
                },
            },
            Request {
                id: (1 << 53) + 1,
                body: RequestBody::Scan {
                    components: vec![],
                    freshness: Freshness::Fresh,
                },
            },
            Request {
                id: 0,
                body: RequestBody::Stats,
            },
        ];
        for request in requests {
            let fast = request.to_wire_string();
            assert_eq!(fast, request.to_json().to_string_compact());
            assert_eq!(Request::parse_wire(&fast), Some(request));
        }
        let replies = [
            Reply {
                id: 1,
                result: Ok(ReplyBody::Submitted),
            },
            Reply {
                id: (1 << 53) + 77,
                result: Ok(ReplyBody::Values(vec![0, (1 << 53) + 7, u64::MAX])),
            },
            Reply {
                id: 2,
                result: Ok(ReplyBody::Values(vec![])),
            },
            Reply {
                id: 4,
                result: Err(WireErrorKind::Busy),
            },
            Reply {
                id: 5,
                result: Err(WireErrorKind::Closed),
            },
            Reply {
                id: 6,
                result: Err(WireErrorKind::BadRequest),
            },
        ];
        for reply in replies {
            let fast = reply.to_wire_string();
            assert_eq!(fast, reply.to_json().to_string_compact());
            assert_eq!(Reply::parse_wire(&fast), Some(reply));
        }
        // Stats replies carry free-form JSON: the serializer falls back to
        // the general path and the fast parser declines them.
        let stats = Reply {
            id: 3,
            result: Ok(ReplyBody::Stats(Json::obj([("x", Json::Num(1.0))]))),
        };
        assert_eq!(stats.to_wire_string(), stats.to_json().to_string_compact());
        assert_eq!(Reply::parse_wire(&stats.to_wire_string()), None);
    }

    #[test]
    fn fast_parser_declines_non_canonical_documents() {
        // All of these are either invalid or non-canonical; the strict
        // scanner must return None (the general path then decides).
        for text in [
            "",
            "{}",
            r#" {"id":1,"op":"stats"}"#,             // leading space
            r#"{"id":1,"op":"stats"} "#,             // trailing space
            r#"{"op":"stats","id":1}"#,              // reordered keys
            r#"{"id":01,"op":"stats"}"#,             // leading zero
            r#"{"id":"5","op":"stats"}"#,            // small id quoted
            r#"{"id":1,"op":"submit","writes":[]}"#, // empty batch
            r#"{"id":1,"op":"submit","writes":[[1,2],]}"#, // trailing comma
            r#"{"id":1,"op":"scan","components":[2],"freshness":"stale"}"#,
            r#"{"components":[2],"freshness":{"stale_ns":250000000},"id":1,"op":"scan"}"#,
            r#"{"id":18446744073709551616,"op":"stats"}"#, // > u64
        ] {
            assert_eq!(Request::parse_wire(text), None, "accepted: {text}");
        }
        for text in [
            "",
            r#"{"id":1,"ok":maybe}"#,
            r#"{"id":1,"ok":false,"error":"nope"}"#,
            r#"{"id":1,"ok":true,"values":[1,]}"#,
            r#"{"id":1,"ok":true}x"#,
        ] {
            assert_eq!(Reply::parse_wire(text), None, "accepted: {text}");
        }
    }

    #[test]
    fn item_counts_are_exact_when_canonical_and_bounded_by_length_otherwise() {
        let flat = |body: &str| Scanner::new(body).flat_items();
        let pairs = |body: &str| Scanner::new(body).pair_items();
        assert_eq!(flat("]"), 0);
        assert_eq!(flat("7]"), 1);
        assert_eq!(flat("0,12,\"9007199254740993\"]"), 3);
        assert_eq!(pairs("]"), 0);
        assert_eq!(pairs("[0,0]]"), 1);
        assert_eq!(pairs("[3,4],[10,\"18446744073709551615\"]]"), 2);
        // Hostile bodies reserve no more than a canonical body of the same
        // length: one item per two bytes, one pair per six.
        assert_eq!(flat(&",".repeat(1000)), 500);
        assert_eq!(pairs(&"[".repeat(1200)), 200);
    }

    #[test]
    fn handshake_frames_round_trip() {
        assert_eq!(parse_hello(&hello_json(PROTOCOL_VERSION)), Some(1));
        assert_eq!(
            parse_handshake_answer(&welcome_json(16, 4096)),
            Some(Ok((16, 4096)))
        );
        assert_eq!(
            parse_handshake_answer(&reject_json("version_mismatch")),
            Some(Err("version_mismatch".into()))
        );
    }
}
