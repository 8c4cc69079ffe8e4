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
// fast path makes one pass over a message's bytes in either direction (the
// parser also counts each array it sizes, a word at a time).
//
// The encoder reserves room in the frame being built once per message, by
// an upper bound on the message's length, and appends: literals as
// fixed-size copies, numbers as four- or eight-digit words built from a
// `00`–`99` digit-pair table, four digits per division, each stored whole
// and cut back to its length, so no number costs a `memcpy` call. The
// parser is a strict scanner over the exact canonical byte sequence the
// encoder emits: literals compare as fixed-size arrays (a single byte as
// one compare); numbers parse eight digits at a time from little-endian
// words (SWAR), up to fifteen from one sixteen-byte read, with checked
// arithmetic from the seventeenth digit so a twenty-digit number above
// `u64::MAX` declines instead of wrapping; and each vector is sized by an
// exact item count that reads the array a word at a time.
//
// The bytes on the wire are unchanged: the encoders spell out the same
// canonical serialization `to_json().to_string_compact()` performs — keys
// sorted, no whitespace, `Json::u64`'s number/string switch at 2^53 — and
// tests pin them to it byte for byte and the scanners to `from_json`. The
// scanner reads bytes, not text: all it accepts is ASCII, so UTF-8 is
// checked only when it declines and a frame takes the general route
// (`from_wire`). Anything it does not recognize — extra whitespace,
// reordered keys, foreign fields — takes that route, so the protocol
// accepted on the wire is unchanged; the fast path is purely a cheaper
// route through the common case.

/// Largest integer carried as a bare JSON number (see [`Json::u64`]).
const MAX_SAFE_NUM: u64 = 1 << 53;

/// The longest a `u64` is on the wire: twenty digits between quotes.
const MAX_NUMBER_LEN: usize = 22;

/// At least the literal text of every fast-path message, numbers and list
/// punctuation aside (a scan request's, the longest, is 55 bytes).
const MAX_LITERAL_LEN: usize = 64;

/// `"00"` through `"99"`: the encoder writes digits a pair at a time.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// `10^k`, for the `k` ≤ 8 digits one word holds and for counting the
/// digits of a `u32`.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// `10^8`: the numbers one eight-byte word spells.
const E8: u64 = 100_000_000;

/// How many decimal digits `v` has: about `bits × log10 2` (as
/// `bits × 1233 / 4096`), corrected by one comparison. (`v | 1` has as many
/// digits as `v` and at least one bit.)
fn decimal_len(v: u32) -> usize {
    let v = v | 1;
    let bits = 32 - v.leading_zeros() as usize;
    let guess = (bits * 1233) >> 12;
    guess + usize::from(u64::from(v) >= POW10[guess])
}

/// `v` < 10^8 as eight ASCII digits, leading zeros included, the first in
/// the lowest byte: four digits per division, two per table lookup.
fn eight_digits(v: u32) -> u64 {
    let (high, low) = ((v / 10_000) as usize, (v % 10_000) as usize);
    four_digits(high) | four_digits(low) << 32
}

/// `v` < 10^4 as four ASCII digits, like [`eight_digits`]: one division,
/// two table lookups.
fn four_digits(v: usize) -> u64 {
    let pair = |p: usize| u64::from(u16::from_le_bytes(DIGIT_PAIRS[p]));
    pair(v / 100) | pair(v % 100) << 16
}

/// `v`, if the `len` digits that spelled it, the first of them `first`, are
/// a canonical number: at least one, and no leading zero.
fn canonical(len: usize, first: u8, v: u64) -> Option<u64> {
    (len == 1 || (len > 1 && first != b'0')).then_some(v)
}

/// `byte` in every lane of a word.
const fn lanes(byte: u8) -> u64 {
    byte as u64 * 0x0101_0101_0101_0101
}

/// How many of `word`'s bytes, first byte lowest, are decimal digits before
/// the first that is not.
fn leading_digits(word: u64) -> usize {
    // A lane's high bit is set by `b - '0'` when b < '0' or b ≥ 0xB0, and
    // by `b + 0x46` when b > '9'. A borrow or carry only spills upward, out
    // of a non-digit lane: every lane up to the first non-digit is exact.
    let not_digit = (word.wrapping_sub(lanes(b'0')) | word.wrapping_add(lanes(0x46))) & lanes(0x80);
    (not_digit.trailing_zeros() / 8) as usize
}

/// The number `word`'s first `k` ≤ 8 bytes spell (digits all; `k` = 0
/// spells 0).
fn digits_value(word: u64, k: usize) -> u64 {
    // Shifted so the k digits end the word and the lanes before them read
    // as leading zeros (the bytes after them fall off); `& 0x0F` turns an
    // ASCII digit into its value.
    let v = word.checked_shl(8 * (8 - k) as u32).unwrap_or(0) & lanes(0x0F);
    // Neighbouring lanes merge into two-, four- and eight-digit numbers,
    // each by one multiply (`x · 10^d · 2^w + x`, shifted down by w); no
    // lane ever exceeds its width, so nothing carries.
    let v = (v.wrapping_mul(10 << 8 | 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let v = (v.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    v.wrapping_mul(10_000 << 32 | 1) >> 32
}

/// `word`'s bytes equal to `byte`, each flagged by its lane's high bit.
/// Exact: nothing carries between lanes.
fn lanes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ lanes(byte);
    !(((x & lanes(0x7F)) + lanes(0x7F)) | x | lanes(0x7F))
}

/// How many lanes `flags` (a [`lanes_equal`] result) flags: the flags,
/// moved to the low bit of their lanes, summed into the top lane by one
/// multiply (a popcount without the instruction).
fn flagged(flags: u64) -> usize {
    ((flags >> 7).wrapping_mul(lanes(1)) >> 56) as usize
}

/// The `needle`s in `bytes` before its first `stop` (or its end), and the
/// offset of that stop (or the length): one pass, a word at a time.
fn count_until(bytes: &[u8], needle: u8, stop: u8) -> (usize, usize) {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut count = 0;
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let needles = lanes_equal(word, needle);
        let stops = lanes_equal(word, stop);
        if stops != 0 {
            let before_stop = (stops & stops.wrapping_neg()) - 1;
            let at = 8 * i + (stops.trailing_zeros() / 8) as usize;
            return (count + flagged(needles & before_stop), at);
        }
        count += flagged(needles);
    }
    let tail_at = bytes.len() - tail.len();
    for (i, &b) in tail.iter().enumerate() {
        if b == stop {
            return (count, tail_at + i);
        }
        count += usize::from(b == needle);
    }
    (count, bytes.len())
}

/// Reserves room for a message of `numbers` numbers, `items` of them list
/// items (at most four bytes of punctuation each: `[`, `,`, `]`, `,`), so
/// that writing it reallocates nothing.
fn reserve_message(out: &mut Vec<u8>, numbers: usize, items: usize) {
    out.reserve(MAX_LITERAL_LEN + numbers * MAX_NUMBER_LEN + items * 4);
}

/// Appends the first `len` bytes of `word`: all eight go in as one store,
/// and the length is cut back.
fn push_word(out: &mut Vec<u8>, word: u64, len: usize) {
    out.extend_from_slice(&word.to_le_bytes());
    out.truncate(out.len() - 8 + len);
}

/// Appends `v` < 10^8 in decimal, without leading zeros.
fn push_leading(out: &mut Vec<u8>, v: u32) {
    let len = decimal_len(v);
    // The leading zeros are the word's low bytes.
    push_word(out, eight_digits(v) >> (8 * (8 - len)), len);
}

/// Appends `v` in decimal: below 10^4 as [`four_digits`], below 10^8 as
/// [`eight_digits`], both without their leading zeros.
fn push_decimal(out: &mut Vec<u8>, v: u64) {
    if v < 10_000 {
        let v = v as usize;
        let len = 1 + usize::from(v >= 10) + usize::from(v >= 100) + usize::from(v >= 1_000);
        push_word(out, four_digits(v) >> (8 * (4 - len)), len);
    } else if v < E8 {
        push_leading(out, v as u32);
    } else {
        push_long(out, v);
    }
}

/// Appends `v` ≥ 10^8 in decimal, in eight-digit words: the first without
/// its leading zeros, the others whole. (Out of line: the short paths,
/// which components, ids and most values take, then need few registers.)
#[inline(never)]
fn push_long(out: &mut Vec<u8>, v: u64) {
    let high = v / E8;
    if high < E8 {
        push_leading(out, high as u32);
    } else {
        push_leading(out, (high / E8) as u32);
        push_word(out, eight_digits((high % E8) as u32), 8);
    }
    push_word(out, eight_digits((v % E8) as u32), 8);
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
/// literals, decimal digits and `to_string_compact`. Shrunk to fit, so the
/// text keeps none of the room [`reserve_message`]'s bound left over,
/// which can be several times the text.
fn into_text(mut bytes: Vec<u8>) -> String {
    bytes.shrink_to_fit();
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
    fn new(bytes: &'a [u8]) -> Scanner<'a> {
        Scanner { bytes, at: 0 }
    }

    fn lit<const N: usize>(&mut self, lit: &[u8; N]) -> Option<()> {
        let next: &[u8; N] = self.bytes[self.at..].first_chunk()?;
        (next == lit).then(|| self.at += N)
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// A bare decimal integer with no sign and no leading zero (other than
    /// `0` itself) that fits a `u64`. Up to fifteen digits come from one
    /// sixteen-byte read: the first word's run, and only if it is all
    /// digits the second's. (Inlined, like its two callers, into each list
    /// loop: a call per number costs about as much as the parse.)
    #[inline(always)]
    fn digits(&mut self) -> Option<u64> {
        let start = self.at;
        let Some(bytes) = self.bytes[start..].first_chunk::<16>() else {
            return self.long_digits();
        };
        let wide = u128::from_le_bytes(*bytes);
        let first = wide as u64;
        let k = leading_digits(first);
        let v = digits_value(first, k);
        if k < 8 {
            self.at += k;
            return canonical(k, first as u8, v);
        }
        let second = (wide >> 64) as u64;
        let more = leading_digits(second);
        if more == 8 {
            return self.long_digits();
        }
        self.at += 8 + more;
        canonical(
            8 + more,
            first as u8,
            v * POW10[more] + digits_value(second, more),
        )
    }

    /// [`digits`](Scanner::digits) near the end of the document or past
    /// fifteen digits: a word at a time while eight bytes remain, then a
    /// byte at a time.
    fn long_digits(&mut self) -> Option<u64> {
        let start = self.at;
        let mut v: u64 = 0;
        while let Some(word) = self.bytes[self.at..].first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            let k = leading_digits(word);
            // Checked: from the twentieth digit on, a number can exceed
            // `u64::MAX`.
            v = v
                .checked_mul(POW10[k])?
                .checked_add(digits_value(word, k))?;
            self.at += k;
            if k < 8 {
                break;
            }
        }
        // (After a word that ended the run, the next byte is no digit.)
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.at) {
            v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.at += 1;
        }
        let first = self.bytes.get(start).copied().unwrap_or(0);
        canonical(self.at - start, first, v)
    }

    /// A bare decimal integer bounded by `max`.
    #[inline(always)]
    fn bare_u64(&mut self, max: u64) -> Option<u64> {
        self.digits().filter(|&v| v <= max)
    }

    /// A `u64` as [`push_u64`] writes it: bare up to 2^53, quoted above.
    #[inline(always)]
    fn u64_value(&mut self) -> Option<u64> {
        if self.lit(b"\"").is_none() {
            return self.bare_u64(MAX_SAFE_NUM);
        }
        let v = self.digits()?;
        if v <= MAX_SAFE_NUM {
            // Canonical form would be bare; defer to the general path.
            return None;
        }
        self.lit(b"\"")?;
        Some(v)
    }

    /// The rest of an array whose `[` was just read — comma-separated
    /// `item`s, then `]` — collected into a vector with room for `count`.
    fn list<T>(
        &mut self,
        count: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::with_capacity(count);
        if self.lit(b"]").is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.lit(b",").is_none() {
                break;
            }
        }
        self.lit(b"]")?;
        Some(items)
    }

    /// The number of items in the flat array whose body starts here: one
    /// more than the commas before its `]`. A capacity hint only — the
    /// parse that follows rejects a document that is not canonical — and
    /// no larger than the body could hold at one digit and one comma per
    /// item, so no frame reserves more than a canonical one of its length.
    fn flat_items(&self) -> usize {
        let (commas, body) = count_until(&self.bytes[self.at..], b',', b']');
        if body == 0 {
            return 0;
        }
        (commas + 1).min(body.div_ceil(2))
    }

    /// The number of `[c,v]` pairs in the array of pairs whose body starts
    /// here and which closes the document: the `[`s before the `}`. A
    /// capacity hint, bounded like [`flat_items`](Scanner::flat_items) by
    /// the shortest pair, `[0,0],`.
    fn pair_items(&self) -> usize {
        let (opens, len) = count_until(&self.bytes[self.at..], b'[', b'}');
        opens.min(len / 6)
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
                reserve_message(out, 1 + 2 * writes.len(), writes.len());
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
                reserve_message(out, 1 + components.len(), components.len());
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
                reserve_message(out, 1, 0);
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
        let mut out = Vec::new();
        self.write_wire(&mut out);
        into_text(out)
    }

    /// The strict fast parser: accepts exactly the canonical documents
    /// [`write_wire`](Request::write_wire) emits, as bytes or text, and
    /// returns `None` for everything else (the caller falls back to
    /// [`Json::parse`] + [`from_json`](Request::from_json)).
    pub fn parse_wire(wire: &(impl AsRef<[u8]> + ?Sized)) -> Option<Request> {
        let mut s = Scanner::new(wire.as_ref());
        let (id, body) = if s.lit(b"{\"components\":[").is_some() {
            let components = s.list(s.flat_items(), |s| {
                s.bare_u64(MAX_SAFE_NUM).map(|c| c as usize)
            })?;
            s.lit(b",\"freshness\":\"fresh\",\"id\":")?;
            let id = s.u64_value()?;
            s.lit(b",\"op\":\"scan\"")?;
            (
                id,
                RequestBody::Scan {
                    components,
                    freshness: Freshness::Fresh,
                },
            )
        } else {
            s.lit(b"{\"id\":")?;
            let id = s.u64_value()?;
            s.lit(b",\"op\":\"")?;
            if s.lit(b"submit\",\"writes\":[").is_some() {
                let writes = s.list(s.pair_items(), |s| {
                    s.lit(b"[")?;
                    let c = s.bare_u64(MAX_SAFE_NUM)? as usize;
                    s.lit(b",")?;
                    let v = s.u64_value()?;
                    s.lit(b"]")?;
                    Some((c, v))
                })?;
                if writes.is_empty() {
                    return None;
                }
                (id, RequestBody::Submit { writes })
            } else if s.lit(b"stats\"").is_some() {
                (id, RequestBody::Stats)
            } else {
                return None;
            }
        };
        s.lit(b"}")?;
        s.done().then_some(Request { id, body })
    }

    /// Decodes a request payload: the strict scanner, and for a document it
    /// declines the general route, which is where the payload must prove to
    /// be UTF-8.
    pub(crate) fn from_wire(payload: &[u8]) -> Option<Request> {
        Request::parse_wire(payload).or_else(|| {
            let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
            Request::from_json(&json)
        })
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
                reserve_message(out, 1, 0);
                out.extend_from_slice(b"{\"id\":");
                push_u64(out, self.id);
                out.extend_from_slice(b",\"ok\":true");
            }
            Ok(ReplyBody::Values(values)) => {
                reserve_message(out, 1 + values.len(), values.len());
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
                reserve_message(out, 1, 0);
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
        let mut out = Vec::new();
        self.write_wire(&mut out);
        into_text(out)
    }

    /// The strict fast parser for replies, over bytes or text; `None` falls
    /// back to the general path (stats replies always do — their payload is
    /// free-form JSON).
    pub fn parse_wire(wire: &(impl AsRef<[u8]> + ?Sized)) -> Option<Reply> {
        let mut s = Scanner::new(wire.as_ref());
        let (id, result) = if s.lit(b"{\"error\":\"").is_some() {
            let kind = if s.lit(b"busy").is_some() {
                WireErrorKind::Busy
            } else if s.lit(b"closed").is_some() {
                WireErrorKind::Closed
            } else if s.lit(b"bad_request").is_some() {
                WireErrorKind::BadRequest
            } else {
                return None;
            };
            s.lit(b"\",\"id\":")?;
            let id = s.u64_value()?;
            s.lit(b",\"ok\":false")?;
            (id, Err(kind))
        } else {
            s.lit(b"{\"id\":")?;
            let id = s.u64_value()?;
            s.lit(b",\"ok\":true")?;
            let body = if s.lit(b",\"values\":[").is_some() {
                ReplyBody::Values(s.list(s.flat_items(), Scanner::u64_value)?)
            } else {
                ReplyBody::Submitted
            };
            (id, Ok(body))
        };
        s.lit(b"}")?;
        s.done().then_some(Reply { id, result })
    }

    /// Decodes a reply payload like [`Request::from_wire`].
    pub(crate) fn from_wire(payload: &[u8]) -> Option<Reply> {
        Reply::parse_wire(payload).or_else(|| {
            let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
            Reply::from_json(&json)
        })
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
        let flat = |body: &str| Scanner::new(body.as_bytes()).flat_items();
        let pairs = |body: &str| Scanner::new(body.as_bytes()).pair_items();
        assert_eq!(flat("]"), 0);
        assert_eq!(flat("7]"), 1);
        assert_eq!(flat("0,12,\"9007199254740993\"]"), 3);
        assert_eq!(pairs("]"), 0);
        assert_eq!(pairs("[0,0]]"), 1);
        assert_eq!(pairs("[3,4],[10,\"18446744073709551615\"]]"), 2);
        // Counted a word at a time: the `]` (or `}`) may fall in any lane of
        // any word, and nothing after it counts.
        for n in 1..=20 {
            let values: Vec<String> = (0..n).map(|i| (i * 123_457).to_string()).collect();
            let body = values.join(",");
            assert_eq!(flat(&format!("{body}]}}")), n);
            assert_eq!(
                flat(&format!("{body}],\"freshness\":\"fresh\",\"id\":7}}")),
                n
            );
            let writes: Vec<String> = values.iter().map(|v| format!("[{v},{v}]")).collect();
            assert_eq!(pairs(&format!("{}]}}", writes.join(","))), n);
        }
        // Hostile bodies reserve no more than a canonical body of the same
        // length: one item per two bytes, one pair per six.
        assert_eq!(flat(&",".repeat(1000)), 500);
        assert_eq!(pairs(&"[".repeat(1200)), 200);
    }

    #[test]
    fn word_kernels_agree_with_a_byte_at_a_time_reading() {
        // Every byte value in every lane, behind digits and before more.
        for lane in 0..8 {
            for byte in 0..=u8::MAX {
                let mut bytes = *b"31415926";
                bytes[lane] = byte;
                let word = u64::from_le_bytes(bytes);
                let k = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
                assert_eq!(leading_digits(word), k, "{bytes:?}");
                if k > 0 {
                    let text = std::str::from_utf8(&bytes[..k]).unwrap();
                    assert_eq!(digits_value(word, k), text.parse::<u64>().unwrap());
                }
                let flags = lanes_equal(word, byte);
                for (i, b) in bytes.iter().enumerate() {
                    assert_eq!(flags >> (8 * i) & 0xFF, if *b == byte { 0x80 } else { 0 });
                }
            }
        }
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
