//! Property tests of the HTTP framing layer (`ikrq_server::http`).
//!
//! Three families of properties:
//!
//! * **robustness** — arbitrary byte streams, chunked arbitrarily, never
//!   panic the parser: every outcome is a parsed request, a recoverable
//!   protocol error (which the server answers and closes on), or a clean
//!   close;
//! * **framing invariance** — a valid request parses to the same thing no
//!   matter how the bytes are split across TCP reads, how headers are
//!   ordered, or how header names are cased;
//! * **reuse safety** — two pipelined requests in one byte stream parse
//!   back-to-back with an exact boundary, then the stream reports the
//!   clean close.

use ikrq_server::http::{HttpConnection, HttpError, Request};
use proptest::collection;
use proptest::prelude::*;
use std::io::Read;

// ---------------------------------------------------------------------
// A reader that hands bytes out in caller-chosen slice sizes, simulating
// TCP segmentation boundaries the kernel never guarantees.
// ---------------------------------------------------------------------

struct ChunkedReader {
    data: Vec<u8>,
    position: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            position: 0,
            chunks,
            next_chunk: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.position >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        let chunk = if self.chunks.is_empty() {
            usize::MAX
        } else {
            let chunk = self.chunks[self.next_chunk].max(1);
            self.next_chunk = (self.next_chunk + 1) % self.chunks.len();
            chunk
        };
        let n = chunk.min(buf.len()).min(self.data.len() - self.position);
        buf[..n].copy_from_slice(&self.data[self.position..self.position + n]);
        self.position += n;
        Ok(n)
    }
}

fn parse_chunked(data: &[u8], chunks: &[usize], max_body: usize) -> Result<Request, HttpError> {
    HttpConnection::new(ChunkedReader::new(data.to_vec(), chunks.to_vec())).read_request(max_body)
}

// ---------------------------------------------------------------------
// Valid-request generator
// ---------------------------------------------------------------------

const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE"];
const HEADER_NAMES: &[&str] = &[
    "x-trace",
    "x-tag",
    "accept",
    "user-agent",
    "x-shard",
    "host",
];

#[derive(Debug, Clone)]
struct WireRequest {
    method: String,
    target: String,
    version_minor: u8,
    /// `(name, value, case_mask)` — the mask flips name characters to
    /// uppercase when rendered, exercising case-insensitive lookup.
    headers: Vec<(String, String, u32)>,
    connection: Option<String>,
    body: Vec<u8>,
}

impl WireRequest {
    fn render(&self) -> Vec<u8> {
        let mut wire = format!(
            "{} {} HTTP/1.{}\r\n",
            self.method, self.target, self.version_minor
        )
        .into_bytes();
        for (name, value, mask) in &self.headers {
            let cased: String = name
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if mask & (1 << (i % 32)) != 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            wire.extend_from_slice(format!("{cased}: {value}\r\n").as_bytes());
        }
        if let Some(connection) = &self.connection {
            wire.extend_from_slice(format!("Connection: {connection}\r\n").as_bytes());
        }
        wire.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        wire.extend_from_slice(&self.body);
        wire
    }
}

fn wire_request() -> impl Strategy<Value = WireRequest> {
    (
        0usize..METHODS.len(),
        "/[a-z]{1,8}",
        proptest::option::of("[a-z]{1,6}=[0-9]{1,4}"),
        0u8..=1,
        collection::vec(
            (
                0usize..HEADER_NAMES.len(),
                "[a-zA-Z0-9 ]{0,10}",
                0u32..u32::MAX,
            ),
            0..5,
        ),
        proptest::option::of(prop_oneof![
            Just("close".to_string()),
            Just("keep-alive".to_string()),
            Just("Keep-Alive".to_string()),
            Just("CLOSE".to_string()),
            Just("TE, keep-alive".to_string()),
            Just("close, TE".to_string()),
            Just("keep-alive, close".to_string()),
        ]),
        collection::vec(0u8..=255, 0..48),
    )
        .prop_map(
            |(method, path, query, version_minor, headers, connection, body)| WireRequest {
                method: METHODS[method].to_string(),
                target: match &query {
                    Some(query) => format!("{path}?{query}"),
                    None => path,
                },
                version_minor,
                headers: headers
                    .into_iter()
                    .map(|(name, value, mask)| {
                        (
                            HEADER_NAMES[name].to_string(),
                            value.trim().to_string(),
                            mask,
                        )
                    })
                    .collect(),
                connection,
                body,
            },
        )
}

/// The reference keep-alive truth table, independent of the parser:
/// `close` anywhere in the list wins (RFC 9112 §9.6), then `keep-alive`,
/// then the version default.
fn expected_keep_alive(request: &WireRequest) -> bool {
    if let Some(value) = request.connection.as_deref() {
        let tokens: Vec<&str> = value.split(',').map(str::trim).collect();
        if tokens.iter().any(|t| t.eq_ignore_ascii_case("close")) {
            return false;
        }
        if tokens.iter().any(|t| t.eq_ignore_ascii_case("keep-alive")) {
            return true;
        }
    }
    request.version_minor >= 1
}

fn assert_matches_spec(parsed: &Request, spec: &WireRequest) -> Result<(), TestCaseError> {
    prop_assert_eq!(&parsed.method, &spec.method);
    prop_assert_eq!(parsed.version_minor, spec.version_minor);
    let (path, query) = match spec.target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (spec.target.as_str(), None),
    };
    prop_assert_eq!(&parsed.path, path);
    prop_assert_eq!(parsed.query.as_deref(), query);
    prop_assert_eq!(&parsed.body, &spec.body);
    prop_assert_eq!(parsed.wants_keep_alive(), expected_keep_alive(spec));
    // Every generated header resolves, case-insensitively, to its trimmed
    // value. (Duplicate names resolve to the first occurrence; the spec's
    // first occurrence wins on both sides because order is preserved.)
    let mut seen = std::collections::HashSet::new();
    for (name, value, _) in &spec.headers {
        if seen.insert(name.clone()) {
            prop_assert_eq!(
                parsed.header(name),
                Some(value.as_str()),
                "header `{}` lost or mangled",
                name
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: whatever bytes arrive, in whatever slices, the parser
    /// returns a request or a classified error — it never panics, and a
    /// server loop driving it always ends in a response or a clean close.
    #[test]
    fn arbitrary_byte_streams_never_panic(
        data in collection::vec(0u8..=255, 0..600),
        chunks in collection::vec(1usize..64, 0..8),
        max_body in 0usize..600,
    ) {
        let mut conn = HttpConnection::new(ChunkedReader::new(data, chunks));
        // Drive it like the server's session loop: keep parsing until the
        // stream errors or closes.
        for _ in 0..8 {
            match conn.read_request(max_body) {
                Ok(request) => prop_assert!(request.body.len() <= max_body),
                // Protocol errors get an error response and a close; I/O
                // errors and the clean close end the session.
                Err(HttpError::Malformed(_))
                | Err(HttpError::PayloadTooLarge { .. })
                | Err(HttpError::Closed)
                | Err(HttpError::Io(_)) => break,
            }
        }
    }

    /// Noise stapled after a valid head: the valid request parses, the
    /// junk never corrupts it retroactively.
    #[test]
    fn a_valid_request_parses_despite_trailing_noise(
        spec in wire_request(),
        noise in collection::vec(0u8..=255, 0..200),
        chunks in collection::vec(1usize..32, 1..6),
    ) {
        let mut wire = spec.render();
        wire.extend_from_slice(&noise);
        let mut conn = HttpConnection::new(ChunkedReader::new(wire, chunks));
        let parsed = conn.read_request(4096).expect("valid request parses");
        assert_matches_spec(&parsed, &spec)?;
    }

    /// Framing invariance: the same request split across different TCP
    /// read boundaries parses identically — byte-for-byte bodies, header
    /// lookup case-insensitive, keep-alive per the truth table.
    #[test]
    fn chunking_does_not_change_what_parses(
        spec in wire_request(),
        chunks_a in collection::vec(1usize..24, 1..8),
        chunks_b in collection::vec(1usize..24, 1..8),
    ) {
        let wire = spec.render();
        let a = parse_chunked(&wire, &chunks_a, 4096).expect("chunking A parses");
        let b = parse_chunked(&wire, &chunks_b, 4096).expect("chunking B parses");
        assert_matches_spec(&a, &spec)?;
        assert_matches_spec(&b, &spec)?;
        prop_assert_eq!(a.headers, b.headers, "header lists diverged across chunkings");
    }

    /// Reuse safety: two pipelined requests in one stream parse
    /// back-to-back with an exact boundary (no byte lost to the reader
    /// buffer), and the stream then reports the clean close the server's
    /// session loop keys on.
    #[test]
    fn pipelined_requests_frame_exactly(
        first in wire_request(),
        second in wire_request(),
        chunks in collection::vec(1usize..24, 1..8),
    ) {
        let mut wire = first.render();
        wire.extend_from_slice(&second.render());
        let mut conn = HttpConnection::new(ChunkedReader::new(wire, chunks));
        let parsed_first = conn.read_request(4096).expect("first request parses");
        assert_matches_spec(&parsed_first, &first)?;
        let parsed_second = conn.read_request(4096).expect("second request parses");
        assert_matches_spec(&parsed_second, &second)?;
        prop_assert!(
            matches!(conn.read_request(4096), Err(HttpError::Closed)),
            "exhausted stream must report the clean close"
        );
    }
}
