//! The one binary codec of venue files: a checked little-endian reader, the
//! section framing, the kind codes, and the string and grouped-list writers
//! that the record body ([`crate::binary`]), the columnar section
//! ([`crate::columnar`]) and the index section ([`crate::index_section`])
//! share.
//!
//! Every read is checked. A short buffer, an implausible count or bad UTF-8
//! comes back as a plain `String` that names the part being read and the
//! field, never as a panic; each caller decides what it means (a hard load
//! error for the record body, a degradation reason for the advisory
//! sections).
//!
//! A section is framed as magic, `u16` version, `u32` body length, body and
//! a `u64` [`section_checksum`] of the body. A loader uses exactly one
//! version of each section: the one this build writes.

use bytes::{BufMut, BytesMut};
use indoor_geom::{Point, Rect};
use indoor_keywords::WordId;
use indoor_space::{DoorKind, PartitionKind};

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A checked little-endian reader over one part of a venue file. Its
/// per-field reads are `#[inline]`: they run in the decode loops of the
/// other modules, and section decode at 10⁴ partitions measured about 10 %
/// slower without.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// The part being read, as messages name it (`payload`, `columnar
    /// body`, `index section`).
    part: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], part: &'static str) -> Self {
        Reader { buf, part }
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Takes `n × width` bytes off the front as one borrowed block: the
    /// bulk-read primitive behind every fixed-stride column.
    #[inline]
    pub(crate) fn block(&mut self, n: usize, width: usize, what: &str) -> Result<&'a [u8], String> {
        let len = n
            .checked_mul(width)
            .ok_or_else(|| format!("implausible count {n} for {what}"))?;
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or_else(|| self.truncated(what))?;
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let (head, rest) = self
            .buf
            .split_first_chunk()
            .ok_or_else(|| self.truncated(what))?;
        self.buf = rest;
        Ok(*head)
    }

    fn truncated(&self, what: &str) -> String {
        format!("truncated {} while reading {what}", self.part)
    }

    #[inline]
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, String> {
        self.array(what).map(u8::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, String> {
        self.array(what).map(u16::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        self.array(what).map(u32::from_le_bytes)
    }

    #[inline]
    pub(crate) fn i32(&mut self, what: &str) -> Result<i32, String> {
        self.array(what).map(i32::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.array(what).map(u64::from_le_bytes)
    }

    #[inline]
    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u32` byte length followed by that many bytes of UTF-8.
    pub(crate) fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.block(len, 1, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| format!("invalid UTF-8 in {what}"))
    }

    /// A `u8` tag (0 absent, 1 present), then the string when present.
    pub(crate) fn optional_string(&mut self, what: &str) -> Result<Option<String>, String> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => self.string(what).map(Some),
            other => Err(format!("invalid optional-string tag {other} in {what}")),
        }
    }

    /// A `u32` element count. Every element takes at least one byte, so a
    /// count larger than the bytes left is a corruption, not a huge venue.
    #[inline]
    pub(crate) fn count(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > self.buf.len() {
            return Err(format!("implausible count {n} for {what}"));
        }
        Ok(n)
    }

    pub(crate) fn u32_list(&mut self, n: usize, what: &str) -> Result<Vec<u32>, String> {
        Ok(self
            .block(n, 4, what)?
            .chunks_exact(4)
            .map(|c| row_u32(c, 0))
            .collect())
    }

    pub(crate) fn u64_list(&mut self, n: usize, what: &str) -> Result<Vec<u64>, String> {
        Ok(self
            .block(n, 8, what)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte field")))
            .collect())
    }

    pub(crate) fn i32_list(&mut self, n: usize, what: &str) -> Result<Vec<i32>, String> {
        Ok(self
            .block(n, 4, what)?
            .chunks_exact(4)
            .map(|c| row_u32(c, 0) as i32)
            .collect())
    }

    /// Decodes `n` rectangles as one 32-byte-stride block.
    pub(crate) fn rect_list(&mut self, n: usize, what: &str) -> Result<Vec<Rect>, String> {
        self.block(n, 32, what)?
            .chunks_exact(32)
            .map(|c| {
                let corner = |at| Point::new(row_f64(c, at), row_f64(c, at + 8));
                Rect::new(corner(0), corner(16))
                    .map_err(|e| format!("bad rectangle in {what}: {e}"))
            })
            .collect()
    }

    pub(crate) fn rect(&mut self, what: &str) -> Result<Rect, String> {
        self.rect_list(1, what)
            .map(|mut v| v.pop().expect("one rectangle"))
    }
}

/// Reads the little-endian `u32` at byte offset `at` of a fixed-stride row.
#[inline]
pub(crate) fn row_u32(row: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(row[at..at + 4].try_into().expect("4-byte field"))
}

/// Reads the little-endian `f64` at byte offset `at` of a fixed-stride row.
#[inline]
pub(crate) fn row_f64(row: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(row[at..at + 8].try_into().expect("8-byte field"))
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// A `u32` byte length followed by the UTF-8 bytes.
pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// A `u8` tag (0 absent, 1 present), then the string when present.
pub(crate) fn put_optional_string(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.put_u8(1);
            put_string(buf, s);
        }
        None => buf.put_u8(0),
    }
}

/// Four `f64`s: min x, min y, max x, max y.
pub(crate) fn put_rect(buf: &mut BytesMut, r: &Rect) {
    for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
        buf.put_f64_le(v);
    }
}

/// A `u32` count, then the values.
pub(crate) fn put_u32_list(buf: &mut BytesMut, values: impl ExactSizeIterator<Item = u32>) {
    buf.put_u32_le(values.len() as u32);
    for v in values {
        buf.put_u32_le(v);
    }
}

/// A grouped id list: the row count, then per row its key, its length and
/// its values.
pub(crate) fn put_grouped<I: ExactSizeIterator<Item = u32>>(
    buf: &mut BytesMut,
    rows: impl ExactSizeIterator<Item = (u32, I)>,
) {
    buf.put_u32_le(rows.len() as u32);
    for (key, values) in rows {
        buf.put_u32_le(key);
        put_u32_list(buf, values);
    }
}

/// A word-keyed row of ids as [`put_grouped`] takes it.
pub(crate) fn word_row(
    (w, row): (WordId, &[WordId]),
) -> (u32, impl ExactSizeIterator<Item = u32> + '_) {
    (w.0, row.iter().map(|x| x.0))
}

// ---------------------------------------------------------------------
// Kind codes
// ---------------------------------------------------------------------

/// A kind stored as a `u8` code: its position in [`KindCode::CODES`].
pub(crate) trait KindCode: Copy + PartialEq + 'static {
    /// Every kind, in code order.
    const CODES: &'static [Self];
    /// The noun messages use for the kind.
    const NOUN: &'static str;
}

impl KindCode for PartitionKind {
    const CODES: &'static [Self] = &[
        PartitionKind::Room,
        PartitionKind::Hallway,
        PartitionKind::Staircase,
        PartitionKind::Elevator,
    ];
    const NOUN: &'static str = "partition";
}

impl KindCode for DoorKind {
    const CODES: &'static [Self] = &[DoorKind::Normal, DoorKind::Stair, DoorKind::Elevator];
    const NOUN: &'static str = "door";
}

pub(crate) fn kind_code<K: KindCode>(kind: K) -> u8 {
    K::CODES
        .iter()
        .position(|&k| k == kind)
        .expect("every kind has a code") as u8
}

pub(crate) fn kind_of_code<K: KindCode>(code: u8) -> Result<K, String> {
    K::CODES
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("unknown {} kind code {code}", K::NOUN))
}

// ---------------------------------------------------------------------
// Section framing
// ---------------------------------------------------------------------

/// Magic, version and body length before a section body.
pub(crate) const HEADER_LEN: usize = 8 + 2 + 4;
/// The checksum after a section body.
const TRAILER_LEN: usize = 8;

/// One kind of framed section.
pub(crate) struct Section {
    pub(crate) magic: &'static [u8; 8],
    /// The version this build writes, and the only one it reads.
    pub(crate) version: u16,
    /// The section's name in messages.
    pub(crate) name: &'static str,
}

/// Appends a framed section: magic, version, body length, body, checksum.
pub(crate) fn frame_section(buf: &mut BytesMut, section: &Section, body: &[u8]) {
    buf.put_slice(section.magic);
    buf.put_u16_le(section.version);
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(body);
    buf.put_u64_le(section_checksum(body));
}

/// The length of the framed `section` at the head of `rest` when its magic
/// is right and its body fits: how a loader steps over a section without
/// checking its version or checksum.
pub(crate) fn section_len(rest: &[u8], section: &Section) -> Option<usize> {
    if rest.len() < HEADER_LEN + TRAILER_LEN || !rest.starts_with(section.magic) {
        return None;
    }
    let total = (HEADER_LEN + TRAILER_LEN).checked_add(row_u32(rest, 10) as usize)?;
    (total <= rest.len()).then_some(total)
}

/// Checks that `bytes` are exactly one framed `section` and returns its
/// body. Each error names the section and its defect: magic, version,
/// truncation, trailing bytes or checksum.
pub(crate) fn unframe_section<'a>(bytes: &'a [u8], section: &Section) -> Result<&'a [u8], String> {
    let name = section.name;
    let mut r = Reader::new(bytes, name);
    if r.block(section.magic.len(), 1, "magic")? != section.magic {
        return Err(format!("{name} has wrong magic bytes"));
    }
    let version = r.u16("version")?;
    if version != section.version {
        return Err(format!(
            "{name} version {version} is not supported (expected {})",
            section.version
        ));
    }
    let body_len = r.u32("body length")? as usize;
    let body = r.block(body_len, 1, "body")?;
    let stored = r.u64("checksum")?;
    if !r.rest().is_empty() {
        return Err(format!(
            "{} trailing bytes after the {name}",
            r.rest().len()
        ));
    }
    let computed = section_checksum(body);
    if stored != computed {
        return Err(format!(
            "{name} checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    Ok(body)
}

/// Fast non-cryptographic checksum over a section body: four independent
/// lanes of 8-byte chunks folded with a wrapping multiply, then combined.
/// A single lane's multiply chain is serial and costs a visible slice of
/// section decode at mega-venue sizes; four lanes pipeline it away.
pub(crate) fn section_checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x2545_f491_4f6c_dd1d;
    let mut lanes = [
        0x9e37_79b9_7f4a_7c15u64,
        0x6a09_e667_f3bc_c909,
        0xbb67_ae85_84ca_a73b,
        0x3c6e_f372_fe94_f82b,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(M);
            *lane ^= *lane >> 29;
        }
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(M);
        hash ^= hash >> 29;
    }
    let tail = blocks.remainder();
    let mut chunks = tail.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        hash = (hash ^ word).wrapping_mul(M);
        hash ^= hash >> 29;
    }
    for &b in chunks.remainder() {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ (bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Section = Section {
        magic: b"IKRQTST\0",
        version: 3,
        name: "test section",
    };

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        frame_section(&mut buf, &TEST, body);
        buf.as_ref().to_vec()
    }

    #[test]
    fn reads_name_the_part_and_the_field() {
        let mut r = Reader::new(&[7, 0, 0], "payload");
        assert_eq!(r.u8("connection flags"), Ok(7));
        assert_eq!(
            r.u32("door id").unwrap_err(),
            "truncated payload while reading door id"
        );

        let mut r = Reader::new(&[5, 0, 0, 0, 1], "columnar body");
        assert_eq!(
            r.count("floor count").unwrap_err(),
            "implausible count 5 for floor count"
        );
        let mut r = Reader::new(&[], "columnar body");
        assert_eq!(
            r.block(usize::MAX, 16, "door positions").unwrap_err(),
            format!("implausible count {} for door positions", usize::MAX)
        );
        assert_eq!(
            r.u32_list(1, "i-word ids").unwrap_err(),
            "truncated columnar body while reading i-word ids"
        );

        let mut r = Reader::new(&[2, 0, 0, 0, 0xff, 0xfe], "index section");
        assert_eq!(r.string("i-word").unwrap_err(), "invalid UTF-8 in i-word");
        let mut r = Reader::new(&[1, 2, 0, 0, 0, b'o', b'k', 0, 2], "payload");
        assert_eq!(r.optional_string("venue name"), Ok(Some("ok".into())));
        assert_eq!(r.optional_string("partition name"), Ok(None));
        assert_eq!(
            r.optional_string("partition name").unwrap_err(),
            "invalid optional-string tag 2 in partition name"
        );
        assert!(r.rest().is_empty());
    }

    #[test]
    fn kind_codes_round_trip_and_reject_unknown_codes() {
        for (code, &kind) in PartitionKind::CODES.iter().enumerate() {
            assert_eq!(kind_code(kind), code as u8);
            assert_eq!(kind_of_code::<PartitionKind>(code as u8), Ok(kind));
        }
        for (code, &kind) in DoorKind::CODES.iter().enumerate() {
            assert_eq!(kind_code(kind), code as u8);
            assert_eq!(kind_of_code::<DoorKind>(code as u8), Ok(kind));
        }
        assert_eq!(
            kind_of_code::<PartitionKind>(4).unwrap_err(),
            "unknown partition kind code 4"
        );
        assert_eq!(
            kind_of_code::<DoorKind>(3).unwrap_err(),
            "unknown door kind code 3"
        );
    }

    #[test]
    fn framing_round_trips_and_names_each_defect() {
        let body = b"twelve bytes";
        let section = framed(body);
        assert_eq!(section_len(&section, &TEST), Some(section.len()));
        let mut followed = section.clone();
        followed.extend_from_slice(b"next section");
        assert_eq!(section_len(&followed, &TEST), Some(section.len()));
        assert_eq!(unframe_section(&section, &TEST), Ok(&body[..]));

        let defect = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = section.clone();
            edit(&mut bytes);
            unframe_section(&bytes, &TEST).unwrap_err()
        };
        assert_eq!(
            defect(&|b| b[0] = b'X'),
            "test section has wrong magic bytes"
        );
        assert_eq!(
            defect(&|b| b[8] = 4),
            "test section version 4 is not supported (expected 3)"
        );
        // A length field one too long, or a section cut short, runs past
        // the end; one too short leaves bytes over.
        assert_eq!(
            defect(&|b| b[10] += 1),
            "truncated test section while reading checksum"
        );
        assert_eq!(
            defect(&|b| b.truncate(HEADER_LEN + 4)),
            "truncated test section while reading body"
        );
        assert_eq!(
            defect(&|b| b[10] -= 1),
            "1 trailing bytes after the test section"
        );
        assert_eq!(
            defect(&|b| b.push(0)),
            "1 trailing bytes after the test section"
        );
        assert!(defect(&|b| b[HEADER_LEN] ^= 1).starts_with("test section checksum mismatch"));

        // Stepping over a section checks only the magic and the length.
        let mut skewed = section.clone();
        skewed[8] = 4;
        assert_eq!(section_len(&skewed, &TEST), Some(section.len()));
        assert_eq!(section_len(&section[..section.len() - 1], &TEST), None);
        assert_eq!(section_len(&section[..HEADER_LEN], &TEST), None);
        assert_eq!(section_len(b"IKRQIDX\0 and more bytes", &TEST), None);
    }

    #[test]
    fn writers_emit_the_layouts_the_reader_takes() {
        let mut buf = BytesMut::new();
        put_optional_string(&mut buf, Some("hall"));
        put_optional_string(&mut buf, None);
        put_grouped(
            &mut buf,
            [(7u32, vec![1u32, 2]), (9, vec![])]
                .into_iter()
                .map(|(key, row)| (key, row.into_iter())),
        );
        let mut r = Reader::new(buf.as_ref(), "payload");
        assert_eq!(r.optional_string("name"), Ok(Some("hall".into())));
        assert_eq!(r.optional_string("name"), Ok(None));
        assert_eq!(r.count("rows"), Ok(2));
        for (key, row) in [(7, vec![1, 2]), (9, vec![])] {
            assert_eq!(r.u32("key"), Ok(key));
            let n = r.count("len").unwrap();
            assert_eq!(r.u32_list(n, "values"), Ok(row));
        }
        assert!(r.rest().is_empty());
    }

    #[test]
    fn checksum_distinguishes_lengths_and_content() {
        assert_ne!(section_checksum(b""), section_checksum(b"\0"));
        assert_ne!(section_checksum(b"\0\0"), section_checksum(b"\0"));
        assert_ne!(
            section_checksum(b"12345678abcdefgh"),
            section_checksum(b"12345678abcdefgg")
        );
        assert_eq!(section_checksum(b"xyz"), section_checksum(b"xyz"));
    }
}
