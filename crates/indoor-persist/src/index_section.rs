//! Persisted pre-built [`VenueIndex`] section.
//!
//! A venue file may carry, after the document payload, one optional index
//! section serialising the venue's [`RegionIndex`] so that serving processes
//! skip the index build entirely. Layout:
//!
//! ```text
//! magic          8 bytes  b"IKRQIDX\0"
//! format version u16      INDEX_FORMAT_VERSION
//! body length    u32      byte length of `body`
//! body:
//!   vocab hash   u64      KeywordDirectory::fingerprint() of the directory
//!                         the index was built against
//!   postings     three tables (see below)
//!   regions      region layer (see below)
//! checksum       u64      section_checksum(body)
//! ```
//!
//! The three posting tables are the directory's `I2P`, `T2I` and `I2T`
//! rows, in that order, each in word order with sorted rows: `u32 count`,
//! then per entry `u32 word`, `u32 len`, `len × u32` values. Nothing reads
//! them any more (both engines expand keywords from the directory itself),
//! but older builds adopt them, so the writer still derives them from the
//! directory and the reader checks them as those builds do (truncation,
//! word order, strictly ascending `I2T` rows) before skipping them.
//!
//! Regions are `u32 count`, then per region `4 × f64` bbox, a
//! length-prefixed `i32` floor list, `u32` member list and `u64` bitmap;
//! then the `u32` partition → region table, the dense i-word table and a
//! `u8` flag that is always 1: venues with negative distance overrides, for
//! which it was 0, no longer build, and the byte stays so the layout does
//! not change. A section with any other value is unusable.
//!
//! The section is advisory: any defect — wrong magic, unsupported version,
//! bad checksum, truncation, or a vocabulary fingerprint that does not
//! match the rebuilt directory — degrades to [`IndexSection::Unusable`]
//! and the caller rebuilds from scratch. A venue file therefore never
//! fails to load because its index section went stale.

use crate::error::PersistError;
use crate::Result;
use bytes::{Buf, BufMut, BytesMut};
use indoor_geom::{Point, Rect};
use indoor_index::{Region, RegionIndex, VenueIndex};
use indoor_keywords::{KeywordDirectory, WordId};
use indoor_space::{FloorId, PartitionId};
use std::time::Instant;

/// Magic bytes opening an index section.
pub const INDEX_MAGIC: &[u8; 8] = b"IKRQIDX\0";

/// Version of the index section layout.
pub const INDEX_FORMAT_VERSION: u16 = 1;

/// What the optional index section of a decoded venue file held.
#[derive(Debug)]
pub enum IndexSection {
    /// The file ends after the document — older file or `--save-indexed`
    /// not used.
    Absent,
    /// A structurally valid section (magic, version, checksum all good).
    /// Call [`PrebuiltIndex::into_index`] with the rebuilt directory to
    /// validate the vocabulary binding and obtain the [`VenueIndex`].
    /// Boxed: the decoded region layer dwarfs the other variants, and the
    /// value travels through `Result`s on its way to the engine.
    Present(Box<PrebuiltIndex>),
    /// A section was present but cannot be used (corruption, truncation,
    /// unsupported version). Callers log the reason and rebuild.
    Unusable(String),
}

/// A decoded index section awaiting vocabulary validation.
#[derive(Debug)]
pub struct PrebuiltIndex {
    vocab_hash: u64,
    decode_micros: u64,
    regions: RegionIndex,
}

impl PrebuiltIndex {
    /// Validates the section's vocabulary fingerprint against the directory
    /// rebuilt from the document and yields the ready [`VenueIndex`]
    /// (`build_micros` = decode time, `loaded_from_disk` = true). A
    /// mismatch returns the reason string; callers rebuild.
    pub fn into_index(
        self,
        directory: &KeywordDirectory,
    ) -> std::result::Result<VenueIndex, String> {
        let expected = directory.fingerprint();
        if expected != self.vocab_hash {
            return Err(format!(
                "vocabulary fingerprint mismatch (section {:#018x}, rebuilt {:#018x})",
                self.vocab_hash, expected
            ));
        }
        Ok(VenueIndex::from_parts(self.regions, self.decode_micros))
    }
}

/// Fast non-cryptographic checksum over a section body: four independent
/// lanes of 8-byte chunks folded with a wrapping multiply, then combined.
/// A single lane's multiply chain is serial and costs a visible slice of
/// section decode at mega-venue sizes; four lanes pipeline it away. Shared
/// with the columnar document section, which frames its body the same way.
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

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_word_list(buf: &mut BytesMut, words: impl ExactSizeIterator<Item = u32>) {
    buf.put_u32_le(words.len() as u32);
    for w in words {
        buf.put_u32_le(w);
    }
}

/// One posting table: the row count, then each row's word and value list.
fn put_posting_table<I: ExactSizeIterator<Item = u32>>(
    buf: &mut BytesMut,
    rows: impl ExactSizeIterator<Item = (WordId, I)>,
) {
    buf.put_u32_le(rows.len() as u32);
    for (w, row) in rows {
        buf.put_u32_le(w.0);
        put_word_list(buf, row);
    }
}

fn word_ids((w, row): (WordId, &[WordId])) -> (WordId, impl ExactSizeIterator<Item = u32> + '_) {
    (w, row.iter().map(|x| x.0))
}

/// Appends an index section for `index` (built against `directory`) to a
/// buffer already holding the encoded venue document.
pub fn encode_index_section(buf: &mut BytesMut, index: &VenueIndex, directory: &KeywordDirectory) {
    let mut body = BytesMut::with_capacity(1 << 16);
    body.put_u64_le(directory.fingerprint());

    let mappings = directory.mappings();
    put_posting_table(
        &mut body,
        mappings.i2p_entries().map(|(w, parts)| {
            // `I2P` rows keep their naming order in memory; the table's
            // rows are sorted.
            let mut parts: Vec<u32> = parts.iter().map(|p| p.0).collect();
            parts.sort_unstable();
            (w, parts.into_iter())
        }),
    );
    put_posting_table(&mut body, mappings.t2i_entries().map(word_ids));
    put_posting_table(&mut body, mappings.i2t_entries().map(word_ids));

    let regions = index.regions();
    body.put_u32_le(regions.len() as u32);
    for r in regions.regions() {
        let bbox = r.bbox();
        body.put_f64_le(bbox.min.x);
        body.put_f64_le(bbox.min.y);
        body.put_f64_le(bbox.max.x);
        body.put_f64_le(bbox.max.y);
        body.put_u32_le(r.floors().len() as u32);
        for f in r.floors() {
            body.put_i32_le(f.0);
        }
        put_word_list(&mut body, r.members().iter().map(|m| m.0));
        body.put_u32_le(r.iword_bits().len() as u32);
        for &w in r.iword_bits() {
            body.put_u64_le(w);
        }
    }
    put_word_list(&mut body, regions.region_of_table().iter().copied());
    put_word_list(&mut body, regions.iword_dense().iter().map(|w| w.0));
    body.put_u8(1);

    buf.put_slice(INDEX_MAGIC);
    buf.put_u16_le(INDEX_FORMAT_VERSION);
    buf.put_u32_le(body.len() as u32);
    let checksum = section_checksum(body.as_ref());
    buf.put_slice(body.as_ref());
    buf.put_u64_le(checksum);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Checked little-endian reads over the section body. Unlike the venue
/// document reader, errors here are advisory — the caller converts them to
/// [`IndexSection::Unusable`].
struct BodyReader<'a> {
    buf: &'a [u8],
}

impl<'a> BodyReader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.remaining() < n {
            return Err(PersistError::Binary(format!(
                "truncated index section while reading {what}"
            )));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    fn i32(&mut self, what: &str) -> Result<i32> {
        self.need(4, what)?;
        Ok(self.buf.get_i32_le())
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        self.need(8, what)?;
        Ok(self.buf.get_f64_le())
    }

    fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n > self.buf.remaining() {
            return Err(PersistError::Binary(format!(
                "implausible count {n} for {what}"
            )));
        }
        Ok(n)
    }

    /// Length-prefixed `u32` list, decoded by bulk slicing (the element
    /// loops dominate section decode time at mega-venue sizes).
    fn u32_list<T>(&mut self, what: &str, f: impl Fn(u32) -> T) -> Result<Vec<T>> {
        let n = self.count(what)?;
        self.need(n * 4, what)?;
        let (head, rest) = self.buf.split_at(n * 4);
        self.buf = rest;
        Ok(head
            .chunks_exact(4)
            .map(|c| f(u32::from_le_bytes(c.try_into().expect("chunks of 4"))))
            .collect())
    }

    /// Length-prefixed `u64` list (region bitmaps), bulk-sliced as above.
    fn u64_list(&mut self, what: &str) -> Result<Vec<u64>> {
        let n = self.count(what)?;
        self.need(n * 8, what)?;
        let (head, rest) = self.buf.split_at(n * 8);
        self.buf = rest;
        Ok(head
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks of 8")))
            .collect())
    }

    /// Reads past one whole posting table, failing where decoding it into
    /// memory once did: on truncation, on words out of order and, with
    /// `sets`, on a row that is not strictly ascending.
    fn skip_posting_table(&mut self, what: &str, sets: bool) -> Result<()> {
        let n = self.count(what)?;
        let (mut words_ascend, mut rows_ascend) = (true, true);
        let mut previous = None;
        for _ in 0..n {
            self.need(8, what)?;
            let w = self.buf.get_u32_le();
            let len = self.buf.get_u32_le() as usize;
            self.need(len * 4, what)?;
            let (row, rest) = self.buf.split_at(len * 4);
            self.buf = rest;
            words_ascend &= previous.is_none_or(|p| p < w);
            previous = Some(w);
            if sets && rows_ascend {
                rows_ascend = row
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("chunks of 4")))
                    .is_sorted_by(|a, b| a < b);
            }
        }
        if !words_ascend {
            return Err(PersistError::Binary(format!(
                "{what} table is not sorted by word"
            )));
        }
        if !rows_ascend {
            return Err(PersistError::Binary(format!(
                "{what} row is not a sorted set"
            )));
        }
        Ok(())
    }
}

fn decode_body(body: &[u8]) -> Result<(u64, RegionIndex)> {
    let mut r = BodyReader { buf: body };
    let vocab_hash = r.u64("vocab hash")?;

    r.skip_posting_table("i-word postings", false)?;
    r.skip_posting_table("t-word postings", false)?;
    // The association rows were once adopted as sorted sets, so strict
    // order is part of the format, not just a convention.
    r.skip_posting_table("associations", true)?;

    let region_count = r.count("region count")?;
    let mut regions = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        let min = Point::new(r.f64("region bbox")?, r.f64("region bbox")?);
        let max = Point::new(r.f64("region bbox")?, r.f64("region bbox")?);
        let bbox = Rect::new(min, max)
            .map_err(|e| PersistError::Binary(format!("invalid region bbox: {e}")))?;
        let mut floors = Vec::new();
        for _ in 0..r.count("region floor count")? {
            floors.push(FloorId(r.i32("region floor")?));
        }
        let members = r.u32_list("region members", PartitionId)?;
        let iword_bits = r.u64_list("region bitmap")?;
        if floors.windows(2).any(|w| w[0] >= w[1]) || members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PersistError::Binary("region lists are not sorted".into()));
        }
        regions.push(Region::from_parts(bbox, floors, members, iword_bits));
    }
    let region_of = r.u32_list("region-of table", |v| v)?;
    let iword_dense = r.u32_list("dense i-word table", WordId)?;
    if iword_dense.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Binary(
            "dense i-word table is not sorted".into(),
        ));
    }
    let flag = r.u8("soundness flag")?;
    if flag != 1 {
        return Err(PersistError::Binary(format!(
            "invalid soundness flag {flag}"
        )));
    }
    if r.buf.has_remaining() {
        return Err(PersistError::Binary(format!(
            "{} trailing bytes in index section body",
            r.buf.remaining()
        )));
    }
    if !region_of.is_empty() {
        for (i, &rid) in region_of.iter().enumerate() {
            if rid as usize >= regions.len() {
                return Err(PersistError::Binary(format!(
                    "partition {i} maps to out-of-range region {rid}"
                )));
            }
        }
    }
    Ok((
        vocab_hash,
        RegionIndex::from_parts(regions, region_of, iword_dense),
    ))
}

/// Decodes the optional index section occupying the remainder of a venue
/// file. Never fails hard: structural defects come back as
/// [`IndexSection::Unusable`] with the reason, so venue loading continues
/// with a rebuild.
pub fn decode_index_section(rest: &[u8]) -> IndexSection {
    if rest.is_empty() {
        return IndexSection::Absent;
    }
    let started = Instant::now();
    let unusable = |reason: String| IndexSection::Unusable(reason);
    if rest.len() < INDEX_MAGIC.len() + 2 + 4 || &rest[..8] != INDEX_MAGIC {
        return unusable("trailing bytes are not an index section".into());
    }
    let version = u16::from_le_bytes([rest[8], rest[9]]);
    if version > INDEX_FORMAT_VERSION {
        return unusable(format!(
            "index section version {version} is newer than supported {INDEX_FORMAT_VERSION}"
        ));
    }
    let body_len = u32::from_le_bytes([rest[10], rest[11], rest[12], rest[13]]) as usize;
    let body_start = 14;
    let Some(checksum_bytes) = rest.get(body_start + body_len..body_start + body_len + 8) else {
        return unusable(format!(
            "index section truncated: body length {body_len} exceeds the file"
        ));
    };
    if rest.len() > body_start + body_len + 8 {
        return unusable(format!(
            "{} trailing bytes after the index section",
            rest.len() - (body_start + body_len + 8)
        ));
    }
    let body = &rest[body_start..body_start + body_len];
    let stored = u64::from_le_bytes(checksum_bytes.try_into().expect("sliced 8 bytes"));
    let computed = section_checksum(body);
    if stored != computed {
        return unusable(format!(
            "index section checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    match decode_body(body) {
        Ok((vocab_hash, regions)) => IndexSection::Present(Box::new(PrebuiltIndex {
            vocab_hash,
            decode_micros: started.elapsed().as_micros() as u64,
            regions,
        })),
        Err(e) => unusable(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::VenueDocument;
    use indoor_data::paper_example_venue;

    fn fixture() -> (KeywordDirectory, VenueIndex) {
        let ex = paper_example_venue();
        let doc = VenueDocument::from_venue(
            &ex.venue.space,
            &ex.venue.directory,
            10.0,
            Some("fig1".into()),
        );
        // The index must bind to the *rebuilt* directory: interning order is
        // a document-order artefact, and loaders rebuild from the document.
        let (space, directory) = doc.build().unwrap();
        let index = VenueIndex::build(&space, &directory);
        (directory, index)
    }

    fn encoded_section(index: &VenueIndex, directory: &KeywordDirectory) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_index_section(&mut buf, index, directory);
        buf.as_ref().to_vec()
    }

    #[test]
    fn index_section_round_trips() {
        let (directory, index) = fixture();
        let section = decode_index_section(&encoded_section(&index, &directory));
        let IndexSection::Present(prebuilt) = section else {
            panic!("expected a present index section, got {section:?}");
        };
        let loaded = prebuilt.into_index(&directory).unwrap();
        assert!(loaded.loaded_from_disk());
        assert!(!index.loaded_from_disk());
        // Structural equality of the persisted region layer.
        assert_eq!(loaded.regions().len(), index.regions().len());
        assert_eq!(
            loaded.regions().region_of_table(),
            index.regions().region_of_table()
        );
        assert_eq!(
            loaded.regions().iword_dense(),
            index.regions().iword_dense()
        );
        for (a, b) in loaded
            .regions()
            .regions()
            .iter()
            .zip(index.regions().regions())
        {
            assert_eq!(a.bbox(), b.bbox());
            assert_eq!(a.floors(), b.floors());
            assert_eq!(a.members(), b.members());
            assert_eq!(a.iword_bits(), b.iword_bits());
        }
    }

    #[test]
    fn files_without_a_section_report_absent() {
        assert!(matches!(decode_index_section(&[]), IndexSection::Absent));
    }

    #[test]
    fn corruption_truncation_and_version_skew_degrade_to_unusable() {
        let (directory, index) = fixture();
        let payload = encoded_section(&index, &directory);

        // Flip one byte inside the section body: checksum mismatch.
        let mut corrupt = payload.clone();
        corrupt[20] ^= 0xff;
        let section = decode_index_section(&corrupt);
        assert!(
            matches!(&section, IndexSection::Unusable(reason) if reason.contains("checksum")),
            "got {section:?}"
        );

        // Truncate the section midway: unusable, not an error.
        let section = decode_index_section(&payload[..payload.len() / 2]);
        assert!(matches!(section, IndexSection::Unusable(_)));

        // Future section version: unusable.
        let mut future = payload.clone();
        future[8] = (INDEX_FORMAT_VERSION + 1) as u8;
        let section = decode_index_section(&future);
        assert!(
            matches!(&section, IndexSection::Unusable(reason) if reason.contains("version")),
            "got {section:?}"
        );

        // Trailing garbage after the section: unusable.
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(matches!(
            decode_index_section(&trailing),
            IndexSection::Unusable(_)
        ));

        // A checksum-valid section whose flag byte (the last body byte) is
        // anything but 1: unusable.
        let mut body = payload[14..payload.len() - 8].to_vec();
        *body.last_mut().unwrap() = 0;
        let mut reframed = payload[..14].to_vec();
        reframed.extend_from_slice(&body);
        reframed.extend_from_slice(&section_checksum(&body).to_le_bytes());
        let section = decode_index_section(&reframed);
        assert!(
            matches!(&section, IndexSection::Unusable(reason) if reason.contains("flag")),
            "got {section:?}"
        );
    }

    #[test]
    fn posting_tables_are_checked_then_skipped() {
        let (directory, index) = fixture();
        let payload = encoded_section(&index, &directory);
        let body = &payload[14..payload.len() - 8];
        // The region layer follows the vocabulary hash and the three tables.
        let mut tables = BodyReader { buf: &body[8..] };
        for what in ["i-word postings", "t-word postings", "associations"] {
            tables.skip_posting_table(what, true).unwrap();
        }
        let regions = tables.buf;
        let with_tables = |tables: [Vec<(u32, Vec<u32>)>; 3]| {
            let mut body = BytesMut::new();
            body.put_slice(&payload[14..22]);
            for table in tables {
                put_posting_table(
                    &mut body,
                    table
                        .into_iter()
                        .map(|(w, row)| (WordId(w), row.into_iter())),
                );
            }
            body.put_slice(regions);
            let mut section = payload[..10].to_vec();
            section.extend_from_slice(&(body.len() as u32).to_le_bytes());
            section.extend_from_slice(body.as_ref());
            section.extend_from_slice(&section_checksum(body.as_ref()).to_le_bytes());
            decode_index_section(&section)
        };
        // Nothing reads the tables, so any well-formed content loads; only
        // association rows must be strictly ascending.
        let loads = with_tables([vec![(1, vec![9, 5])], vec![(1, vec![4, 4])], vec![]]);
        assert!(matches!(loads, IndexSection::Present(_)), "got {loads:?}");
        let unsorted_words = with_tables([vec![], vec![(2, vec![1]), (1, vec![1])], vec![]]);
        assert!(
            matches!(&unsorted_words, IndexSection::Unusable(r) if r.contains("sorted by word")),
            "got {unsorted_words:?}"
        );
        let unsorted_row = with_tables([vec![], vec![], vec![(1, vec![3, 4]), (2, vec![4, 4])]]);
        assert!(
            matches!(&unsorted_row, IndexSection::Unusable(r) if r.contains("sorted set")),
            "got {unsorted_row:?}"
        );
    }

    #[test]
    fn vocabulary_mismatch_is_rejected_at_binding_time() {
        let (directory, index) = fixture();
        let section = decode_index_section(&encoded_section(&index, &directory));
        let IndexSection::Present(prebuilt) = section else {
            panic!("expected present");
        };
        let mut other = KeywordDirectory::new();
        other.add_iword("impostor").unwrap();
        let err = prebuilt.into_index(&other).unwrap_err();
        assert!(err.contains("fingerprint"), "got {err}");
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
