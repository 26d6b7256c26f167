//! Persisted pre-built [`VenueIndex`] section.
//!
//! A venue file may carry, after the document payload, one optional index
//! section serialising the venue's [`RegionIndex`], so that a caller that
//! wants the index need not build it. No search reads the index, and `ikrq`
//! serves every venue without one. The crate's `codec` module frames it
//! (magic `b"IKRQIDX\0"`, version [`INDEX_FORMAT_VERSION`]); its body is:
//!
//! ```text
//! vocab hash   u64      KeywordDirectory::fingerprint() of the directory
//!                       the index was built against
//! postings     three tables (see below)
//! regions      region layer (see below)
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
//! The section is advisory: any defect — wrong magic, another version, bad
//! checksum, truncation, or a vocabulary fingerprint that does not match
//! the rebuilt directory — degrades to [`IndexSection::Unusable`], and a
//! caller that wants an index builds one. A venue file therefore never
//! fails to load because its index section went stale.

use crate::codec::{
    frame_section, put_grouped, put_rect, put_u32_list, row_u32, unframe_section, word_row, Reader,
    Section,
};
use bytes::{BufMut, BytesMut};
use indoor_geom::{Point, Rect};
use indoor_index::{Region, RegionIndex, VenueIndex};
use indoor_keywords::{KeywordDirectory, WordId};
use indoor_space::{FloorId, PartitionId};
use std::time::Instant;

/// Magic bytes opening an index section.
pub const INDEX_MAGIC: &[u8; 8] = b"IKRQIDX\0";

/// Version of the index section layout.
pub const INDEX_FORMAT_VERSION: u16 = 1;

/// The index section's framing.
const SECTION: Section = Section {
    magic: INDEX_MAGIC,
    version: INDEX_FORMAT_VERSION,
    name: "index section",
};

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
    /// unsupported version). A caller that wants an index builds one.
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
    /// mismatch returns the reason string.
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

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends an index section for `index` (built against `directory`) to a
/// buffer already holding the encoded venue document.
pub fn encode_index_section(buf: &mut BytesMut, index: &VenueIndex, directory: &KeywordDirectory) {
    let mut body = BytesMut::with_capacity(1 << 16);
    body.put_u64_le(directory.fingerprint());

    let mappings = directory.mappings();
    put_grouped(
        &mut body,
        mappings.i2p_entries().map(|(w, parts)| {
            // `I2P` rows keep their naming order in memory; the table's
            // rows are sorted.
            let mut parts: Vec<u32> = parts.iter().map(|p| p.0).collect();
            parts.sort_unstable();
            (w.0, parts.into_iter())
        }),
    );
    put_grouped(&mut body, mappings.t2i_entries().map(word_row));
    put_grouped(&mut body, mappings.i2t_entries().map(word_row));

    let regions = index.regions();
    body.put_u32_le(regions.len() as u32);
    for r in regions.regions() {
        put_rect(&mut body, r.bbox());
        body.put_u32_le(r.floors().len() as u32);
        for f in r.floors() {
            body.put_i32_le(f.0);
        }
        put_u32_list(&mut body, r.members().iter().map(|m| m.0));
        body.put_u32_le(r.iword_bits().len() as u32);
        for &w in r.iword_bits() {
            body.put_u64_le(w);
        }
    }
    put_u32_list(&mut body, regions.region_of_table().iter().copied());
    put_u32_list(&mut body, regions.iword_dense().iter().map(|w| w.0));
    body.put_u8(1);

    frame_section(buf, &SECTION, body.as_ref());
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Reads past one whole posting table, failing where decoding it into
/// memory once did: on truncation, on words out of order and, with `sets`,
/// on a row that is not strictly ascending.
fn skip_posting_table(r: &mut Reader<'_>, what: &str, sets: bool) -> Result<(), String> {
    let n = r.count(what)?;
    let (mut words_ascend, mut rows_ascend) = (true, true);
    let mut previous = None;
    for _ in 0..n {
        let w = r.u32(what)?;
        let len = r.u32(what)? as usize;
        let row = r.block(len, 4, what)?;
        words_ascend &= previous.is_none_or(|p| p < w);
        previous = Some(w);
        if sets && rows_ascend {
            rows_ascend = row
                .chunks_exact(4)
                .map(|c| row_u32(c, 0))
                .is_sorted_by(|a, b| a < b);
        }
    }
    if !words_ascend {
        return Err(format!("{what} table is not sorted by word"));
    }
    if !rows_ascend {
        return Err(format!("{what} row is not a sorted set"));
    }
    Ok(())
}

fn decode_body(body: &[u8]) -> Result<(u64, RegionIndex), String> {
    let mut r = Reader::new(body, "index section");
    let vocab_hash = r.u64("vocab hash")?;

    skip_posting_table(&mut r, "i-word postings", false)?;
    skip_posting_table(&mut r, "t-word postings", false)?;
    // The association rows were once adopted as sorted sets, so strict
    // order is part of the format, not just a convention.
    skip_posting_table(&mut r, "associations", true)?;

    let region_count = r.count("region count")?;
    let mut regions = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        let min = Point::new(r.f64("region bbox")?, r.f64("region bbox")?);
        let max = Point::new(r.f64("region bbox")?, r.f64("region bbox")?);
        let bbox = Rect::new(min, max).map_err(|e| format!("invalid region bbox: {e}"))?;
        let n = r.count("region floor count")?;
        let floors: Vec<_> = r
            .i32_list(n, "region floor")?
            .into_iter()
            .map(FloorId)
            .collect();
        let n = r.count("region members")?;
        let members: Vec<_> = r
            .u32_list(n, "region members")?
            .into_iter()
            .map(PartitionId)
            .collect();
        let n = r.count("region bitmap")?;
        let iword_bits = r.u64_list(n, "region bitmap")?;
        if floors.windows(2).any(|w| w[0] >= w[1]) || members.windows(2).any(|w| w[0] >= w[1]) {
            return Err("region lists are not sorted".into());
        }
        regions.push(Region::from_parts(bbox, floors, members, iword_bits));
    }
    let n = r.count("region-of table")?;
    let region_of = r.u32_list(n, "region-of table")?;
    let n = r.count("dense i-word table")?;
    let iword_dense: Vec<_> = r
        .u32_list(n, "dense i-word table")?
        .into_iter()
        .map(WordId)
        .collect();
    if iword_dense.windows(2).any(|w| w[0] >= w[1]) {
        return Err("dense i-word table is not sorted".into());
    }
    let flag = r.u8("soundness flag")?;
    if flag != 1 {
        return Err(format!("invalid soundness flag {flag}"));
    }
    if !r.rest().is_empty() {
        return Err(format!(
            "{} trailing bytes in index section body",
            r.rest().len()
        ));
    }
    for (i, &rid) in region_of.iter().enumerate() {
        if rid as usize >= regions.len() {
            return Err(format!("partition {i} maps to out-of-range region {rid}"));
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
    match unframe_section(rest, &SECTION).and_then(decode_body) {
        Ok((vocab_hash, regions)) => IndexSection::Present(Box::new(PrebuiltIndex {
            vocab_hash,
            decode_micros: started.elapsed().as_micros() as u64,
            regions,
        })),
        Err(reason) => IndexSection::Unusable(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::section_checksum;
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

    fn reframed(body: &[u8]) -> IndexSection {
        let mut section = BytesMut::new();
        frame_section(&mut section, &SECTION, body);
        decode_index_section(section.as_ref())
    }

    /// A section's body split where the region layer begins, after the
    /// vocabulary hash and the three posting tables.
    fn head_and_regions(section: &[u8]) -> (&[u8], &[u8]) {
        let body = &section[14..section.len() - 8];
        let mut tables = Reader::new(&body[8..], "index section");
        for what in ["i-word postings", "t-word postings", "associations"] {
            skip_posting_table(&mut tables, what, true).unwrap();
        }
        body.split_at(body.len() - tables.rest().len())
    }

    #[test]
    fn posting_tables_are_checked_then_skipped() {
        let (directory, index) = fixture();
        let payload = encoded_section(&index, &directory);
        let (head, regions) = head_and_regions(&payload);
        let with_tables = |tables: [Vec<(u32, Vec<u32>)>; 3]| {
            let mut body = BytesMut::new();
            body.put_slice(&head[..8]);
            for table in tables {
                put_grouped(
                    &mut body,
                    table.into_iter().map(|(w, row)| (w, row.into_iter())),
                );
            }
            body.put_slice(regions);
            reframed(body.as_ref())
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
    fn region_bitmaps_and_the_dense_table_are_checked() {
        let (directory, index) = fixture();
        let payload = encoded_section(&index, &directory);
        let (head, _) = head_and_regions(&payload);
        // The region layer with three given words in every bitmap and the
        // given dense i-word table.
        let layer = index.regions();
        let with_regions = |dense: &[u32]| {
            let mut body = BytesMut::new();
            body.put_slice(head);
            body.put_u32_le(layer.len() as u32);
            for r in layer.regions() {
                put_rect(&mut body, r.bbox());
                body.put_u32_le(r.floors().len() as u32);
                for f in r.floors() {
                    body.put_i32_le(f.0);
                }
                put_u32_list(&mut body, r.members().iter().map(|m| m.0));
                body.put_u32_le(3);
                for w in [u64::MAX, 0x5a5a, 7] {
                    body.put_u64_le(w);
                }
            }
            put_u32_list(&mut body, layer.region_of_table().iter().copied());
            put_u32_list(&mut body, dense.iter().copied());
            body.put_u8(1);
            body.as_ref().to_vec()
        };
        let loads = reframed(&with_regions(&[1, 5, 9]));
        assert!(matches!(loads, IndexSection::Present(_)), "got {loads:?}");
        let unsorted_dense = reframed(&with_regions(&[5, 1]));
        assert!(
            matches!(&unsorted_dense, IndexSection::Unusable(r) if r == "dense i-word table is not sorted"),
            "got {unsorted_dense:?}"
        );
        // A body that ends one word into the first region's three bitmap
        // words: the count runs past the body.
        let first = &layer.regions()[0];
        let cut = head.len()
            + 4
            + 32
            + 4
            + 4 * first.floors().len()
            + 4
            + 4 * first.members().len()
            + 4
            + 8;
        let short = reframed(&with_regions(&[1])[..cut]);
        assert!(
            matches!(&short, IndexSection::Unusable(r) if r == "truncated index section while reading region bitmap"),
            "got {short:?}"
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
}
