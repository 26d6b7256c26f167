//! The columnar venue-document section (`IKRQCOL`): flat column blobs that
//! the in-memory model adopts wholesale.
//!
//! Version 1 venue files store the venue as a vector of records; loading one
//! replays every partition, door, connection and keyword through the space
//! builder and the keyword interner, which dominates cold start at venue
//! scale. A version 2 file appends this section after the record body: the
//! same venue, but laid out exactly the way [`IndoorSpace`] and
//! [`KeywordDirectory`] store it — dense partition/door columns, CSR
//! adjacency, sorted override tables, the derived door graph, one string
//! arena plus offset table for the interner, and the sorted id maps. Loading
//! then splits into two cheap phases: *decode* (bytes → columns, all bulk
//! reads) and *adopt* ([`IndoorSpace::adopt_columns`] +
//! [`KeywordDirectory::from_parts`], `O(n)` validation scans instead of a
//! rebuild).
//!
//! The crate's `codec` module frames the section, like the pre-built
//! index section. It is *advisory* in the same sense, too — any defect
//! (truncation, version skew, checksum mismatch, a column that fails the
//! adoption scans) makes the loader fall back to decoding the record body
//! and rebuilding, so a venue file never fails to load because of its
//! columnar section. The degradation ladder is documented in
//! `docs/PERSIST.md`.

use crate::codec::{
    frame_section, kind_code, kind_of_code, put_grouped, put_optional_string, put_rect, put_string,
    put_u32_list, row_f64, row_u32, unframe_section, word_row, Reader, Section,
};
use bytes::{BufMut, BytesMut};
use indoor_geom::{Point, Rect};
use indoor_keywords::{Interner, KeywordDirectory, KeywordMappings, Vocabulary, WordId};
use indoor_space::{
    Csr, Door, DoorGraph, DoorGraphEdge, DoorId, FloorId, IndoorSpace, Partition, PartitionId,
    SpaceColumns,
};

/// Magic bytes opening the columnar document section.
pub const COLUMNAR_MAGIC: &[u8; 8] = b"IKRQCOL\0";

/// Version of the columnar section layout. Bumped on breaking changes;
/// loaders treat any other version as a degradation to the record-body
/// rebuild, never an error.
pub const COLUMNAR_FORMAT_VERSION: u16 = 1;

/// The columnar section's framing.
pub(crate) const SECTION: Section = Section {
    magic: COLUMNAR_MAGIC,
    version: COLUMNAR_FORMAT_VERSION,
    name: "columnar section",
};

/// The decoded columns of a columnar section, not yet validated against the
/// model invariants. [`adopt_columnar_parts`] turns them into the model.
#[derive(Debug)]
pub(crate) struct ColumnarParts {
    name: Option<String>,
    space: SpaceColumns,
    arena: String,
    spans: Vec<(u32, u32)>,
    iwords: Vec<WordId>,
    twords: Vec<WordId>,
    p2i: Vec<(PartitionId, WordId)>,
    i2p: Vec<(WordId, Vec<PartitionId>)>,
    i2t: Vec<(WordId, Vec<WordId>)>,
    t2i: Vec<(WordId, Vec<WordId>)>,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_id_csr<T: Copy>(buf: &mut BytesMut, csr: &Csr<T>, raw: impl Fn(T) -> u32) {
    buf.put_u32_le(csr.num_nodes() as u32);
    for &o in csr.offsets() {
        buf.put_u32_le(o);
    }
    buf.put_u32_le(csr.num_values() as u32);
    for &v in csr.values() {
        buf.put_u32_le(raw(v));
    }
}

/// Appends a columnar section for a built venue model to `buf`.
///
/// `space` and `directory` must be the model a loader would rebuild from the
/// same file's record body (i.e. the output of `VenueDocument::build`):
/// interned word ids and CSR layouts are insertion-order artifacts, and the
/// adopted model must be indistinguishable — byte-identical responses,
/// matching directory fingerprint — from a record-body rebuild.
pub(crate) fn encode_columnar_section(
    buf: &mut BytesMut,
    name: Option<&str>,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    grid_cell: f64,
) {
    let mut body = BytesMut::with_capacity(1 << 16);

    put_optional_string(&mut body, name);
    body.put_f64_le(grid_cell);

    let floor_bounds: Vec<(FloorId, Rect)> = space.floor_bounds_table().collect();
    body.put_u32_le(floor_bounds.len() as u32);
    for (floor, bounds) in &floor_bounds {
        body.put_i32_le(floor.0);
        put_rect(&mut body, bounds);
    }

    // Partition columns: floors, kinds, footprints, then one shared name
    // arena with `(start, end)` spans (`u32::MAX` marks an unnamed
    // partition).
    let partitions = space.partitions();
    body.put_u32_le(partitions.len() as u32);
    for p in partitions {
        body.put_i32_le(p.floor.0);
    }
    for p in partitions {
        body.put_u8(kind_code(p.kind));
    }
    for p in partitions {
        put_rect(&mut body, &p.footprint);
    }
    let mut name_arena = String::new();
    let mut name_spans: Vec<(u32, u32)> = Vec::with_capacity(partitions.len());
    for p in partitions {
        match &p.name {
            Some(name) => {
                let start = name_arena.len() as u32;
                name_arena.push_str(name);
                name_spans.push((start, name_arena.len() as u32));
            }
            None => name_spans.push((u32::MAX, u32::MAX)),
        }
    }
    put_string(&mut body, &name_arena);
    for (start, end) in &name_spans {
        body.put_u32_le(*start);
        body.put_u32_le(*end);
    }

    // Door columns.
    let doors = space.doors();
    body.put_u32_le(doors.len() as u32);
    for d in doors {
        body.put_f64_le(d.position.x);
        body.put_f64_le(d.position.y);
    }
    for d in doors {
        body.put_i32_le(d.floor.0);
    }
    for d in doors {
        body.put_u8(kind_code(d.kind));
    }

    // Topology CSRs, in `D2PA`, `D2P@`, `P2DA`, `P2D@` order.
    let (d2p_enter, d2p_leave, p2d_enter, p2d_leave) = space.topology_csrs();
    put_id_csr(&mut body, d2p_enter, |v: PartitionId| v.0);
    put_id_csr(&mut body, d2p_leave, |v: PartitionId| v.0);
    put_id_csr(&mut body, p2d_enter, |d: DoorId| d.0);
    put_id_csr(&mut body, p2d_leave, |d: DoorId| d.0);

    // Sorted override tables.
    let intra: Vec<(PartitionId, DoorId, DoorId, f64)> = space.intra_distance_overrides().collect();
    body.put_u32_le(intra.len() as u32);
    for (v, a, b, dist) in &intra {
        body.put_u32_le(v.0);
        body.put_u32_le(a.0);
        body.put_u32_le(b.0);
        body.put_f64_le(*dist);
    }
    let loops: Vec<(PartitionId, DoorId, f64)> = space.loop_distance_overrides().collect();
    body.put_u32_le(loops.len() as u32);
    for (v, d, dist) in &loops {
        body.put_u32_le(v.0);
        body.put_u32_le(d.0);
        body.put_f64_le(*dist);
    }

    // The derived door graph — the single most expensive thing a rebuild
    // computes, so persisting it is what buys most of the adoption speedup.
    let graph = space.door_graph();
    body.put_u32_le(graph.num_nodes() as u32);
    for &o in graph.offsets() {
        body.put_u32_le(o);
    }
    body.put_u32_le(graph.num_edges() as u32);
    for e in graph.edges() {
        body.put_u32_le(e.to.0);
        body.put_u32_le(e.via.0);
        body.put_f64_le(e.weight);
    }

    // Keyword columns: the interner arena verbatim (word ids are offsets
    // into the span table, so order is identity), the sorted vocabulary id
    // lists, and the four mappings. `I2P` inner lists are written in stored
    // order, NOT re-sorted: the directory fingerprint hashes them as-is and
    // the pre-built index section binds to that fingerprint.
    let interner = directory.vocab().interner();
    put_string(&mut body, interner.arena());
    body.put_u32_le(interner.spans().len() as u32);
    for (start, end) in interner.spans() {
        body.put_u32_le(*start);
        body.put_u32_le(*end);
    }
    let iwords: Vec<u32> = directory.vocab().iwords().map(|w| w.0).collect();
    put_u32_list(&mut body, iwords.into_iter());
    let twords: Vec<u32> = directory.vocab().twords().map(|w| w.0).collect();
    put_u32_list(&mut body, twords.into_iter());
    let mappings = directory.mappings();
    let p2i: Vec<(PartitionId, WordId)> = mappings.p2i_entries().collect();
    body.put_u32_le(p2i.len() as u32);
    for (v, w) in &p2i {
        body.put_u32_le(v.0);
        body.put_u32_le(w.0);
    }
    put_grouped(
        &mut body,
        mappings
            .i2p_entries()
            .map(|(w, vs)| (w.0, vs.iter().map(|v| v.0))),
    );
    put_grouped(&mut body, mappings.i2t_entries().map(word_row));
    put_grouped(&mut body, mappings.t2i_entries().map(word_row));

    frame_section(buf, &SECTION, body.as_ref());
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One id CSR: the node count, `n + 1` offsets, the value count and the
/// values.
fn id_csr<T>(r: &mut Reader<'_>, what: &str, id: fn(u32) -> T) -> Result<Csr<T>, String> {
    let n = r.count(what)?;
    let offsets = r.u32_list(n + 1, what)?;
    let m = r.count(what)?;
    let values = r.u32_list(m, what)?.into_iter().map(id).collect();
    Csr::from_flat(n, offsets, values).map_err(|e| format!("{what}: {e}"))
}

/// One grouped id list, as `codec::put_grouped` writes it.
fn grouped_ids<T>(
    r: &mut Reader<'_>,
    what: &str,
    id: fn(u32) -> T,
) -> Result<Vec<(WordId, Vec<T>)>, String> {
    let n = r.count(what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = WordId(r.u32(what)?);
        let len = r.count(what)?;
        out.push((key, r.u32_list(len, what)?.into_iter().map(id).collect()));
    }
    Ok(out)
}

/// Decodes a framed columnar section (exactly the bytes
/// `codec::section_len` measured) into columns. Every defect is a
/// degradation reason.
pub(crate) fn decode_columnar_parts(section: &[u8]) -> Result<ColumnarParts, String> {
    let mut r = Reader::new(unframe_section(section, &SECTION)?, "columnar body");

    let name = match r.u8("name tag")? {
        0 => None,
        1 => Some(r.string("venue name")?),
        other => return Err(format!("invalid name tag {other}")),
    };
    let grid_cell = r.f64("grid cell")?;

    let mut floor_bounds = Vec::new();
    for _ in 0..r.count("floor count")? {
        let floor = FloorId(r.i32("floor id")?);
        floor_bounds.push((floor, r.rect("floor bounds")?));
    }

    let np = r.count("partition count")?;
    let floors = r.i32_list(np, "partition floors")?;
    let kind_codes = r.block(np, 1, "partition kinds")?;
    let kinds = kind_codes
        .iter()
        .map(|&code| kind_of_code(code))
        .collect::<Result<Vec<_>, _>>()?;
    let footprints = r.rect_list(np, "partition footprints")?;
    let name_arena = r.string("partition name arena")?;
    let name_spans = r.block(np, 8, "partition name spans")?;
    let mut partitions = Vec::with_capacity(np);
    for i in 0..np {
        let row = &name_spans[i * 8..i * 8 + 8];
        let start = row_u32(row, 0);
        let end = row_u32(row, 4);
        let pname = if start == u32::MAX && end == u32::MAX {
            None
        } else {
            let (start, end) = (start as usize, end as usize);
            if start > end || end > name_arena.len() {
                return Err(format!("partition {i} name span is out of bounds"));
            }
            if !name_arena.is_char_boundary(start) || !name_arena.is_char_boundary(end) {
                return Err(format!("partition {i} name span splits a character"));
            }
            Some(name_arena[start..end].to_string())
        };
        partitions.push(Partition {
            id: PartitionId(i as u32),
            floor: FloorId(floors[i]),
            kind: kinds[i],
            footprint: footprints[i],
            name: pname,
        });
    }

    let nd = r.count("door count")?;
    let positions = r.block(nd, 16, "door positions")?;
    let door_floors = r.i32_list(nd, "door floors")?;
    let door_kinds = r.block(nd, 1, "door kinds")?;
    let mut doors = Vec::with_capacity(nd);
    for i in 0..nd {
        let kind = kind_of_code(door_kinds[i])?;
        let row = &positions[i * 16..i * 16 + 16];
        doors.push(Door {
            id: DoorId(i as u32),
            position: Point::new(row_f64(row, 0), row_f64(row, 8)),
            floor: FloorId(door_floors[i]),
            kind,
        });
    }

    let d2p_enter = id_csr(&mut r, "D2PA", PartitionId)?;
    let d2p_leave = id_csr(&mut r, "D2P@", PartitionId)?;
    let p2d_enter = id_csr(&mut r, "P2DA", DoorId)?;
    let p2d_leave = id_csr(&mut r, "P2D@", DoorId)?;

    let intra_count = r.count("intra override count")?;
    let intra_rows = r.block(intra_count, 20, "intra overrides")?;
    let intra_overrides = intra_rows
        .chunks_exact(20)
        .map(|row| {
            (
                PartitionId(row_u32(row, 0)),
                DoorId(row_u32(row, 4)),
                DoorId(row_u32(row, 8)),
                row_f64(row, 12),
            )
        })
        .collect();
    let loop_count = r.count("loop override count")?;
    let loop_rows = r.block(loop_count, 16, "loop overrides")?;
    let loop_overrides = loop_rows
        .chunks_exact(16)
        .map(|row| {
            (
                PartitionId(row_u32(row, 0)),
                DoorId(row_u32(row, 4)),
                row_f64(row, 8),
            )
        })
        .collect();

    let graph_nodes = r.count("door graph node count")?;
    let graph_offsets = r.u32_list(graph_nodes + 1, "door graph offsets")?;
    let graph_edge_count = r.count("door graph edge count")?;
    let edge_rows = r.block(graph_edge_count, 16, "door graph edges")?;
    let graph_edges = edge_rows
        .chunks_exact(16)
        .map(|row| DoorGraphEdge {
            to: DoorId(row_u32(row, 0)),
            via: PartitionId(row_u32(row, 4)),
            weight: row_f64(row, 8),
        })
        .collect();
    let door_graph = DoorGraph::from_flat(nd, np, graph_offsets, graph_edges)
        .map_err(|e| format!("door graph: {e}"))?;

    let space = SpaceColumns {
        grid_cell,
        floor_bounds,
        partitions,
        doors,
        d2p_enter,
        d2p_leave,
        p2d_enter,
        p2d_leave,
        intra_overrides,
        loop_overrides,
        door_graph,
    };

    let arena = r.string("keyword arena")?;
    let span_count = r.count("keyword span count")?;
    let span_rows = r.block(span_count, 8, "keyword spans")?;
    let spans = span_rows
        .chunks_exact(8)
        .map(|row| (row_u32(row, 0), row_u32(row, 4)))
        .collect();
    let iword_count = r.count("i-word count")?;
    let iwords = r
        .u32_list(iword_count, "i-word ids")?
        .into_iter()
        .map(WordId)
        .collect();
    let tword_count = r.count("t-word count")?;
    let twords = r
        .u32_list(tword_count, "t-word ids")?
        .into_iter()
        .map(WordId)
        .collect();
    let p2i_count = r.count("P2I count")?;
    let p2i_rows = r.block(p2i_count, 8, "P2I entries")?;
    let p2i = p2i_rows
        .chunks_exact(8)
        .map(|row| (PartitionId(row_u32(row, 0)), WordId(row_u32(row, 4))))
        .collect();
    let i2p = grouped_ids(&mut r, "I2P", PartitionId)?;
    let i2t = grouped_ids(&mut r, "I2T", WordId)?;
    let t2i = grouped_ids(&mut r, "T2I", WordId)?;

    if !r.rest().is_empty() {
        return Err(format!(
            "{} trailing bytes after the columnar body",
            r.rest().len()
        ));
    }

    Ok(ColumnarParts {
        name,
        space,
        arena,
        spans,
        iwords,
        twords,
        p2i,
        i2p,
        i2t,
        t2i,
    })
}

/// Adopts decoded columns into the in-memory model. All structural defects —
/// out-of-range door/partition/word references, unsorted tables, CSR shape
/// violations — come back as a degradation reason, never a panic.
pub(crate) fn adopt_columnar_parts(
    parts: ColumnarParts,
) -> Result<(Option<String>, IndoorSpace, KeywordDirectory), String> {
    let ColumnarParts {
        name,
        space,
        arena,
        spans,
        iwords,
        twords,
        p2i,
        i2p,
        i2t,
        t2i,
    } = parts;

    let space = IndoorSpace::adopt_columns(space).map_err(|e| format!("space columns: {e}"))?;
    let np = space.num_partitions() as u32;

    let interner = Interner::from_parts(arena, spans).map_err(|e| format!("interner: {e}"))?;
    let nw = interner.len() as u32;
    let word_ok = |w: WordId| w.0 < nw;
    for (v, w) in &p2i {
        if v.0 >= np || !word_ok(*w) {
            return Err(format!("P2I references unknown partition {v} or word {w}"));
        }
    }
    for (w, vs) in &i2p {
        if !word_ok(*w) || vs.iter().any(|v| v.0 >= np) {
            return Err(format!(
                "I2P entry for word {w} has out-of-range references"
            ));
        }
    }
    for (name, groups) in [("I2T", &i2t), ("T2I", &t2i)] {
        for (w, list) in groups {
            if !word_ok(*w) || list.iter().any(|t| !word_ok(*t)) {
                return Err(format!(
                    "{name} entry for word {w} has out-of-range references"
                ));
            }
        }
    }

    let vocab = Vocabulary::from_sorted_parts(interner, iwords, twords)
        .map_err(|e| format!("vocabulary: {e}"))?;
    let mappings = KeywordMappings::from_sorted_parts(p2i, i2p, i2t, t2i)
        .map_err(|e| format!("mappings: {e}"))?;
    Ok((name, space, KeywordDirectory::from_parts(vocab, mappings)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{section_len, HEADER_LEN};
    use indoor_data::paper_example_venue;

    fn fixture() -> (Option<String>, IndoorSpace, KeywordDirectory, f64) {
        let example = paper_example_venue();
        let doc = crate::VenueDocument::from_venue(
            &example.venue.space,
            &example.venue.directory,
            10.0,
            Some("fig1".into()),
        );
        let (space, directory) = doc.build().unwrap();
        (doc.name.clone(), space, directory, doc.grid_cell)
    }

    fn encoded_section() -> Vec<u8> {
        let (name, space, directory, grid_cell) = fixture();
        let mut buf = BytesMut::new();
        encode_columnar_section(&mut buf, name.as_deref(), &space, &directory, grid_cell);
        buf.as_ref().to_vec()
    }

    #[test]
    fn columnar_round_trip_reproduces_the_rebuilt_model() {
        let (name, space, directory, _) = fixture();
        let section = encoded_section();
        assert_eq!(section_len(&section, &SECTION), Some(section.len()));
        let parts = decode_columnar_parts(&section).unwrap();
        let (back_name, back_space, back_directory) = adopt_columnar_parts(parts).unwrap();
        assert_eq!(back_name, name);
        assert_eq!(back_space.num_partitions(), space.num_partitions());
        assert_eq!(back_space.num_doors(), space.num_doors());
        assert_eq!(
            back_space.door_graph().num_edges(),
            space.door_graph().num_edges()
        );
        // Fingerprint equality is the binding contract: a persisted index
        // built against the rebuilt directory must adopt against this one.
        assert_eq!(back_directory.fingerprint(), directory.fingerprint());
        for (a, b) in space.partitions().iter().zip(back_space.partitions()) {
            assert_eq!(a, b);
        }
        for (a, b) in space.doors().iter().zip(back_space.doors()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn every_single_byte_corruption_is_a_degradation_not_a_panic() {
        let section = encoded_section();
        // Flipping any byte must yield Err from decode (framing/checksum) or
        // at worst a decodable-but-rejected set of parts; adoption of intact
        // parts is covered elsewhere. Step through the section to keep the
        // test fast while still covering header, body and trailer bytes.
        for i in (0..section.len())
            .step_by(7)
            .chain([0, 8, 9, 10, HEADER_LEN, section.len() - 1])
        {
            let mut corrupt = section.clone();
            corrupt[i] ^= 0xff;
            match decode_columnar_parts(&corrupt) {
                Ok(parts) => {
                    // A flip that survives the checksum is essentially
                    // impossible, but adoption must still not panic.
                    let _ = adopt_columnar_parts(parts);
                }
                Err(reason) => assert!(!reason.is_empty()),
            }
        }
    }

    #[test]
    fn defective_columns_degrade_with_structured_reasons() {
        // Hand-patch decoded parts to simulate checksum-valid files with
        // out-of-range references: adoption must reject each one.
        let section = encoded_section();

        let mut parts = decode_columnar_parts(&section).unwrap();
        parts.p2i.push((PartitionId(9_999), WordId(0)));
        let err = adopt_columnar_parts(parts).unwrap_err();
        assert!(err.contains("P2I"), "{err}");

        let mut parts = decode_columnar_parts(&section).unwrap();
        if let Some((_, vs)) = parts.i2p.first_mut() {
            vs.push(PartitionId(9_999));
        }
        let err = adopt_columnar_parts(parts).unwrap_err();
        assert!(err.contains("I2P"), "{err}");

        let mut parts = decode_columnar_parts(&section).unwrap();
        parts.i2t.push((WordId(u32::MAX), vec![WordId(0)]));
        let err = adopt_columnar_parts(parts).unwrap_err();
        assert!(err.contains("I2T"), "{err}");

        let mut parts = decode_columnar_parts(&section).unwrap();
        parts.iwords.push(WordId(u32::MAX));
        let err = adopt_columnar_parts(parts).unwrap_err();
        assert!(err.contains("i-word"), "{err}");

        // Out-of-range door reference inside the space columns.
        let mut parts = decode_columnar_parts(&section).unwrap();
        parts
            .space
            .intra_overrides
            .push((PartitionId(0), DoorId(9_999), DoorId(9_999), 1.0));
        let err = adopt_columnar_parts(parts).unwrap_err();
        assert!(err.contains("space columns"), "{err}");
    }

    #[test]
    fn version_skew_and_framing_defects_are_reported() {
        let section = encoded_section();

        let mut skewed = section.clone();
        skewed[8] = (COLUMNAR_FORMAT_VERSION + 1) as u8;
        assert!(decode_columnar_parts(&skewed)
            .unwrap_err()
            .contains("version"));

        assert!(decode_columnar_parts(&section[..HEADER_LEN]).is_err());
        assert!(section_len(&section[..HEADER_LEN], &SECTION).is_none());
        assert!(section_len(b"IKRQIDX\0rest", &SECTION).is_none());

        // Truncated body: the framing helper refuses to measure it.
        assert!(section_len(&section[..section.len() - 1], &SECTION).is_none());
    }
}
