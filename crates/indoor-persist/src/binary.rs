//! Venue files: one writer and one loader.
//!
//! [`encode_venue_columnar`] (to bytes) and [`save_venue_columnar`] (to a
//! path) are the only binary writers; they write file version 2.
//! [`load_venue_model`] (from bytes) and [`load_venue_model_file`] (from a
//! path) are the only loaders, and they pick the format from the content,
//! never from the file name:
//!
//! * bytes that start with `IKRQVEN\0` are a binary venue file. Version 2
//!   adopts its columnar section, and rebuilds from its record body only
//!   when that section is defective; version 1 always rebuilds;
//! * anything else is parsed, validated and built as a JSON
//!   [`VenueDocument`], and reported as format version 0.
//!
//! Version 1 files are still read but no longer written. Their layout is
//! the record body that version 2 keeps (all integers little-endian):
//!
//! ```text
//! magic            8 bytes  b"IKRQVEN\0"
//! format version   u16
//! name             optional string (u8 tag + string)
//! grid cell        f64
//! floors           u32 count, then per floor: i32 floor, 4×f64 bounds
//! partitions       u32 count, then per partition:
//!                    u32 id, i32 floor, u8 kind, 4×f64 footprint,
//!                    optional string name
//! doors            u32 count, then per door: u32 id, 2×f64, i32 floor, u8 kind
//! connections      u32 count, then per connection: u32 door, u32 partition, u8 flags
//! intra overrides  u32 count, then u32 partition, u32 from, u32 to, f64
//! loop overrides   u32 count, then u32 partition, u32 door, f64
//! keywords         u32 count, then per i-word:
//!                    string iword, u32 partition count + u32s,
//!                    u32 t-word count + strings
//! index section    optional (see [`crate::index_section`])
//! ```
//!
//! Strings are a `u32` byte length followed by UTF-8 bytes.
//!
//! Version 2 wraps the same record body for the columnar cold-start path
//! (see [`crate::columnar`] and `docs/PERSIST.md`):
//!
//! ```text
//! magic            8 bytes  b"IKRQVEN\0"
//! format version   u16 = 2
//! record body len  u32 (advisory: lets loaders jump to the sections)
//! record body      the v1 fields, name through keywords
//! columnar section b"IKRQCOL\0" + u16 version + u32 len + body + u64 checksum
//! index section    optional, as in v1
//! ```
//!
//! The loader skips the record body on the fast path and decodes it only
//! when the columnar section is damaged or outdated: the record body
//! remains the source of truth a rebuild can always fall back to.

use crate::codec::{kind_code, kind_of_code, put_optional_string, put_string, section_len, Reader};
use crate::columnar::{adopt_columnar_parts, decode_columnar_parts, encode_columnar_section};
use crate::document::{
    door_kind_from_label, door_kind_to_label, partition_kind_from_label, ConnectionRecord,
    DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord, LoopOverrideRecord,
    PartitionRecord, VenueDocument, FORMAT_VERSION,
};
use crate::error::PersistError;
use crate::index_section::{decode_index_section, encode_index_section, IndexSection, INDEX_MAGIC};
use crate::Result;
use bytes::{BufMut, Bytes, BytesMut};
use ikrq_core::DocumentStats;
use indoor_index::VenueIndex;
use indoor_keywords::KeywordDirectory;
use indoor_space::{DoorKind, IndoorSpace, PartitionKind};
use std::fs;
use std::path::Path;
use std::time::Instant;

const MAGIC: &[u8; 8] = b"IKRQVEN\0";

/// File format version that appends a columnar document section after the
/// record body. This is a property of the *file*, not of the document model:
/// the record body inside a v2 file is plain [`FORMAT_VERSION`] content.
pub const COLUMNAR_FILE_VERSION: u16 = 2;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes the record fields shared by both file versions: everything after
/// the version word, name through keywords.
fn encode_record_body(buf: &mut BytesMut, doc: &VenueDocument) -> Result<()> {
    put_optional_string(buf, doc.name.as_deref());
    buf.put_f64_le(doc.grid_cell);

    buf.put_u32_le(doc.floors.len() as u32);
    for f in &doc.floors {
        buf.put_i32_le(f.floor);
        for v in f.bounds {
            buf.put_f64_le(v);
        }
    }

    buf.put_u32_le(doc.partitions.len() as u32);
    for p in &doc.partitions {
        buf.put_u32_le(p.id);
        buf.put_i32_le(p.floor);
        buf.put_u8(kind_code(partition_kind_from_label(&p.kind)?));
        for v in p.footprint {
            buf.put_f64_le(v);
        }
        put_optional_string(buf, p.name.as_deref());
    }

    buf.put_u32_le(doc.doors.len() as u32);
    for d in &doc.doors {
        buf.put_u32_le(d.id);
        buf.put_f64_le(d.position[0]);
        buf.put_f64_le(d.position[1]);
        buf.put_i32_le(d.floor);
        buf.put_u8(kind_code(door_kind_from_label(&d.kind)?));
    }

    buf.put_u32_le(doc.connections.len() as u32);
    for c in &doc.connections {
        buf.put_u32_le(c.door);
        buf.put_u32_le(c.partition);
        buf.put_u8(u8::from(c.enterable) | (u8::from(c.leavable) << 1));
    }

    buf.put_u32_le(doc.intra_overrides.len() as u32);
    for o in &doc.intra_overrides {
        buf.put_u32_le(o.partition);
        buf.put_u32_le(o.from_door);
        buf.put_u32_le(o.to_door);
        buf.put_f64_le(o.distance);
    }

    buf.put_u32_le(doc.loop_overrides.len() as u32);
    for o in &doc.loop_overrides {
        buf.put_u32_le(o.partition);
        buf.put_u32_le(o.door);
        buf.put_f64_le(o.distance);
    }

    buf.put_u32_le(doc.keywords.len() as u32);
    for k in &doc.keywords {
        put_string(buf, &k.iword);
        buf.put_u32_le(k.partitions.len() as u32);
        for &v in &k.partitions {
            buf.put_u32_le(v);
        }
        buf.put_u32_le(k.twords.len() as u32);
        for t in &k.twords {
            put_string(buf, t);
        }
    }

    Ok(())
}

/// Encodes a venue document in the columnar file format (version 2): the v1
/// record body, a columnar section capturing `space` and `directory`
/// wholesale, and optionally a pre-built index section.
///
/// `space` and `directory` must be the model rebuilt from `doc` itself
/// (i.e. the output of [`VenueDocument::build`]) — interned word ids and CSR
/// layouts are insertion-order artifacts, and the adopted model must be
/// indistinguishable from a record-body rebuild. `index`, when given, must
/// have been built against that same `directory` (its section records the
/// directory fingerprint, and loaders verify it).
pub fn encode_venue_columnar(
    doc: &VenueDocument,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    index: Option<&VenueIndex>,
) -> Result<Bytes> {
    doc.validate()?;
    let mut record = BytesMut::with_capacity(1 << 16);
    encode_record_body(&mut record, doc)?;
    let mut buf = BytesMut::with_capacity(record.len() + (1 << 17));
    buf.put_slice(MAGIC);
    buf.put_u16_le(COLUMNAR_FILE_VERSION);
    buf.put_u32_le(record.len() as u32);
    buf.put_slice(record.as_ref());
    encode_columnar_section(
        &mut buf,
        doc.name.as_deref(),
        space,
        directory,
        doc.grid_cell,
    );
    if let Some(index) = index {
        encode_index_section(&mut buf, index, directory);
    }
    Ok(buf.freeze())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Reads a binary venue file's header: the magic, the file version and,
/// in a version 2 file, the record-body length (advisory: it lets the
/// loader jump to the sections, and the record decoder does not trust it).
/// The reader is left at the record body.
fn read_header(payload: &[u8]) -> Result<(u16, Option<usize>, Reader<'_>)> {
    let mut r = Reader::new(payload, "payload");
    let magic = r
        .block(MAGIC.len(), 1, "magic")
        .map_err(PersistError::Binary)?;
    if magic != MAGIC {
        return Err(PersistError::Binary("wrong magic bytes".into()));
    }
    let version = r.u16("format version").map_err(PersistError::Binary)?;
    if version > COLUMNAR_FILE_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: COLUMNAR_FILE_VERSION,
        });
    }
    let record_len = (version >= COLUMNAR_FILE_VERSION)
        .then(|| r.u32("record body length"))
        .transpose()
        .map_err(PersistError::Binary)?;
    Ok((version, record_len.map(|n| n as usize), r))
}

/// Decodes the record body of a binary venue file of either version,
/// leaving `r` at whatever follows it. The document model stays at
/// [`FORMAT_VERSION`] inside a columnar file; only the wrapper differs.
fn read_records(
    r: &mut Reader<'_>,
    format_version: u16,
) -> std::result::Result<VenueDocument, String> {
    let name = r.optional_string("venue name")?;
    let grid_cell = r.f64("grid cell")?;

    let mut floors = Vec::new();
    for _ in 0..r.count("floor count")? {
        let floor = r.i32("floor id")?;
        let mut bounds = [0.0; 4];
        for b in &mut bounds {
            *b = r.f64("floor bounds")?;
        }
        floors.push(FloorRecord { floor, bounds });
    }

    let mut partitions = Vec::new();
    for _ in 0..r.count("partition count")? {
        let id = r.u32("partition id")?;
        let floor = r.i32("partition floor")?;
        let kind = kind_of_code::<PartitionKind>(r.u8("partition kind")?)?;
        let mut footprint = [0.0; 4];
        for b in &mut footprint {
            *b = r.f64("partition footprint")?;
        }
        let name = r.optional_string("partition name")?;
        partitions.push(PartitionRecord {
            id,
            floor,
            kind: kind.label().to_string(),
            footprint,
            name,
        });
    }

    let mut doors = Vec::new();
    for _ in 0..r.count("door count")? {
        let id = r.u32("door id")?;
        let x = r.f64("door x")?;
        let y = r.f64("door y")?;
        let floor = r.i32("door floor")?;
        let kind = kind_of_code::<DoorKind>(r.u8("door kind")?)?;
        doors.push(DoorRecord {
            id,
            position: [x, y],
            floor,
            kind: door_kind_to_label(kind).to_string(),
        });
    }

    let mut connections = Vec::new();
    for _ in 0..r.count("connection count")? {
        let door = r.u32("connection door")?;
        let partition = r.u32("connection partition")?;
        let flags = r.u8("connection flags")?;
        if flags & !0b11 != 0 {
            return Err(format!("invalid connection flags {flags:#x}"));
        }
        connections.push(ConnectionRecord {
            door,
            partition,
            enterable: flags & 0b01 != 0,
            leavable: flags & 0b10 != 0,
        });
    }

    let mut intra_overrides = Vec::new();
    for _ in 0..r.count("intra override count")? {
        intra_overrides.push(IntraOverrideRecord {
            partition: r.u32("override partition")?,
            from_door: r.u32("override from door")?,
            to_door: r.u32("override to door")?,
            distance: r.f64("override distance")?,
        });
    }

    let mut loop_overrides = Vec::new();
    for _ in 0..r.count("loop override count")? {
        loop_overrides.push(LoopOverrideRecord {
            partition: r.u32("loop partition")?,
            door: r.u32("loop door")?,
            distance: r.f64("loop distance")?,
        });
    }

    let mut keywords = Vec::new();
    for _ in 0..r.count("keyword count")? {
        let iword = r.string("i-word")?;
        let mut partitions_of = Vec::new();
        for _ in 0..r.count("i-word partition count")? {
            partitions_of.push(r.u32("i-word partition")?);
        }
        let mut twords = Vec::new();
        for _ in 0..r.count("t-word count")? {
            twords.push(r.string("t-word")?);
        }
        keywords.push(KeywordRecord {
            iword,
            partitions: partitions_of,
            twords,
        });
    }

    Ok(VenueDocument {
        format_version,
        name,
        grid_cell,
        floors,
        partitions,
        doors,
        connections,
        intra_overrides,
        loop_overrides,
        keywords,
    })
}

/// A venue loaded straight into its in-memory model: the space, the keyword
/// directory, whatever the file's pre-built index section held, and how the
/// load went.
#[derive(Debug)]
pub struct LoadedVenue {
    /// Optional human-readable venue name from the document.
    pub name: Option<String>,
    /// The indoor space model.
    pub space: IndoorSpace,
    /// The keyword directory.
    pub directory: KeywordDirectory,
    /// Outcome of the optional pre-built index section.
    pub index: IndexSection,
    /// Load-path observability, as `/v1/stats` reports it.
    pub stats: DocumentStats,
}

/// Loads a venue file's bytes straight into its in-memory model, picking
/// the format from the content (see the module docs).
///
/// Version 2 payloads take the columnar fast path: the record body is
/// skipped, the columnar section decodes into flat columns, and the model
/// adopts them wholesale. *Any* columnar defect — damaged framing, checksum
/// mismatch, version skew, a column the adoption scans reject — degrades to
/// the v1-style path (decode the record body, replay the builders) with the
/// reason recorded in [`DocumentStats::degraded`]; a venue file never fails
/// to load because of its columnar section. Version 1 payloads always
/// rebuild, and JSON documents always build.
pub fn load_venue_model(payload: &[u8]) -> Result<LoadedVenue> {
    if !payload.starts_with(MAGIC) {
        return load_json_venue(payload);
    }
    let (file_version, record_len, records) = read_header(payload)?;
    let mut degraded = None;
    if let Some(record_len) = record_len {
        match adopt_venue_model(records.rest(), record_len) {
            Ok(loaded) => return Ok(loaded),
            Err(reason) => degraded = Some(reason),
        }
    }
    rebuild_venue_model(file_version, records, degraded)
}

/// The columnar rung of a version 2 file: skip the record body, decode the
/// columnar section and adopt it. Any defect comes back as the reason to
/// fall back to the record rebuild.
fn adopt_venue_model(
    records: &[u8],
    record_len: usize,
) -> std::result::Result<LoadedVenue, String> {
    let rest = records
        .get(record_len..)
        .ok_or("record body length overruns the file")?;
    let len = section_len(rest, &crate::columnar::SECTION)
        .ok_or("columnar section framing is damaged or missing")?;
    let started = Instant::now();
    let parts = decode_columnar_parts(&rest[..len])?;
    let decode_micros = started.elapsed().as_micros() as u64;
    let started = Instant::now();
    let (name, space, directory) = adopt_columnar_parts(parts)?;
    let adopt_micros = started.elapsed().as_micros() as u64;
    Ok(LoadedVenue {
        name,
        space,
        directory,
        index: decode_index_section(&rest[len..]),
        stats: DocumentStats {
            format_version: COLUMNAR_FILE_VERSION,
            adopted_columnar: true,
            decode_micros,
            adopt_micros,
            degraded: None,
        },
    })
}

/// The degradation ladder's rebuild rung: decode the record body (of a v1
/// file, or of a v2 file whose columnar section was unusable) and replay
/// the builders. In a v1 file, trailing bytes must form an index section;
/// in a v2 file the index section sits after the columnar section, and is
/// reported unusable when the columnar framing is too damaged to skip.
fn rebuild_venue_model(
    file_version: u16,
    mut records: Reader<'_>,
    degraded: Option<String>,
) -> Result<LoadedVenue> {
    let started = Instant::now();
    let doc = read_records(&mut records, file_version.min(FORMAT_VERSION))
        .map_err(PersistError::Binary)?;
    doc.validate()?;
    let rest = records.rest();
    let index = if file_version < COLUMNAR_FILE_VERSION {
        if !rest.is_empty() && !rest.starts_with(INDEX_MAGIC) {
            return Err(PersistError::Binary(format!(
                "{} trailing bytes after the document",
                rest.len()
            )));
        }
        decode_index_section(rest)
    } else {
        match section_len(rest, &crate::columnar::SECTION) {
            Some(len) => decode_index_section(&rest[len..]),
            None if rest.is_empty() => IndexSection::Absent,
            None => IndexSection::Unusable(
                "columnar section framing is damaged; cannot locate the index section".into(),
            ),
        }
    };
    let decode_micros = started.elapsed().as_micros() as u64;
    let started = Instant::now();
    let (space, directory) = doc.build()?;
    let adopt_micros = started.elapsed().as_micros() as u64;
    Ok(LoadedVenue {
        name: doc.name,
        space,
        directory,
        index,
        stats: DocumentStats {
            format_version: file_version,
            adopted_columnar: false,
            decode_micros,
            adopt_micros,
            degraded,
        },
    })
}

/// Loads a JSON venue document: parse, validate and build. JSON carries no
/// index section and is reported as format version 0.
fn load_json_venue(payload: &[u8]) -> Result<LoadedVenue> {
    let started = Instant::now();
    let text = std::str::from_utf8(payload).map_err(|e| {
        PersistError::InvalidDocument(format!(
            "neither a binary venue file (no `IKRQVEN` magic) nor UTF-8 JSON: {e}"
        ))
    })?;
    let doc: VenueDocument = crate::json::from_json_str(text)?;
    let decode_micros = started.elapsed().as_micros() as u64;
    let started = Instant::now();
    let (space, directory) = doc.build()?;
    let adopt_micros = started.elapsed().as_micros() as u64;
    Ok(LoadedVenue {
        name: doc.name,
        space,
        directory,
        index: IndexSection::Absent,
        stats: DocumentStats {
            format_version: 0,
            adopted_columnar: false,
            decode_micros,
            adopt_micros,
            degraded: None,
        },
    })
}

fn write_file(path: &Path, payload: &[u8]) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, payload)?;
    Ok(())
}

/// Writes a venue in the columnar file format (version 2), with an optional
/// pre-built index section. See [`encode_venue_columnar`] for the binding
/// contract on `space`/`directory`/`index`.
pub fn save_venue_columnar(
    doc: &VenueDocument,
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    index: Option<&VenueIndex>,
    path: impl AsRef<Path>,
) -> Result<()> {
    write_file(
        path.as_ref(),
        &encode_venue_columnar(doc, space, directory, index)?,
    )
}

/// Reads a venue file of any format straight into its in-memory model (see
/// [`load_venue_model`]).
pub fn load_venue_model_file(path: impl AsRef<Path>) -> Result<LoadedVenue> {
    let payload = fs::read(path)?;
    load_venue_model(&payload)
}

/// A version 1 file for `doc`: the file header, then the record body.
/// Nothing writes these any more; the tests use it to exercise the reader.
#[cfg(test)]
fn encode_v1(doc: &VenueDocument) -> Result<Vec<u8>> {
    doc.validate()?;
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(doc.format_version);
    encode_record_body(&mut buf, doc)?;
    Ok(buf.as_ref().to_vec())
}

/// The record body of a whole binary venue file: the document, the file
/// version and the bytes after the records.
#[cfg(test)]
fn decode_file(payload: &[u8]) -> Result<(VenueDocument, u16, &[u8])> {
    let (version, _, mut records) = read_header(payload)?;
    let doc =
        read_records(&mut records, version.min(FORMAT_VERSION)).map_err(PersistError::Binary)?;
    doc.validate()?;
    Ok((doc, version, records.rest()))
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    fn rebuild(payload: &[u8]) -> LoadedVenue {
        let (version, _, records) = read_header(payload).unwrap();
        rebuild_venue_model(version, records, None).unwrap()
    }

    fn tiny_document() -> VenueDocument {
        VenueDocument {
            format_version: FORMAT_VERSION,
            name: Some("binary test".into()),
            grid_cell: 12.5,
            floors: vec![FloorRecord {
                floor: 0,
                bounds: [0.0, 0.0, 30.0, 10.0],
            }],
            partitions: vec![
                PartitionRecord {
                    id: 0,
                    floor: 0,
                    kind: "room".into(),
                    footprint: [0.0, 0.0, 10.0, 10.0],
                    name: Some("zara".into()),
                },
                PartitionRecord {
                    id: 1,
                    floor: 0,
                    kind: "hallway".into(),
                    footprint: [10.0, 0.0, 20.0, 10.0],
                    name: None,
                },
                PartitionRecord {
                    id: 2,
                    floor: 0,
                    kind: "staircase".into(),
                    footprint: [20.0, 0.0, 30.0, 10.0],
                    name: Some("stairs".into()),
                },
            ],
            doors: vec![
                DoorRecord {
                    id: 0,
                    position: [10.0, 5.0],
                    floor: 0,
                    kind: "normal".into(),
                },
                DoorRecord {
                    id: 1,
                    position: [20.0, 5.0],
                    floor: 0,
                    kind: "stair".into(),
                },
            ],
            connections: vec![
                ConnectionRecord {
                    door: 0,
                    partition: 0,
                    enterable: true,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 0,
                    partition: 1,
                    enterable: true,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 1,
                    partition: 1,
                    enterable: false,
                    leavable: true,
                },
                ConnectionRecord {
                    door: 1,
                    partition: 2,
                    enterable: true,
                    leavable: false,
                },
            ],
            intra_overrides: vec![IntraOverrideRecord {
                partition: 2,
                from_door: 1,
                to_door: 1,
                distance: 20.0,
            }],
            loop_overrides: vec![LoopOverrideRecord {
                partition: 0,
                door: 0,
                distance: 18.0,
            }],
            keywords: vec![
                KeywordRecord {
                    iword: "zara".into(),
                    partitions: vec![0],
                    twords: vec!["coat".into(), "pants".into()],
                },
                KeywordRecord {
                    iword: "unassigned-brand".into(),
                    partitions: vec![],
                    twords: vec!["widget".into()],
                },
            ],
        }
    }

    #[test]
    fn binary_round_trip_preserves_the_document() {
        let doc = tiny_document();
        let payload = encode_v1(&doc).unwrap();
        assert_eq!(&payload[..8], MAGIC);
        let (back, file_version, rest) = decode_file(&payload).unwrap();
        assert_eq!(back, doc);
        assert_eq!(file_version, FORMAT_VERSION);
        assert!(rest.is_empty());
    }

    #[test]
    fn binary_is_smaller_than_json_for_the_same_document() {
        let doc = tiny_document();
        let payload = encode_v1(&doc).unwrap();
        let json = crate::json::to_json_string(&doc).unwrap();
        assert!(payload.len() < json.len());
    }

    #[test]
    fn wrong_magic_and_truncation_are_detected() {
        let doc = tiny_document();
        let payload = encode_v1(&doc).unwrap();

        let mut corrupt = payload.to_vec();
        corrupt[0] = b'X';
        assert!(matches!(
            decode_file(&corrupt),
            Err(PersistError::Binary(_))
        ));

        for cut in [9, payload.len() / 2, payload.len() - 1] {
            assert!(load_venue_model(&payload[..cut]).is_err(), "cut at {cut}");
        }

        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(matches!(
            load_venue_model(&trailing),
            Err(PersistError::Binary(_))
        ));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        doc.format_version = FORMAT_VERSION + 1;
        assert!(encode_venue_columnar(&doc, &space, &directory, None).is_err());
        // Patch a valid payload's version field directly (offset 8..10) to
        // one past the highest supported *file* version.
        let payload = encode_v1(&tiny_document()).unwrap();
        let mut patched = payload.to_vec();
        patched[8] = (COLUMNAR_FILE_VERSION + 1) as u8;
        assert!(matches!(
            load_venue_model(&patched),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn columnar_files_adopt_the_model_and_still_decode_as_documents() {
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        let payload = encode_venue_columnar(&doc, &space, &directory, None).unwrap();

        // The record body survives verbatim: the record decoder sees plain
        // v1 content.
        let (back, file_version, _) = decode_file(&payload).unwrap();
        assert_eq!(back, doc);
        assert_eq!(file_version, COLUMNAR_FILE_VERSION);
        let rebuilt = rebuild(&payload);
        assert!(matches!(rebuilt.index, IndexSection::Absent));

        // The model loader takes the columnar fast path and lands on the
        // same model a rebuild produces.
        let loaded = load_venue_model(&payload).unwrap();
        assert!(loaded.stats.adopted_columnar, "{:?}", loaded.stats);
        assert_eq!(loaded.stats.format_version, COLUMNAR_FILE_VERSION);
        assert!(loaded.stats.degraded.is_none());
        assert_eq!(loaded.name, doc.name);
        assert_eq!(loaded.space.num_partitions(), space.num_partitions());
        assert_eq!(loaded.space.num_doors(), space.num_doors());
        assert_eq!(loaded.directory.fingerprint(), directory.fingerprint());

        // A v1 payload rebuilds through the same entry point.
        let v1 = encode_v1(&doc).unwrap();
        let rebuilt = load_venue_model(&v1).unwrap();
        assert!(!rebuilt.stats.adopted_columnar);
        assert_eq!(rebuilt.stats.format_version, FORMAT_VERSION);
        assert_eq!(rebuilt.directory.fingerprint(), directory.fingerprint());
    }

    #[test]
    fn columnar_files_carry_an_index_section() {
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        let index = indoor_index::VenueIndex::build(&space, &directory);
        let payload = encode_venue_columnar(&doc, &space, &directory, Some(&index)).unwrap();
        let loaded = load_venue_model(&payload).unwrap();
        assert!(loaded.stats.adopted_columnar);
        let IndexSection::Present(prebuilt) = loaded.index else {
            panic!("expected a present index section, got {:?}", loaded.index);
        };
        // The section binds against the *adopted* directory — fingerprint
        // identity with the rebuild path is what makes this possible.
        assert!(prebuilt.into_index(&loaded.directory).is_ok());
        // The rebuild rung can locate the index behind the columnar section.
        let rebuilt = rebuild(&payload);
        assert!(matches!(rebuilt.index, IndexSection::Present(_)));
    }

    #[test]
    fn json_documents_are_loaded_by_content() {
        let doc = tiny_document();
        let text = crate::json::to_json_string(&doc).unwrap();
        let loaded = load_venue_model(text.as_bytes()).unwrap();
        assert_eq!(loaded.stats.format_version, 0);
        assert!(!loaded.stats.adopted_columnar);
        assert!(loaded.stats.degraded.is_none());
        assert!(matches!(loaded.index, IndexSection::Absent));
        assert_eq!(loaded.name, doc.name);
        let (_, directory) = doc.build().unwrap();
        assert_eq!(loaded.directory.fingerprint(), directory.fingerprint());

        // Each format reports its own defect: a JSON document cut short is a
        // JSON error, and bytes that are neither format say so.
        assert!(matches!(
            load_venue_model(&text.as_bytes()[..text.len() / 2]),
            Err(PersistError::Json(_))
        ));
        let err = load_venue_model(&[0xff, 0xfe, 0x00]).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn negative_override_distances_fail_the_load_and_name_the_override() {
        let mut doc = tiny_document();
        doc.intra_overrides[0].distance = -5.0;
        let text = crate::json::to_json_string(&doc).unwrap();
        let build_err = doc.build().unwrap_err();
        let load_err = load_venue_model(text.as_bytes()).unwrap_err();
        for err in [build_err, load_err] {
            assert!(matches!(err, PersistError::Space(_)), "{err}");
            let message = err.to_string();
            assert!(
                message.contains("intra-distance override d1→d1 in partition v2 is -5"),
                "{message}"
            );
        }
        // The record path refuses the same distance.
        assert!(load_venue_model(&raw_payload(0, 0, 4.0)).is_ok());
        for distance in [-1.0, f64::NAN] {
            assert!(matches!(
                load_venue_model(&raw_payload(0, 0, distance)),
                Err(PersistError::Space(_))
            ));
        }
    }

    #[test]
    fn a_corrupt_footprint_or_grid_cell_is_a_load_error_naming_the_grid() {
        // XOR 0xff of byte 95 of the committed v1 file turns the first
        // partition footprint's min.x from 0 into about -5.5e303: the
        // floor's grid would span ~4e303 cells.
        let mut file = include_bytes!("../tests/fixtures/fig1-v1.ikrq").to_vec();
        assert!(load_venue_model(&file).is_ok());
        file[95] ^= 0xff;
        let err = load_venue_model(&file).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Space(indoor_space::SpaceError::OversizedGrid { cell, .. })
                    if cell == 10.0
            ),
            "{err}"
        );
        let message = err.to_string();
        assert!(
            message.contains("grid of floor F0 would span 3.840e303 cells of 10 m"),
            "{message}"
        );
        // A grid cell too small for the floor meets the same limit.
        let mut doc = tiny_document();
        doc.grid_cell = 1e-3;
        let text = crate::json::to_json_string(&doc).unwrap();
        let message = load_venue_model(text.as_bytes()).unwrap_err().to_string();
        assert!(message.contains("grid of floor F0 would span"), "{message}");
    }

    #[test]
    fn any_columnar_defect_degrades_to_a_rebuild() {
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        let payload = encode_venue_columnar(&doc, &space, &directory, None).unwrap();
        let record_len =
            u32::from_le_bytes([payload[10], payload[11], payload[12], payload[13]]) as usize;
        let section_start = 14 + record_len;

        // Flip every byte of the columnar section in turn: the model must
        // always load, fall back to the rebuild, and record a reason.
        for i in section_start..payload.len() {
            let mut corrupt = payload.to_vec();
            corrupt[i] ^= 0xff;
            let loaded = load_venue_model(&corrupt)
                .unwrap_or_else(|e| panic!("flip at {i} failed the load: {e}"));
            assert!(!loaded.stats.adopted_columnar, "flip at {i} still adopted");
            assert!(
                loaded.stats.degraded.is_some(),
                "flip at {i} lost the reason"
            );
            assert_eq!(loaded.directory.fingerprint(), directory.fingerprint());
        }

        // A lying advisory record-body length also degrades, because the
        // skip no longer lands on the columnar magic.
        let mut lying = payload.to_vec();
        lying[10] ^= 0x01;
        let loaded = load_venue_model(&lying).unwrap();
        assert!(!loaded.stats.adopted_columnar);

        // Checksum-valid framing around a garbage body degrades too (the
        // column decoder, not the checksum, rejects it).
        let mut reframed = BytesMut::new();
        reframed.put_slice(&payload[..section_start]);
        crate::codec::frame_section(&mut reframed, &crate::columnar::SECTION, &[0xff; 32]);
        let loaded = load_venue_model(reframed.as_ref()).unwrap();
        assert!(!loaded.stats.adopted_columnar);
        assert!(loaded.stats.degraded.is_some());
    }

    /// Builds a raw v1 payload record by record, bypassing the encoder's
    /// validation, so decode-side handling of dangling references and
    /// unusable override distances is testable.
    fn raw_payload(connection_partition: u32, override_from_door: u32, distance: f64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u8(0); // no name
        buf.put_f64_le(10.0); // grid cell
        buf.put_u32_le(0); // floors
        buf.put_u32_le(1); // partitions
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u8(0); // room
        for v in [0.0, 0.0, 10.0, 10.0] {
            buf.put_f64_le(v);
        }
        buf.put_u8(0); // unnamed
        buf.put_u32_le(1); // doors
        buf.put_u32_le(0);
        buf.put_f64_le(5.0);
        buf.put_f64_le(10.0);
        buf.put_i32_le(0);
        buf.put_u8(0); // normal
        buf.put_u32_le(1); // connections
        buf.put_u32_le(0);
        buf.put_u32_le(connection_partition);
        buf.put_u8(0b11);
        buf.put_u32_le(1); // intra overrides
        buf.put_u32_le(0);
        buf.put_u32_le(override_from_door);
        buf.put_u32_le(0);
        buf.put_f64_le(distance);
        buf.put_u32_le(0); // loop overrides
        buf.put_u32_le(0); // keywords
        buf.as_ref().to_vec()
    }

    #[test]
    fn dangling_references_decode_to_invalid_document_errors() {
        // Sanity: the same payload with in-range references decodes.
        assert!(decode_file(&raw_payload(0, 0, 4.0)).is_ok());
        // A connection to a partition that does not exist.
        assert!(matches!(
            decode_file(&raw_payload(9, 0, 4.0)),
            Err(PersistError::InvalidDocument(_))
        ));
        // An override through a door that does not exist, through the model
        // loader as well as the record decoder.
        assert!(matches!(
            decode_file(&raw_payload(0, 7, 4.0)),
            Err(PersistError::InvalidDocument(_))
        ));
        assert!(matches!(
            load_venue_model(&raw_payload(0, 7, 4.0)),
            Err(PersistError::InvalidDocument(_))
        ));
    }

    #[test]
    fn invalid_kind_codes_and_flags_are_rejected() {
        let mut buf = BytesMut::new();
        let mut doc = tiny_document();
        doc.partitions[0].kind = "castle".into();
        assert!(encode_record_body(&mut buf, &doc).is_err());
        let mut doc = tiny_document();
        doc.doors[0].kind = "hatch".into();
        assert!(encode_record_body(&mut buf, &doc).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("ikrq-binary-test-{}", std::process::id()));
        let path = dir.join("venue.ikrq");
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        save_venue_columnar(&doc, &space, &directory, None, &path).unwrap();
        let back = load_venue_model_file(&path).unwrap();
        assert!(back.stats.adopted_columnar);
        assert_eq!(back.directory.fingerprint(), directory.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }
}
