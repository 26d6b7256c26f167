//! The portable venue document: a flat, string-based description of an
//! indoor venue (space model + keyword directory) that can be serialised to
//! JSON or to the compact binary format and rebuilt into the in-memory model.
//!
//! The document deliberately stores keywords as strings rather than interned
//! word ids so that a document produced by one process can be loaded by
//! another (ids are an artefact of insertion order), and stores topology as
//! explicit `(door, partition, enterable, leavable)` connection records so
//! that the directionality of every door survives the round trip.

use crate::error::PersistError;
use crate::Result;
use indoor_geom::{Point, Rect};
use indoor_keywords::KeywordDirectory;
use indoor_space::{
    DoorId, DoorKind, FloorId, IndoorSpace, IndoorSpaceBuilder, PartitionId, PartitionKind,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Current document format version. Bumped on breaking layout changes; the
/// loaders reject documents with a higher version.
pub const FORMAT_VERSION: u16 = 1;

/// A partition record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionRecord {
    /// Dense partition identifier (index into the document's partition list).
    pub id: u32,
    /// Floor number.
    pub floor: i32,
    /// Partition kind label (`room`, `hallway`, `staircase`, `elevator`).
    pub kind: String,
    /// Footprint `[min_x, min_y, max_x, max_y]`.
    pub footprint: [f64; 4],
    /// Optional display name.
    pub name: Option<String>,
}

/// A door record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoorRecord {
    /// Dense door identifier.
    pub id: u32,
    /// Planar position `[x, y]`.
    pub position: [f64; 2],
    /// Base floor number (lower floor for vertical doors).
    pub floor: i32,
    /// Door kind label (`normal`, `stair`, `elevator`).
    pub kind: String,
}

/// A door-partition connection record with explicit directionality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnectionRecord {
    /// Door identifier.
    pub door: u32,
    /// Partition identifier.
    pub partition: u32,
    /// The partition can be entered through the door (`∈ D2PA(door)`).
    pub enterable: bool,
    /// The partition can be left through the door (`∈ D2P@(door)`).
    pub leavable: bool,
}

/// An intra-partition distance override record (stairways etc.).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraOverrideRecord {
    /// Partition the walk happens in.
    pub partition: u32,
    /// Door the partition is entered through.
    pub from_door: u32,
    /// Door the partition is left through.
    pub to_door: u32,
    /// Walking distance in metres.
    pub distance: f64,
}

/// A same-door loop-cost override record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopOverrideRecord {
    /// Partition of the loop.
    pub partition: u32,
    /// Door entered and left.
    pub door: u32,
    /// Loop cost `δd2d(d, d)` in metres.
    pub distance: f64,
}

/// A floor record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloorRecord {
    /// Floor number.
    pub floor: i32,
    /// Declared bounding rectangle `[min_x, min_y, max_x, max_y]`.
    pub bounds: [f64; 4],
}

/// The keyword knowledge of one i-word: the partitions it identifies and the
/// t-words associated with it (Definition of P2I / I2P / I2T / T2I in §III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeywordRecord {
    /// The identity word.
    pub iword: String,
    /// Partitions identified by this i-word.
    pub partitions: Vec<u32>,
    /// Thematic words associated with this i-word, sorted.
    pub twords: Vec<String>,
}

/// A portable venue document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VenueDocument {
    /// Document format version.
    pub format_version: u16,
    /// Optional human-readable venue name.
    pub name: Option<String>,
    /// Cell size of the per-floor point-location grids rebuilt on load.
    pub grid_cell: f64,
    /// Explicit floor bounds (may be a subset of the floors used by
    /// partitions; missing floors are derived from partition footprints).
    pub floors: Vec<FloorRecord>,
    /// Partitions, in identifier order.
    pub partitions: Vec<PartitionRecord>,
    /// Doors, in identifier order.
    pub doors: Vec<DoorRecord>,
    /// Door-partition connections with directionality.
    pub connections: Vec<ConnectionRecord>,
    /// Intra-partition distance overrides.
    pub intra_overrides: Vec<IntraOverrideRecord>,
    /// Same-door loop-cost overrides.
    pub loop_overrides: Vec<LoopOverrideRecord>,
    /// Keyword directory in string form, one record per i-word.
    pub keywords: Vec<KeywordRecord>,
}

fn rect_to_array(r: &Rect) -> [f64; 4] {
    [r.min.x, r.min.y, r.max.x, r.max.y]
}

fn rect_from_array(a: [f64; 4]) -> Result<Rect> {
    Rect::new(Point::new(a[0], a[1]), Point::new(a[2], a[3]))
        .map_err(|e| PersistError::InvalidDocument(format!("bad rectangle {a:?}: {e}")))
}

fn partition_kind_to_label(kind: PartitionKind) -> String {
    kind.label().to_string()
}

pub(crate) fn partition_kind_from_label(label: &str) -> Result<PartitionKind> {
    match label {
        "room" => Ok(PartitionKind::Room),
        "hallway" => Ok(PartitionKind::Hallway),
        "staircase" => Ok(PartitionKind::Staircase),
        "elevator" => Ok(PartitionKind::Elevator),
        other => Err(PersistError::InvalidDocument(format!(
            "unknown partition kind `{other}`"
        ))),
    }
}

pub(crate) fn door_kind_to_label(kind: DoorKind) -> &'static str {
    match kind {
        DoorKind::Normal => "normal",
        DoorKind::Stair => "stair",
        DoorKind::Elevator => "elevator",
    }
}

pub(crate) fn door_kind_from_label(label: &str) -> Result<DoorKind> {
    match label {
        "normal" => Ok(DoorKind::Normal),
        "stair" => Ok(DoorKind::Stair),
        "elevator" => Ok(DoorKind::Elevator),
        other => Err(PersistError::InvalidDocument(format!(
            "unknown door kind `{other}`"
        ))),
    }
}

impl VenueDocument {
    /// Captures a venue (space + keyword directory) into a portable document.
    ///
    /// `grid_cell` is the cell size the point-location grids will be rebuilt
    /// with on load; it does not affect query results, only point-location
    /// performance. The venue generators use 25 m (the builder default) and
    /// the hand-crafted example venues 10 m.
    pub fn from_venue(
        space: &IndoorSpace,
        directory: &KeywordDirectory,
        grid_cell: f64,
        name: Option<String>,
    ) -> Self {
        let partitions = space
            .partitions()
            .iter()
            .map(|p| PartitionRecord {
                id: p.id.0,
                floor: p.floor.0,
                kind: partition_kind_to_label(p.kind),
                footprint: rect_to_array(&p.footprint),
                name: p.name.clone(),
            })
            .collect();

        let doors = space
            .doors()
            .iter()
            .map(|d| DoorRecord {
                id: d.id.0,
                position: [d.position.x, d.position.y],
                floor: d.floor.0,
                kind: door_kind_to_label(d.kind).to_string(),
            })
            .collect();

        // One connection record per (door, partition) pair that appears in
        // either direction, with both flags resolved.
        let mut connections = Vec::new();
        for d in space.doors() {
            let enter = space.d2p_enter(d.id);
            let leave = space.d2p_leave(d.id);
            let mut all: Vec<PartitionId> = enter.to_vec();
            for &v in leave {
                if !all.contains(&v) {
                    all.push(v);
                }
            }
            all.sort();
            for v in all {
                connections.push(ConnectionRecord {
                    door: d.id.0,
                    partition: v.0,
                    enterable: enter.contains(&v),
                    leavable: leave.contains(&v),
                });
            }
        }

        let mut intra_overrides: Vec<IntraOverrideRecord> = space
            .intra_distance_overrides()
            .map(|(v, a, b, dist)| IntraOverrideRecord {
                partition: v.0,
                from_door: a.0,
                to_door: b.0,
                distance: dist,
            })
            .collect();
        intra_overrides.sort_by_key(|r| (r.partition, r.from_door, r.to_door));

        let mut loop_overrides: Vec<LoopOverrideRecord> = space
            .loop_distance_overrides()
            .map(|(v, d, dist)| LoopOverrideRecord {
                partition: v.0,
                door: d.0,
                distance: dist,
            })
            .collect();
        loop_overrides.sort_by_key(|r| (r.partition, r.door));

        let floors = space
            .floors()
            .into_iter()
            .filter_map(|f| {
                space.floor_bounds(f).ok().map(|b| FloorRecord {
                    floor: f.0,
                    bounds: rect_to_array(b),
                })
            })
            .collect();

        // Keywords: one record per i-word of the vocabulary (including
        // i-words not assigned to any partition — they still participate in
        // the Jaccard-based indirect matching of Definition 4), with its
        // partitions and t-words resolved to strings.
        let mut by_iword: BTreeMap<String, KeywordRecord> = BTreeMap::new();
        for iw in directory.vocab().iwords() {
            let Some(iword) = directory.resolve(iw) else {
                continue;
            };
            let mut partitions: Vec<u32> =
                directory.partitions_of(iw).iter().map(|v| v.0).collect();
            partitions.sort_unstable();
            let mut twords: Vec<String> = directory
                .twords_of(iw)
                .iter()
                .filter_map(|&t| directory.resolve(t).map(str::to_string))
                .collect();
            twords.sort();
            by_iword.insert(
                iword.to_string(),
                KeywordRecord {
                    iword: iword.to_string(),
                    partitions,
                    twords,
                },
            );
        }
        let keywords = by_iword.into_values().collect();

        VenueDocument {
            format_version: FORMAT_VERSION,
            name,
            grid_cell,
            floors,
            partitions,
            doors,
            connections,
            intra_overrides,
            loop_overrides,
            keywords,
        }
    }

    /// Validates internal consistency: version, dense identifiers, and that
    /// every reference points at an existing partition or door.
    pub fn validate(&self) -> Result<()> {
        if self.format_version > FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: self.format_version,
                supported: FORMAT_VERSION,
            });
        }
        if !(self.grid_cell.is_finite() && self.grid_cell > 0.0) {
            return Err(PersistError::InvalidDocument(format!(
                "grid cell must be positive, got {}",
                self.grid_cell
            )));
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.id as usize != i {
                return Err(PersistError::InvalidDocument(format!(
                    "partition ids must be dense and ordered: index {i} holds id {}",
                    p.id
                )));
            }
        }
        for (i, d) in self.doors.iter().enumerate() {
            if d.id as usize != i {
                return Err(PersistError::InvalidDocument(format!(
                    "door ids must be dense and ordered: index {i} holds id {}",
                    d.id
                )));
            }
        }
        let np = self.partitions.len() as u32;
        let nd = self.doors.len() as u32;
        let check_partition = |v: u32| {
            if v >= np {
                Err(PersistError::InvalidDocument(format!(
                    "reference to unknown partition {v}"
                )))
            } else {
                Ok(())
            }
        };
        let check_door = |d: u32| {
            if d >= nd {
                Err(PersistError::InvalidDocument(format!(
                    "reference to unknown door {d}"
                )))
            } else {
                Ok(())
            }
        };
        for c in &self.connections {
            check_partition(c.partition)?;
            check_door(c.door)?;
            if !c.enterable && !c.leavable {
                return Err(PersistError::InvalidDocument(format!(
                    "connection between door {} and partition {} has no direction",
                    c.door, c.partition
                )));
            }
        }
        for o in &self.intra_overrides {
            check_partition(o.partition)?;
            check_door(o.from_door)?;
            check_door(o.to_door)?;
        }
        for o in &self.loop_overrides {
            check_partition(o.partition)?;
            check_door(o.door)?;
        }
        for k in &self.keywords {
            if k.iword.trim().is_empty() {
                return Err(PersistError::InvalidDocument(
                    "empty i-word in keyword record".into(),
                ));
            }
            for &v in &k.partitions {
                check_partition(v)?;
            }
        }
        Ok(())
    }

    /// Rebuilds the in-memory venue (space model + keyword directory) from
    /// the document.
    pub fn build(&self) -> Result<(IndoorSpace, KeywordDirectory)> {
        self.validate()?;
        let mut builder = IndoorSpaceBuilder::new().with_grid_cell(self.grid_cell);

        for f in &self.floors {
            builder.add_floor(FloorId(f.floor), rect_from_array(f.bounds)?);
        }
        for p in &self.partitions {
            let id = builder.add_partition(
                FloorId(p.floor),
                partition_kind_from_label(&p.kind)?,
                rect_from_array(p.footprint)?,
                p.name.clone(),
            );
            debug_assert_eq!(id.0, p.id);
        }
        for d in &self.doors {
            let id = builder.add_door(
                Point::new(d.position[0], d.position[1]),
                FloorId(d.floor),
                door_kind_from_label(&d.kind)?,
            );
            debug_assert_eq!(id.0, d.id);
        }
        for c in &self.connections {
            builder.connect(
                DoorId(c.door),
                PartitionId(c.partition),
                c.enterable,
                c.leavable,
            );
        }
        for o in &self.intra_overrides {
            builder.set_intra_distance(
                PartitionId(o.partition),
                DoorId(o.from_door),
                DoorId(o.to_door),
                o.distance,
            );
        }
        for o in &self.loop_overrides {
            builder.set_loop_distance(PartitionId(o.partition), DoorId(o.door), o.distance);
        }
        let space = builder.build()?;

        let mut directory = KeywordDirectory::new();
        for k in &self.keywords {
            let iword = directory.add_iword(&k.iword)?;
            for t in &k.twords {
                directory.add_tword_for(iword, t);
            }
            for &v in &k.partitions {
                directory.name_partition(PartitionId(v), iword)?;
            }
        }
        Ok((space, directory))
    }

    /// Number of partitions described by the document.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of doors described by the document.
    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    /// Number of i-words described by the document.
    pub fn num_iwords(&self) -> usize {
        self.keywords.len()
    }

    /// Number of distinct t-word strings described by the document.
    pub fn num_twords(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for k in &self.keywords {
            for t in &k.twords {
                set.insert(t.as_str());
            }
        }
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_document() -> VenueDocument {
        VenueDocument {
            format_version: FORMAT_VERSION,
            name: Some("tiny".into()),
            grid_cell: 10.0,
            floors: vec![FloorRecord {
                floor: 0,
                bounds: [0.0, 0.0, 20.0, 10.0],
            }],
            partitions: vec![
                PartitionRecord {
                    id: 0,
                    floor: 0,
                    kind: "room".into(),
                    footprint: [0.0, 0.0, 10.0, 10.0],
                    name: Some("left".into()),
                },
                PartitionRecord {
                    id: 1,
                    floor: 0,
                    kind: "room".into(),
                    footprint: [10.0, 0.0, 20.0, 10.0],
                    name: Some("right".into()),
                },
            ],
            doors: vec![DoorRecord {
                id: 0,
                position: [10.0, 5.0],
                floor: 0,
                kind: "normal".into(),
            }],
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
            ],
            intra_overrides: vec![],
            loop_overrides: vec![LoopOverrideRecord {
                partition: 0,
                door: 0,
                distance: 12.0,
            }],
            keywords: vec![KeywordRecord {
                iword: "costa".into(),
                partitions: vec![1],
                twords: vec!["coffee".into(), "latte".into()],
            }],
        }
    }

    #[test]
    fn tiny_document_builds_a_working_venue() {
        let doc = tiny_document();
        doc.validate().unwrap();
        let (space, directory) = doc.build().unwrap();
        assert_eq!(space.num_partitions(), 2);
        assert_eq!(space.num_doors(), 1);
        assert_eq!(doc.num_partitions(), 2);
        assert_eq!(doc.num_doors(), 1);
        assert_eq!(doc.num_iwords(), 1);
        assert_eq!(doc.num_twords(), 2);
        let costa = directory.lookup("costa").unwrap();
        assert_eq!(directory.partitions_of(costa), &[PartitionId(1)]);
        assert_eq!(directory.twords_of(costa).len(), 2);
        // The loop override survives.
        assert!((space.loop_distance(DoorId(0), PartitionId(0)) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_through_from_venue_preserves_structure() {
        let doc = tiny_document();
        let (space, directory) = doc.build().unwrap();
        let doc2 = VenueDocument::from_venue(&space, &directory, doc.grid_cell, doc.name.clone());
        assert_eq!(doc2.partitions, doc.partitions);
        assert_eq!(doc2.doors, doc.doors);
        assert_eq!(doc2.connections, doc.connections);
        assert_eq!(doc2.loop_overrides, doc.loop_overrides);
        assert_eq!(doc2.keywords, doc.keywords);
    }

    #[test]
    fn validation_rejects_unsupported_versions_and_dangling_references() {
        let mut doc = tiny_document();
        doc.format_version = FORMAT_VERSION + 1;
        assert!(matches!(
            doc.validate(),
            Err(PersistError::UnsupportedVersion { .. })
        ));

        let mut doc = tiny_document();
        doc.connections[0].partition = 99;
        assert!(matches!(
            doc.validate(),
            Err(PersistError::InvalidDocument(_))
        ));

        let mut doc = tiny_document();
        doc.keywords[0].partitions = vec![7];
        assert!(doc.validate().is_err());

        let mut doc = tiny_document();
        doc.grid_cell = -1.0;
        assert!(doc.validate().is_err());

        let mut doc = tiny_document();
        doc.connections[0].enterable = false;
        doc.connections[0].leavable = false;
        assert!(doc.validate().is_err());

        let mut doc = tiny_document();
        doc.partitions[1].id = 5;
        assert!(doc.validate().is_err());

        let mut doc = tiny_document();
        doc.doors[0].id = 3;
        assert!(doc.validate().is_err());
    }

    #[test]
    fn unknown_kind_labels_are_rejected_at_build_time() {
        let mut doc = tiny_document();
        doc.partitions[0].kind = "lobby".into();
        assert!(matches!(doc.build(), Err(PersistError::InvalidDocument(_))));

        let mut doc = tiny_document();
        doc.doors[0].kind = "portal".into();
        assert!(matches!(doc.build(), Err(PersistError::InvalidDocument(_))));
    }

    #[test]
    fn empty_iword_is_rejected() {
        let mut doc = tiny_document();
        doc.keywords[0].iword = "   ".into();
        assert!(doc.validate().is_err());
    }
}
