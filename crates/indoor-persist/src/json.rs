//! JSON serialisation of the persistence documents, plus file helpers.
//!
//! JSON is the interchange format of the repository's tooling (the `ikrq`
//! command-line tool reads and writes it, the benchmark harness emits it);
//! the [`crate::binary`] columnar file is the compact alternative for large
//! venues. Venue documents are read back, like every venue file, through
//! [`crate::load_venue_model`], which recognises JSON by its content.

use crate::document::VenueDocument;
use crate::error::PersistError;
use crate::workload::{ResultDocument, WorkloadDocument};
use crate::Result;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs;
use std::path::Path;

/// Serialises any document to pretty-printed JSON.
pub fn to_json_string<T: Serialize>(doc: &T) -> Result<String> {
    serde_json::to_string_pretty(doc).map_err(PersistError::from)
}

/// Deserialises any document from JSON text.
pub fn from_json_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    serde_json::from_str(text).map_err(PersistError::from)
}

/// Writes a document as JSON to a file (creating parent directories).
pub fn save_json<T: Serialize>(doc: &T, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, to_json_string(doc)?)?;
    Ok(())
}

/// Reads a document from a JSON file.
pub fn load_json<T: DeserializeOwned>(path: impl AsRef<Path>) -> Result<T> {
    let text = fs::read_to_string(path)?;
    from_json_str(&text)
}

/// Saves a venue document after validating it.
pub fn save_venue_json(doc: &VenueDocument, path: impl AsRef<Path>) -> Result<()> {
    doc.validate()?;
    save_json(doc, path)
}

/// Saves a workload document.
pub fn save_workload_json(doc: &WorkloadDocument, path: impl AsRef<Path>) -> Result<()> {
    save_json(doc, path)
}

/// Loads a workload document.
pub fn load_workload_json(path: impl AsRef<Path>) -> Result<WorkloadDocument> {
    load_json(path)
}

/// Saves a result document.
pub fn save_results_json(doc: &ResultDocument, path: impl AsRef<Path>) -> Result<()> {
    save_json(doc, path)
}

/// Loads a result document.
pub fn load_results_json(path: impl AsRef<Path>) -> Result<ResultDocument> {
    load_json(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{
        ConnectionRecord, DoorRecord, FloorRecord, KeywordRecord, PartitionRecord, FORMAT_VERSION,
    };

    fn tiny_document() -> VenueDocument {
        VenueDocument {
            format_version: FORMAT_VERSION,
            name: None,
            grid_cell: 25.0,
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
                    name: None,
                },
                PartitionRecord {
                    id: 1,
                    floor: 0,
                    kind: "hallway".into(),
                    footprint: [10.0, 0.0, 20.0, 10.0],
                    name: None,
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
            loop_overrides: vec![],
            keywords: vec![KeywordRecord {
                iword: "zara".into(),
                partitions: vec![0],
                twords: vec!["coat".into()],
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_the_document() {
        let doc = tiny_document();
        let text = to_json_string(&doc).unwrap();
        assert!(text.contains("\"zara\""));
        let back: VenueDocument = from_json_str(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn file_round_trip_and_validation() {
        let dir = std::env::temp_dir().join(format!("ikrq-persist-test-{}", std::process::id()));
        let path = dir.join("nested/venue.json");
        let doc = tiny_document();
        save_venue_json(&doc, &path).unwrap();
        let back: VenueDocument = load_json(&path).unwrap();
        assert_eq!(back, doc);
        let loaded = crate::load_venue_model_file(&path).unwrap();
        assert_eq!(loaded.stats.format_version, 0);
        assert_eq!(loaded.space.num_partitions(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_documents_are_rejected_on_save_and_load() {
        let mut doc = tiny_document();
        doc.connections[0].partition = 50;
        let dir = std::env::temp_dir().join(format!("ikrq-persist-bad-{}", std::process::id()));
        let path = dir.join("bad.json");
        assert!(save_venue_json(&doc, &path).is_err());
        // Write the raw (invalid) JSON and check the loader rejects it too.
        save_json(&doc, &path).unwrap();
        assert!(crate::load_venue_model_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_json_is_reported_as_json_error() {
        let err = from_json_str::<VenueDocument>("{ not json").unwrap_err();
        assert!(matches!(err, PersistError::Json(_)));
    }

    #[test]
    fn missing_file_is_reported_as_io_error() {
        let err = crate::load_venue_model_file("/nonexistent/definitely/missing.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
