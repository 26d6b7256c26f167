//! Answer checking against the executable spec.
//!
//! The oracle hosts the very venue files the servers load, but answers with
//! the linear-scan engine (`IndexMode::Scan`). A served answer is correct
//! when its deterministic bytes (everything but timing and metrics) equal
//! the oracle's for the same request body.

use crate::inputs::VenueFile;
use ikrq_core::{IkrqEngine, IkrqService, IndexMode, SearchRequest, SearchResponse};
use indoor_persist::binary;
use std::sync::Arc;

/// In-process scan-engine oracle over a set of venue files.
pub struct Oracle {
    service: IkrqService,
}

impl Oracle {
    /// Loads every file into a scan engine registered under its venue id.
    pub fn load(files: &[VenueFile]) -> std::io::Result<Oracle> {
        let service = IkrqService::new();
        for file in files {
            let loaded =
                binary::load_venue_model_file(&file.path).map_err(std::io::Error::other)?;
            let engine =
                IkrqEngine::with_index_mode(loaded.space, loaded.directory, IndexMode::Scan);
            service
                .register_engine(&file.id, Arc::new(engine))
                .map_err(std::io::Error::other)?;
        }
        Ok(Oracle { service })
    }

    /// The deterministic bytes the oracle answers `body` with.
    pub fn expected(&self, body: &str) -> Result<String, String> {
        let request: SearchRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
        let response = self.service.search(&request).map_err(|e| e.to_string())?;
        Ok(response.deterministic_json())
    }

    /// Index of the body the oracle answers with the least search effort
    /// (Dijkstra runs, then stamps expanded; ties to the first): a cheap,
    /// seed-determined request for timing set-up.
    pub fn cheapest(&self, bodies: &[String]) -> Option<usize> {
        (0..bodies.len()).min_by_key(|&i| {
            serde_json::from_str::<SearchRequest>(&bodies[i])
                .ok()
                .and_then(|request| self.service.search(&request).ok())
                .and_then(|response| response.metrics)
                .map_or((u64::MAX, u64::MAX), |m| {
                    (m.dijkstra_calls, m.stamps_expanded)
                })
        })
    }

    /// [`Oracle::expected`] for many bodies on two threads, in order.
    pub fn expected_all(&self, bodies: &[&str]) -> Vec<Result<String, String>> {
        let half = bodies.len().div_ceil(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .chunks(half.max(1))
                .map(|chunk| {
                    scope.spawn(move || chunk.iter().map(|b| self.expected(b)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("oracle thread"))
                .collect()
        })
    }
}

/// The deterministic bytes of a served `/v1/search` body.
pub fn served_deterministic(body: &str) -> Option<String> {
    let response: SearchResponse = serde_json::from_str(body).ok()?;
    Some(response.deterministic_json())
}

/// The deterministic bytes of one `{"ok":<response>,"err":null}` batch entry.
pub fn entry_deterministic(entry: &str) -> Option<String> {
    let value = serde_json::parse_value(entry).ok()?;
    let response: SearchResponse = serde_json::from_value(value.get("ok")?).ok()?;
    Some(response.deterministic_json())
}

/// Splits a batch reply body into the raw bytes of its `responses` entries,
/// without re-serializing anything.
pub fn batch_entries(body: &str) -> Option<Vec<&str>> {
    const KEY: &str = "\"responses\":[";
    let open = body.find(KEY)? + KEY.len();
    let bytes = body.as_bytes();
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = None;
    for (offset, &byte) in bytes[open..].iter().enumerate() {
        let at = open + offset;
        if in_string {
            match (escaped, byte) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match byte {
            b'"' => in_string = true,
            b'{' | b'[' => {
                if depth == 0 {
                    start = Some(at);
                }
                depth += 1;
            }
            b'}' | b']' if depth == 0 => return Some(entries),
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    entries.push(&body[start?..=at]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bodies_split_into_raw_entries() {
        let body = r#"{"api_version":1,"responses":[{"ok":{"a":"}]\"{"},"err":null},{"ok":null,"err":{"code":"x","message":"[y]"}}],"cache_hits":0}"#;
        let entries = batch_entries(body).unwrap();
        assert_eq!(
            entries,
            vec![
                r#"{"ok":{"a":"}]\"{"},"err":null}"#,
                r#"{"ok":null,"err":{"code":"x","message":"[y]"}}"#
            ]
        );
        assert_eq!(
            batch_entries(r#"{"responses":[]}"#).unwrap(),
            Vec::<&str>::new()
        );
        assert!(batch_entries(r#"{"error":{}}"#).is_none());
        assert!(batch_entries(r#"{"responses":[{"ok":1"#).is_none());
    }
}
