//! Property-based tests of the record codec that version 1 and version 2
//! venue files share: arbitrary structurally valid venue documents survive
//! the JSON and record round trips unchanged, and the record decoder never
//! panics on corrupted payloads. They exercise the codec directly, not the
//! writer, because a generated document need not build a venue.

use super::{decode_file, encode_v1};
use crate::document::{
    ConnectionRecord, DoorRecord, FloorRecord, IntraOverrideRecord, KeywordRecord,
    LoopOverrideRecord, PartitionRecord, VenueDocument, FORMAT_VERSION,
};
use crate::json;
use proptest::prelude::*;

const KINDS: [&str; 4] = ["room", "hallway", "staircase", "elevator"];
const DOOR_KINDS: [&str; 3] = ["normal", "stair", "elevator"];

/// A generator of structurally valid venue documents: dense partition/door
/// identifiers, all references in range, at least one direction per
/// connection. Geometric plausibility (non-overlapping rooms etc.) is *not*
/// required for the serialisation round trip, so footprints are free.
fn arb_document() -> impl Strategy<Value = VenueDocument> {
    let num_partitions = 1usize..8;
    let num_doors = 1usize..10;
    (num_partitions, num_doors).prop_flat_map(|(np, nd)| {
        let partitions = proptest::collection::vec(
            (
                0i32..3,
                0usize..KINDS.len(),
                (0.0f64..100.0, 0.0f64..100.0, 1.0f64..50.0, 1.0f64..50.0),
                proptest::option::of("[a-z]{1,8}"),
            ),
            np..=np,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (floor, kind, (x, y, w, h), name))| PartitionRecord {
                    id: i as u32,
                    floor,
                    kind: KINDS[kind].to_string(),
                    footprint: [x, y, x + w, y + h],
                    name,
                })
                .collect::<Vec<_>>()
        });

        let doors = proptest::collection::vec(
            (
                (0.0f64..150.0, 0.0f64..150.0),
                0i32..3,
                0usize..DOOR_KINDS.len(),
            ),
            nd..=nd,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, ((x, y), floor, kind))| DoorRecord {
                    id: i as u32,
                    position: [x, y],
                    floor,
                    kind: DOOR_KINDS[kind].to_string(),
                })
                .collect::<Vec<_>>()
        });

        let connections = proptest::collection::vec((0..nd as u32, 0..np as u32, 0u8..3), 1..20)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(door, partition, dir)| ConnectionRecord {
                        door,
                        partition,
                        enterable: dir != 1,
                        leavable: dir != 0,
                    })
                    .collect::<Vec<_>>()
            });

        let intra = proptest::collection::vec(
            (0..np as u32, 0..nd as u32, 0..nd as u32, 0.1f64..500.0),
            0..5,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(
                    |(partition, from_door, to_door, distance)| IntraOverrideRecord {
                        partition,
                        from_door,
                        to_door,
                        distance,
                    },
                )
                .collect::<Vec<_>>()
        });

        let loops = proptest::collection::vec((0..np as u32, 0..nd as u32, 0.1f64..200.0), 0..5)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(partition, door, distance)| LoopOverrideRecord {
                        partition,
                        door,
                        distance,
                    })
                    .collect::<Vec<_>>()
            });

        let keywords = proptest::collection::vec(
            (
                "[a-z]{2,10}",
                proptest::collection::vec(0..np as u32, 0..3),
                proptest::collection::vec("[a-z]{2,10}", 0..6),
            ),
            0..6,
        )
        .prop_map(|rows| {
            // Deduplicate i-words: the document allows repeated i-word strings
            // structurally but the directory rebuild treats them as one word;
            // keep the generator canonical.
            let mut seen = std::collections::BTreeSet::new();
            rows.into_iter()
                .filter_map(|(iword, partitions, twords)| {
                    if !seen.insert(iword.clone()) {
                        return None;
                    }
                    Some(KeywordRecord {
                        iword,
                        partitions,
                        twords,
                    })
                })
                .collect::<Vec<_>>()
        });

        let floors = proptest::collection::vec(
            (
                0i32..3,
                (0.0f64..10.0, 0.0f64..10.0, 50.0f64..200.0, 50.0f64..200.0),
            ),
            0..3,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(floor, (x, y, w, h))| FloorRecord {
                    floor,
                    bounds: [x, y, x + w, y + h],
                })
                .collect::<Vec<_>>()
        });

        (
            partitions,
            doors,
            connections,
            intra,
            loops,
            keywords,
            floors,
            proptest::option::of("[a-z ]{1,16}"),
            5.0f64..50.0,
        )
            .prop_map(
                |(
                    partitions,
                    doors,
                    connections,
                    intra_overrides,
                    loop_overrides,
                    keywords,
                    floors,
                    name,
                    grid_cell,
                )| VenueDocument {
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
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_round_trip_is_the_identity(doc in arb_document()) {
        prop_assert!(doc.validate().is_ok());
        let text = json::to_json_string(&doc).unwrap();
        let back: VenueDocument = json::from_json_str(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn binary_round_trip_is_the_identity(doc in arb_document()) {
        let payload = encode_v1(&doc).unwrap();
        let (back, _, _) = decode_file(&payload).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn binary_decoder_never_panics_on_truncated_payloads(
        doc in arb_document(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = encode_v1(&doc).unwrap();
        let cut = ((payload.len() as f64) * cut_fraction) as usize;
        if cut < payload.len() {
            // Must return an error, never panic.
            prop_assert!(decode_file(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn binary_decoder_never_panics_on_bit_flips(
        doc in arb_document(),
        flip_at in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        let payload = encode_v1(&doc).unwrap();
        let mut corrupted = payload.to_vec();
        let idx = flip_at % corrupted.len();
        corrupted[idx] ^= flip_mask;
        // Either the corruption is detected or it happens to produce another
        // structurally valid document; both are fine, panics are not.
        let _ = decode_file(&corrupted);
    }
}
