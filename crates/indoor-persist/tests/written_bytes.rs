//! Pins the bytes the venue writer produces at scale.
//!
//! `serve_identity` pins the writer's output for the Fig. 1 venue only. A
//! venue file is read back by other builds of this code (a benchmark data
//! set shared across commits, files saved by an older release), so a change
//! to any section's layout or content must be deliberate. This test hashes
//! the whole `encode_venue_columnar` output — record body, columnar section
//! and index section — of four generated venues, written the way
//! `ikrq generate --save-indexed` writes them, and compares the FNV-1a-64
//! hash and byte length with the values below. On a mismatch it prints the
//! computed table.

use ikrq_core::IkrqEngine;
use indoor_data::{mega_venue, MegaVenueConfig, SyntheticVenueConfig, Venue};
use indoor_persist::{binary, VenueDocument};
use std::fmt::Write as _;

/// `(venue id, byte length, FNV-1a-64 of the file)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("mega-1000p-seed42", 701084, 0x7cbb94d1244b6cc6),
    ("mega-120p-seed7", 108387, 0x316573fa95c94e31),
    ("mega-400p-seed21", 275349, 0x45f8327eb68bf3fd),
    ("mall-1floor-seed1302", 1235859, 0xe8aec437c120a5ca),
];

/// The 64-bit FNV-1a hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn venue(id: &str) -> Venue {
    let mega = |partitions, seed| {
        mega_venue(&MegaVenueConfig::sized(partitions, seed)).expect("valid mega venue")
    };
    match id {
        "mega-1000p-seed42" => mega(1_000, 42),
        "mega-120p-seed7" => mega(120, 7),
        "mega-400p-seed21" => mega(400, 21),
        "mall-1floor-seed1302" => Venue::synthetic(
            &SyntheticVenueConfig {
                seed: 1302,
                ..SyntheticVenueConfig::default()
            }
            .with_floors(1),
        )
        .expect("valid mall"),
        other => panic!("no venue named {other}"),
    }
}

/// The v2 file of a venue with its index section, as `generate
/// --save-indexed` writes it: the index binds to the directory rebuilt from
/// the document.
fn written(id: &str) -> Vec<u8> {
    let venue = venue(id);
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 32.0, Some(id.into()));
    let (space, directory) = doc.build().expect("generated documents round-trip");
    let engine = IkrqEngine::new(space, directory);
    binary::encode_venue_columnar(&doc, engine.space(), engine.directory(), engine.index())
        .expect("generated documents encode")
        .to_vec()
}

#[test]
fn written_venue_files_keep_their_bytes() {
    let mut table = String::new();
    let mut same = true;
    for &(id, len, hash) in PINNED {
        let bytes = written(id);
        let got = (bytes.len(), fnv1a64(&bytes));
        writeln!(table, "    (\"{id}\", {}, {:#018x}),", got.0, got.1).unwrap();
        same &= got == (len, hash);
    }
    assert!(same, "the writer's bytes changed; computed:\n{table}");
}
