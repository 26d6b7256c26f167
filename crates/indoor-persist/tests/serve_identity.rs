//! Save → load → serve byte-identity, property-tested.
//!
//! A venue saved with a pre-built index section, loaded back, and served
//! through the adopted index must answer every Table III algorithm variant
//! byte-for-byte like a freshly built scan engine — across arbitrary
//! generated venues and query workloads, and for the committed fixture
//! files of every version the writers have produced. A companion property
//! flips arbitrary bytes inside the index section and asserts the loader
//! always degrades to a rebuild instead of failing or panicking.

mod common;

use common::example_queries;
use ikrq_core::{
    ExecOptions, IkrqEngine, IkrqQuery, IkrqService, IndexMode, SearchRequest, VariantConfig,
};
use indoor_data::{
    mega_venue, paper_example_venue, MegaVenueConfig, QueryGenerator, QueryInstance, WorkloadConfig,
};
use indoor_keywords::QueryKeywords;
use indoor_persist::{binary, IndexSection, VenueDocument};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t: 60.0,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    }
}

fn to_query(instance: &QueryInstance) -> IkrqQuery {
    IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned())
            .expect("generated instances always carry keywords"),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau)
}

fn single_venue_service(engine: IkrqEngine) -> IkrqService {
    let service = IkrqService::new();
    service
        .register_engine("prop", Arc::new(engine))
        .expect("fresh service accepts the venue");
    service
}

/// Re-frames a version 2 file as the version 1 file the writers before the
/// columnar format produced for the same venue: a header with version 1,
/// the record body, then the index section (the columnar section is
/// dropped). Returns the file and the offset of its index section.
fn reframe_as_v1(v2: &[u8]) -> (Vec<u8>, usize) {
    let field = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field")) as usize
    };
    let record_len = field(v2, 10);
    let sections = &v2[14 + record_len..];
    let columnar_len = 14 + field(sections, 10) + 8;
    let mut v1 = v2[..8].to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&v2[14..14 + record_len]);
    let section_start = v1.len();
    v1.extend_from_slice(&sections[columnar_len..]);
    (v1, section_start)
}

/// Builds a venue, saves it pre-indexed as a version 1 file, loads it back,
/// and returns the file and the offset of its index section, together with
/// a serving service for the loaded engine and a scan-engine reference
/// service over the same document.
fn save_load_services(doc: &VenueDocument) -> (Vec<u8>, usize, IkrqService, IkrqService) {
    let (space, directory) = doc.build().expect("generated documents round-trip");
    let fresh = IkrqEngine::new(space, directory);
    let index = fresh.index().expect("default engines are accelerated");
    let (payload, section_start) = reframe_as_v1(
        &binary::encode_venue_columnar(doc, fresh.space(), fresh.directory(), Some(index))
            .expect("generated documents encode"),
    );

    let loaded = binary::load_venue_model(&payload).expect("payload decodes");
    assert_eq!(loaded.stats.format_version, 1);
    assert_eq!(
        &VenueDocument::from_venue(
            &loaded.space,
            &loaded.directory,
            doc.grid_cell,
            loaded.name.clone()
        ),
        doc,
        "document survives the round trip"
    );
    let prebuilt = match loaded.index {
        IndexSection::Present(prebuilt) => prebuilt,
        section => panic!("saved venue carries a usable index section, got {section:?}"),
    };
    let loaded_index = prebuilt
        .into_index(&loaded.directory)
        .expect("persisted index binds to the rebuilt directory");
    let loaded = IkrqEngine::with_prebuilt_index(loaded.space, loaded.directory, loaded_index);
    assert!(loaded.index().is_some_and(|i| i.loaded_from_disk()));

    let (scan_space, scan_directory) = doc.build().expect("generated documents round-trip");
    let scan = IkrqEngine::with_index_mode(scan_space, scan_directory, IndexMode::Scan);
    (
        payload,
        section_start,
        single_venue_service(loaded),
        single_venue_service(scan),
    )
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The committed Fig. 1 venue files, one per layout the writers have
/// produced: v1 (`generate --binary`), v1 with an index section (the
/// pre-columnar `--save-indexed`) and v2 (`--save-indexed`). Each loads
/// through the one loader and serves every Table III variant like the scan
/// engine, and today's writer still produces the v2 file byte for byte.
#[test]
fn committed_venue_files_of_every_version_load_and_serve_byte_identically() {
    let example = paper_example_venue();
    let doc = VenueDocument::from_venue(
        &example.venue.space,
        &example.venue.directory,
        10.0,
        Some("fig1-example".into()),
    );
    let (space, directory) = doc.build().expect("the example round-trips");
    let scan = single_venue_service(IkrqEngine::with_index_mode(
        space,
        directory,
        IndexMode::Scan,
    ));

    for (file, format_version, adopted_columnar) in [
        ("fig1-v1.ikrq", 1, false),
        ("fig1-v1-indexed.ikrq", 1, false),
        ("fig1-v2.ikrq", 2, true),
    ] {
        let loaded = binary::load_venue_model_file(fixture(file)).expect("fixtures load");
        assert_eq!(loaded.stats.format_version, format_version, "{file}");
        assert_eq!(loaded.stats.adopted_columnar, adopted_columnar, "{file}");
        assert!(
            loaded.stats.degraded.is_none(),
            "{file}: {:?}",
            loaded.stats
        );
        let engine = match loaded.index {
            IndexSection::Absent => IkrqEngine::new(loaded.space, loaded.directory),
            IndexSection::Present(prebuilt) => {
                let index = prebuilt
                    .into_index(&loaded.directory)
                    .expect("fixture indexes bind");
                IkrqEngine::with_prebuilt_index(loaded.space, loaded.directory, index)
            }
            IndexSection::Unusable(reason) => panic!("{file}: unusable index section: {reason}"),
        };
        let loaded_from_disk = engine.index().is_some_and(|i| i.loaded_from_disk());
        assert_eq!(loaded_from_disk, file != "fig1-v1.ikrq", "{file}");
        let service = single_venue_service(engine);
        for variant in VariantConfig::all_variants() {
            for query in example_queries(&example) {
                let request = SearchRequest {
                    venue: "prop".to_string(),
                    query,
                    options: ExecOptions::with_variant(variant),
                };
                assert_eq!(
                    service
                        .search(&request)
                        .expect("fixture query succeeds")
                        .deterministic_json(),
                    scan.search(&request)
                        .expect("scan query succeeds")
                        .deterministic_json(),
                    "{file}: variant {} diverged from scan",
                    variant.label()
                );
            }
        }
    }

    // The writer is deterministic: the example venue saved today is the v2
    // fixture byte for byte, and re-framing it gives the indexed v1 fixture.
    let (space, directory) = doc.build().expect("the example round-trips");
    let fresh = IkrqEngine::new(space, directory);
    let out = std::env::temp_dir().join(format!("ikrq-fixture-{}.ikrq", std::process::id()));
    binary::save_venue_columnar(&doc, fresh.space(), fresh.directory(), fresh.index(), &out)
        .expect("the example saves");
    let written = std::fs::read(&out).expect("the saved file reads back");
    std::fs::remove_file(&out).ok();
    let read = |name: &str| std::fs::read(fixture(name)).expect("fixtures read");
    assert!(
        written == read("fig1-v2.ikrq"),
        "the writer's bytes changed"
    );
    assert!(reframe_as_v1(&written).0 == read("fig1-v1-indexed.ikrq"));
    assert!(read("fig1-v1-indexed.ikrq").starts_with(&read("fig1-v1.ikrq")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The loaded-index serving path is an exact stand-in for the scan
    /// path under every Table III variant.
    #[test]
    fn saved_preindexed_venues_serve_byte_identically(
        seed in 0u64..1 << 16,
        size in 60usize..160,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(size, seed)).expect("mega venues build");
        let doc = VenueDocument::from_venue(
            &venue.space,
            &venue.directory,
            16.0,
            Some("prop".into()),
        );
        let (_, _, loaded_service, scan_service) = save_load_services(&doc);

        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1de2);
        let instances = generator.generate_batch(&workload(), 2, &mut rng);
        if instances.is_empty() {
            // Tiny venues occasionally yield no satisfiable instance; the
            // round-trip assertions in `save_load_services` still ran.
            return Ok(());
        }

        for variant in VariantConfig::all_variants() {
            for instance in &instances {
                let request = SearchRequest {
                    venue: "prop".to_string(),
                    query: to_query(instance),
                    options: ExecOptions::with_variant(variant),
                };
                let loaded = loaded_service.search(&request).expect("loaded query succeeds");
                let scan = scan_service.search(&request).expect("scan query succeeds");
                prop_assert_eq!(
                    loaded.deterministic_json(),
                    scan.deterministic_json(),
                    "variant {} diverged on a loaded index",
                    variant.label()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A v2 columnar file adopted wholesale serves byte-for-byte like the
    /// v1-loaded rebuild path and the in-memory scan engine under every
    /// Table III variant.
    #[test]
    fn columnar_saved_venues_serve_byte_identically(
        seed in 0u64..1 << 16,
        size in 60usize..160,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(size, seed)).expect("mega venues build");
        let doc = VenueDocument::from_venue(
            &venue.space,
            &venue.directory,
            16.0,
            Some("prop".into()),
        );
        let (_, _, v1_service, scan_service) = save_load_services(&doc);

        let (space, directory) = doc.build().expect("generated documents round-trip");
        let fresh = IkrqEngine::new(space, directory);
        let index = fresh.index().expect("default engines are accelerated");
        let payload =
            binary::encode_venue_columnar(&doc, fresh.space(), fresh.directory(), Some(index))
                .expect("generated documents encode as columnar");
        let loaded = binary::load_venue_model(payload.as_ref()).expect("columnar venues load");
        prop_assert!(loaded.stats.adopted_columnar, "intact v2 files adopt their columns");
        prop_assert!(loaded.stats.degraded.is_none());
        prop_assert_eq!(loaded.stats.format_version, 2);
        let IndexSection::Present(prebuilt) = loaded.index else {
            panic!("columnar venue carries a usable index section");
        };
        let v2_index = prebuilt
            .into_index(&loaded.directory)
            .expect("persisted index binds to the adopted directory");
        let v2_service = single_venue_service(IkrqEngine::with_prebuilt_index(
            loaded.space,
            loaded.directory,
            v2_index,
        ));

        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc01a);
        let instances = generator.generate_batch(&workload(), 2, &mut rng);
        if instances.is_empty() {
            return Ok(());
        }

        for variant in VariantConfig::all_variants() {
            for instance in &instances {
                let request = SearchRequest {
                    venue: "prop".to_string(),
                    query: to_query(instance),
                    options: ExecOptions::with_variant(variant),
                };
                let v2 = v2_service.search(&request).expect("columnar query succeeds");
                let v1 = v1_service.search(&request).expect("v1-loaded query succeeds");
                let scan = scan_service.search(&request).expect("scan query succeeds");
                prop_assert_eq!(
                    v2.deterministic_json(),
                    scan.deterministic_json(),
                    "variant {} diverged between columnar and scan",
                    variant.label()
                );
                prop_assert_eq!(
                    v2.deterministic_json(),
                    v1.deterministic_json(),
                    "variant {} diverged between columnar and v1-loaded",
                    variant.label()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption of a v2 file's columnar section degrades
    /// the load to a v1-style record rebuild — never a failure — and the
    /// rebuilt model is indistinguishable from the uncorrupted one.
    #[test]
    fn corrupted_columnar_sections_degrade_to_rebuild(
        seed in 0u64..1 << 16,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(80, seed)).expect("mega venues build");
        let doc = VenueDocument::from_venue(
            &venue.space,
            &venue.directory,
            16.0,
            Some("prop".into()),
        );
        let (space, directory) = doc.build().expect("generated documents round-trip");
        let fresh = IkrqEngine::new(space, directory);
        let index = fresh.index().expect("default engines are accelerated");
        let payload =
            binary::encode_venue_columnar(&doc, fresh.space(), fresh.directory(), Some(index))
                .expect("generated documents encode as columnar")
                .to_vec();

        // v2 layout: 14-byte file header, the advisory record body (length
        // at bytes 10..14), then the framed columnar section (its body
        // length at bytes 10..14 of the section, between an own 14-byte
        // header and an 8-byte checksum trailer).
        let record_len = u32::from_le_bytes(payload[10..14].try_into().unwrap()) as usize;
        let section_start = 14 + record_len;
        let body_len = u32::from_le_bytes(
            payload[section_start + 10..section_start + 14].try_into().unwrap(),
        ) as usize;
        let section_len = 14 + body_len + 8;
        prop_assert!(section_start + section_len <= payload.len());

        let offset = section_start + ((section_len as f64 * offset_frac) as usize).min(section_len - 1);
        let mut corrupt = payload.clone();
        corrupt[offset] ^= flip;

        let loaded = binary::load_venue_model(&corrupt)
            .expect("a corrupted columnar section never fails the load");
        prop_assert_eq!(loaded.stats.format_version, 2);
        if !loaded.stats.adopted_columnar {
            let reason = loaded.stats.degraded.expect("degraded loads record why");
            prop_assert!(!reason.is_empty());
        }
        // Adopted or rebuilt, the served model is the same venue: the
        // record body is the source of truth and the flip never touched it.
        prop_assert_eq!(
            loaded.directory.fingerprint(),
            fresh.directory().fingerprint(),
            "keyword directory survives columnar corruption"
        );
        prop_assert_eq!(loaded.space.num_partitions(), fresh.space().num_partitions());
        prop_assert_eq!(loaded.space.num_doors(), fresh.space().num_doors());
        prop_assert_eq!(
            loaded.space.door_graph().num_edges(),
            fresh.space().door_graph().num_edges()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption of the index section leaves the document
    /// loadable: the section either still binds (flip landed outside the
    /// covered bytes — impossible past the magic, but the property does not
    /// assume it) or degrades to a rebuild, never a hard failure.
    #[test]
    fn corrupted_index_sections_degrade_to_rebuild(
        seed in 0u64..1 << 16,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(80, seed)).expect("mega venues build");
        let doc = VenueDocument::from_venue(
            &venue.space,
            &venue.directory,
            16.0,
            Some("prop".into()),
        );
        let (payload, section_start, _, _) = save_load_services(&doc);
        prop_assert!(section_start < payload.len(), "payload carries a section");

        let span = payload.len() - section_start;
        let offset = section_start + ((span as f64 * offset_frac) as usize).min(span - 1);
        let mut corrupt = payload.clone();
        corrupt[offset] ^= flip;

        let loaded = binary::load_venue_model(&corrupt)
            .expect("document decode is independent of the index section");
        let back = VenueDocument::from_venue(
            &loaded.space,
            &loaded.directory,
            doc.grid_cell,
            loaded.name.clone(),
        );
        prop_assert_eq!(&back, &doc);
        match loaded.index {
            IndexSection::Unusable(reason) => prop_assert!(!reason.is_empty()),
            IndexSection::Present(prebuilt) => {
                // A surviving checksum means the flip must still decode into
                // a structurally sound index or be rejected at binding time;
                // either way the loader keeps going.
                let _ = prebuilt.into_index(&loaded.directory);
            }
            IndexSection::Absent => prop_assert!(false, "section bytes cannot vanish"),
        }
    }
}
