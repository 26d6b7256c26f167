//! Criterion micro-benchmarks of the substrates the IKRQ engine builds on:
//! floorplan generation, keyword extraction, door-graph shortest paths,
//! skeleton lower bounds and keyword relevance evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use indoor_data::{MallConfig, MallGenerator, SyntheticVenueConfig, Venue};
use indoor_keywords::{PreparedQuery, QueryKeywords, RelevanceModel};
use indoor_space::{DoorId, IndoorPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;

fn bench_floorplan_generation(c: &mut Criterion) {
    c.bench_function("substrate/mall_generation_1_floor", |b| {
        b.iter(|| {
            let layout = MallGenerator::generate(&MallConfig::default().with_floors(1)).unwrap();
            black_box(layout.space.num_doors());
        });
    });
}

fn bench_shortest_paths(c: &mut Criterion) {
    let layout = MallGenerator::generate(&MallConfig::default().with_floors(2)).unwrap();
    let space = layout.space;
    let mut rng = StdRng::seed_from_u64(3);
    let doors: Vec<DoorId> = (0..32)
        .map(|_| DoorId(rng.gen_range(0..space.num_doors() as u32)))
        .collect();
    c.bench_function("substrate/dijkstra_single_source", |b| {
        let sp = space.shortest_paths();
        let empty = HashSet::new();
        let mut i = 0usize;
        b.iter(|| {
            let d = doors[i % doors.len()];
            i += 1;
            black_box(sp.from_door(d, &empty).distances().len());
        });
    });
    c.bench_function("substrate/skeleton_lower_bound", |b| {
        let a = IndoorPoint::from_xy(100.0, 100.0, indoor_space::FloorId(0));
        let z = IndoorPoint::from_xy(1200.0, 1200.0, indoor_space::FloorId(1));
        b.iter(|| black_box(space.skeleton_distance(&a, &z)));
    });
}

fn bench_keyword_relevance(c: &mut Criterion) {
    let venue = Venue::synthetic(&SyntheticVenueConfig::small(5)).unwrap();
    let keywords: Vec<String> = venue
        .directory
        .vocab()
        .twords()
        .take(4)
        .filter_map(|w| venue.directory.resolve(w).map(str::to_string))
        .collect();
    let query = QueryKeywords::new(keywords).unwrap();
    c.bench_function("substrate/candidate_expansion", |b| {
        b.iter(|| {
            let prepared = PreparedQuery::prepare(&query, &venue.directory, 0.1).unwrap();
            black_box(prepared.candidate_iwords(&venue.directory).len());
        });
    });
    let prepared = PreparedQuery::prepare(&query, &venue.directory, 0.1).unwrap();
    let mut route =
        indoor_space::Route::from_point(venue.point_in_partition(venue.rooms[0], (0.5, 0.5)));
    let start = venue.rooms[0];
    let door = venue.space.p2d_leave(start)[0];
    route.append_door(door, start).unwrap();
    c.bench_function("substrate/route_relevance", |b| {
        b.iter(|| {
            black_box(RelevanceModel::relevance_of_route(
                &route,
                &venue.space,
                &venue.directory,
                &prepared,
            ));
        });
    });
}

criterion_group!(
    benches,
    bench_floorplan_generation,
    bench_shortest_paths,
    bench_keyword_relevance
);
criterion_main!(benches);
