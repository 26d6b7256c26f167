//! # indoor-data
//!
//! Synthetic and simulated-real venues, keyword corpora and IKRQ query
//! workloads, reproducing the experimental setup of §V of the paper.
//!
//! * [`mall`] — a parametric multi-floor shopping-mall floorplan generator
//!   matching the published synthetic-space statistics (1368 m × 1368 m per
//!   floor, 96 rooms, 4 hallways decomposed into 41 regular partitions,
//!   4 staircases, 141 partitions / 220 doors per floor, 20 m stairways,
//!   3–9 floors);
//! * [`names`] / [`corpus_gen`] — a synthetic brand + shop-description corpus
//!   generator standing in for the paper's crawled Hong Kong mall data
//!   (≈1225 brands, ≈2074 documents);
//! * [`keywords_gen`] — runs the RAKE/TF-IDF extraction pipeline over the
//!   corpus and assigns i-words (and their t-words) to rooms;
//! * [`real_mall`] — the simulated "real" venue standing in for the paper's
//!   proprietary Hangzhou mall dataset (7 floors, 2700 m × 2000 m, 639
//!   stores, 533 i-words, ≈5036 t-words, per-floor category clustering);
//! * [`mega`] — the mega-venue generator: comb-topology venues of 10³–10⁵
//!   partitions with directly synthesized Zipf-skewed keywords, for the
//!   venue-scale indexing experiments;
//! * [`queries`] — the query-instance generator of §V-A1 (δs2t targeting via
//!   the door-distance rows of the sampled start partition, ∆ = η · δs2t,
//!   β-controlled i-word/t-word mix);
//! * [`params`] — the parameter space of Table IV with the paper's defaults;
//! * [`venue`] — the [`Venue`] bundle (space + keywords) plus
//!   the small hand-crafted venue mirroring the paper's Fig. 1 running
//!   example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus_gen;
pub mod keywords_gen;
pub mod mall;
pub mod mega;
pub mod names;
pub mod params;
pub mod queries;
pub mod real_mall;
pub mod venue;

pub use mall::{MallConfig, MallGenerator};
pub use mega::{mega_venue, MegaVenueConfig};
pub use params::{ExperimentDefaults, ParameterSpace};
pub use queries::{QueryGenerator, QueryInstance, WorkloadConfig};
pub use real_mall::RealMallSimulator;
pub use venue::{paper_example_venue, PaperExampleVenue, SyntheticVenueConfig, Venue};

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::{
        mega_venue, paper_example_venue, ExperimentDefaults, MallConfig, MallGenerator,
        MegaVenueConfig, ParameterSpace, QueryGenerator, QueryInstance, RealMallSimulator,
        SyntheticVenueConfig, Venue, WorkloadConfig,
    };
}
