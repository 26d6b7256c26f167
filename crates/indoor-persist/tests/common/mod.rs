//! Helpers shared by the persistence integration tests.

use ikrq_core::IkrqQuery;
use indoor_keywords::QueryKeywords;

/// Queries of the Fig. 1 example used to compare original vs rebuilt venues.
pub fn example_queries(example: &indoor_data::PaperExampleVenue) -> Vec<IkrqQuery> {
    vec![
        IkrqQuery::new(
            example.ps,
            example.pt,
            300.0,
            QueryKeywords::new(["coffee", "laptop"]).unwrap(),
            3,
        )
        .with_alpha(0.5)
        .with_tau(0.1),
        IkrqQuery::new(
            example.p1,
            example.p2,
            100.0,
            QueryKeywords::new(["earphone"]).unwrap(),
            2,
        )
        .with_alpha(0.5)
        .with_tau(0.1),
    ]
}
