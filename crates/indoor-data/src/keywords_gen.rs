//! Builds a venue's [`KeywordDirectory`] from the synthetic corpus and
//! assigns i-words (with their t-words) to rooms, following §V-A1:
//! "We randomly assign an i-word and all its t-words to each room."

use crate::corpus_gen::GeneratedCorpus;
use indoor_keywords::{ExtractionConfig, ExtractionPipeline, KeywordDirectory, WordId};
use indoor_space::PartitionId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the keyword-directory construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeywordAssignmentConfig {
    /// Maximum extracted keywords kept per i-word (the paper keeps up to 60,
    /// ranked by TF-IDF).
    pub max_twords_per_iword: usize,
}

impl Default for KeywordAssignmentConfig {
    fn default() -> Self {
        KeywordAssignmentConfig {
            max_twords_per_iword: 60,
        }
    }
}

/// A keyword directory plus the i-word ids of every brand, in brand order.
#[derive(Debug, Clone)]
pub struct BuiltKeywords {
    /// The directory holding vocabularies and mappings (partitions not yet
    /// assigned).
    pub directory: KeywordDirectory,
    /// Brand i-word ids, aligned with `GeneratedCorpus::brands`.
    pub brand_iwords: Vec<WordId>,
}

/// Runs the extraction pipeline over the corpus and registers every brand as
/// an i-word with its extracted t-words.
pub fn build_directory(
    corpus: &GeneratedCorpus,
    config: &KeywordAssignmentConfig,
) -> BuiltKeywords {
    let pipeline = ExtractionPipeline::new(ExtractionConfig {
        max_keywords_per_brand: config.max_twords_per_iword,
        ..Default::default()
    });
    let extracted = pipeline.extract(&corpus.corpus);
    let mut directory = KeywordDirectory::new();
    let mut brand_iwords = Vec::with_capacity(corpus.brands.len());
    // First pass: register every brand name as an i-word so that brand names
    // appearing inside other brands' descriptions are never added as t-words
    // (the i-word / t-word sets stay disjoint).
    for brand in &corpus.brands {
        let iword = directory
            .add_iword(brand)
            .expect("brand names are generated before any t-word exists");
        brand_iwords.push(iword);
    }
    // Second pass: attach extracted keywords as t-words.
    for (brand, iword) in corpus.brands.iter().zip(&brand_iwords) {
        if let Some(keywords) = extracted.get(&brand.to_lowercase()) {
            for keyword in keywords {
                directory.add_tword_for(*iword, keyword);
            }
        }
    }
    BuiltKeywords {
        directory,
        brand_iwords,
    }
}

/// Randomly assigns a brand (i-word) to every room partition. The same brand
/// may serve several rooms (the `I2P` mapping is one-to-many). Returns the
/// brand index chosen for each room.
pub fn assign_rooms<R: Rng>(
    built: &mut BuiltKeywords,
    rooms: &[PartitionId],
    rng: &mut R,
) -> Vec<usize> {
    let mut choices = Vec::with_capacity(rooms.len());
    for &room in rooms {
        let idx = rng.gen_range(0..built.brand_iwords.len());
        built
            .directory
            .name_partition(room, built.brand_iwords[idx])
            .expect("rooms are named exactly once");
        choices.push(idx);
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_gen::{generate_corpus, CorpusConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_corpus(seed: u64) -> GeneratedCorpus {
        let config = CorpusConfig {
            num_brands: 40,
            ..Default::default()
        };
        generate_corpus(&config, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn directory_registers_all_brands_as_iwords() {
        let corpus = small_corpus(3);
        let built = build_directory(&corpus, &KeywordAssignmentConfig::default());
        assert_eq!(built.brand_iwords.len(), 40);
        assert_eq!(built.directory.vocab().num_iwords(), 40);
        // Most brands received t-words via extraction.
        let with_twords = built
            .brand_iwords
            .iter()
            .filter(|&&iw| !built.directory.twords_of(iw).is_empty())
            .count();
        assert!(with_twords >= 30);
        // No t-word equals a brand name.
        for &iw in &built.brand_iwords {
            for &tw in built.directory.twords_of(iw) {
                assert!(built.directory.vocab().is_tword(tw));
            }
        }
    }

    #[test]
    fn tword_cap_is_respected() {
        let corpus = small_corpus(4);
        let built = build_directory(
            &corpus,
            &KeywordAssignmentConfig {
                max_twords_per_iword: 5,
            },
        );
        for &iw in &built.brand_iwords {
            assert!(built.directory.twords_of(iw).len() <= 5);
        }
    }

    #[test]
    fn room_assignment_names_every_room_once() {
        let corpus = small_corpus(5);
        let mut built = build_directory(&corpus, &KeywordAssignmentConfig::default());
        let rooms: Vec<PartitionId> = (0..20).map(PartitionId).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let choices = assign_rooms(&mut built, &rooms, &mut rng);
        assert_eq!(choices.len(), 20);
        for &room in &rooms {
            assert!(built.directory.partition_iword(room).is_some());
        }
        // Deterministic for a fixed seed.
        let mut built2 = build_directory(&corpus, &KeywordAssignmentConfig::default());
        let choices2 = assign_rooms(&mut built2, &rooms, &mut StdRng::seed_from_u64(9));
        assert_eq!(choices, choices2);
    }
}
