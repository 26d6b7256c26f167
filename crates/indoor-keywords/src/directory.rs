//! [`KeywordDirectory`]: the per-venue bundle of vocabulary and mappings.

use crate::intern::WordId;
use crate::mappings::KeywordMappings;
use crate::vocab::{Vocabulary, WordKind};
use crate::Result;
use indoor_space::PartitionId;
use std::sync::OnceLock;

/// The complete keyword knowledge of a venue: the disjoint i-word/t-word
/// vocabularies plus the four mappings. The structure is immutable once
/// built; the builders in `indoor-data` assemble it.
#[derive(Debug, Clone, Default)]
pub struct KeywordDirectory {
    vocab: Vocabulary,
    mappings: KeywordMappings,
    /// Memoized [`KeywordDirectory::fingerprint`]; reset by the assembly
    /// helpers so it can never go stale.
    fingerprint_cache: OnceLock<u64>,
}

impl KeywordDirectory {
    /// Creates an empty directory (useful for incremental assembly).
    pub fn new() -> Self {
        KeywordDirectory::default()
    }

    /// Creates a directory from already-assembled parts.
    pub fn from_parts(vocab: Vocabulary, mappings: KeywordMappings) -> Self {
        KeywordDirectory {
            vocab,
            mappings,
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Read access to the vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Read access to the mappings.
    pub fn mappings(&self) -> &KeywordMappings {
        &self.mappings
    }

    // ---------------------------------------------------------------
    // Assembly helpers (used by the data generators)
    // ---------------------------------------------------------------

    /// Registers an i-word.
    pub fn add_iword(&mut self, raw: &str) -> Result<WordId> {
        self.fingerprint_cache = OnceLock::new();
        self.vocab.add_iword(raw)
    }

    /// Registers a t-word and associates it with an i-word. When the "t-word"
    /// string is actually an i-word it is skipped (the sets stay disjoint) and
    /// `None` is returned.
    pub fn add_tword_for(&mut self, iword: WordId, raw: &str) -> Option<WordId> {
        self.fingerprint_cache = OnceLock::new();
        let (id, added) = self.vocab.add_tword(raw);
        if !added {
            return None;
        }
        self.mappings.associate(iword, id);
        Some(id)
    }

    /// Assigns an i-word to a partition.
    pub fn name_partition(&mut self, v: PartitionId, iword: WordId) -> Result<()> {
        self.fingerprint_cache = OnceLock::new();
        self.mappings.assign_partition(v, iword)
    }

    // ---------------------------------------------------------------
    // Query-side accessors
    // ---------------------------------------------------------------

    /// Classifies a raw query string against the venue vocabulary. This is
    /// how "users do not have to specify i-words and t-words separately —
    /// they are recognised automatically" (§V-A1).
    pub fn classify(&self, raw: &str) -> (Option<WordId>, WordKind) {
        self.vocab.classify_str(raw)
    }

    /// The i-word of a partition.
    pub fn partition_iword(&self, v: PartitionId) -> Option<WordId> {
        self.mappings.p2i(v)
    }

    /// The partitions identified by an i-word.
    pub fn partitions_of(&self, iword: WordId) -> &[PartitionId] {
        self.mappings.i2p(iword)
    }

    /// The t-words of an i-word, sorted.
    pub fn twords_of(&self, iword: WordId) -> &[WordId] {
        self.mappings.i2t(iword)
    }

    /// Resolves a word id to its string.
    pub fn resolve(&self, id: WordId) -> Option<&str> {
        self.vocab.resolve(id)
    }

    /// Looks up a word id by string.
    pub fn lookup(&self, raw: &str) -> Option<WordId> {
        self.vocab.lookup(raw)
    }

    /// Estimated heap size in bytes (the paper reports the synthetic keyword
    /// mappings occupy ≈4 MB and are kept in main memory).
    pub fn estimated_bytes(&self) -> usize {
        self.vocab.estimated_bytes() + self.mappings.estimated_bytes()
    }

    /// Deterministic fingerprint of the directory: the interned word table
    /// in id order plus every i-word's partitions and t-word set. A
    /// persisted pre-built index records this value; on load it must match
    /// the directory rebuilt from the venue document, because the section
    /// stores raw [`WordId`]s/partition ids that are only meaningful against
    /// the exact same interning order.
    ///
    /// The value is memoized: a built directory never changes, and save
    /// (section encode) and load (section binding) both read it.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint_cache
            .get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        use crate::intern::mix;
        let mut hash = self.vocab.interner().fingerprint();
        // Traverse `I2P`/`I2T` in map order rather than looking each i-word
        // up: at mega-venue scale the per-word `BTreeMap` searches cost more
        // than all the mixing below. Each entry leads with the word id and
        // list length packed into one value, so list elements can never be
        // misread across entry boundaries.
        for (w, partitions) in self.mappings.i2p_entries() {
            hash = mix(
                hash,
                0x1000_0000_0000_0000 | ((w.0 as u64) << 24) | partitions.len() as u64,
            );
            let mut pairs = partitions.chunks_exact(2);
            for pair in &mut pairs {
                hash = mix(hash, ((pair[0].0 as u64) << 32) | pair[1].0 as u64);
            }
            if let Some(last) = pairs.remainder().first() {
                hash = mix(hash, last.0 as u64);
            }
        }
        for (w, twords) in self.mappings.i2t_entries() {
            hash = mix(
                hash,
                0x2000_0000_0000_0000 | ((w.0 as u64) << 24) | twords.len() as u64,
            );
            for &tw in twords {
                hash = mix(hash, tw.0 as u64);
            }
        }
        for iw in self.vocab.iwords() {
            hash = mix(hash, 0x4000_0000_0000_0000 | iw.0 as u64);
        }
        for tw in self.vocab.twords() {
            hash = mix(hash, 0x8000_0000_0000_0000 | tw.0 as u64);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembly_and_lookup_round_trip() {
        let mut dir = KeywordDirectory::new();
        let apple = dir.add_iword("Apple").unwrap();
        assert!(dir.add_tword_for(apple, "laptop").is_some());
        assert!(dir.add_tword_for(apple, "phone").is_some());
        // An i-word used as a t-word is skipped.
        let zara = dir.add_iword("zara").unwrap();
        assert!(dir.add_tword_for(apple, "zara").is_none());
        dir.name_partition(PartitionId(10), apple).unwrap();
        dir.name_partition(PartitionId(11), zara).unwrap();

        assert_eq!(dir.partition_iword(PartitionId(10)), Some(apple));
        assert_eq!(dir.partitions_of(apple), &[PartitionId(10)]);
        assert_eq!(dir.twords_of(apple).len(), 2);
        assert!(dir.twords_of(zara).is_empty());
        assert_eq!(dir.classify("LAPTOP").1, WordKind::TWord);
        assert_eq!(dir.classify("apple").1, WordKind::IWord);
        assert_eq!(dir.classify("unknown").1, WordKind::Unknown);
        assert_eq!(dir.resolve(apple), Some("apple"));
        assert_eq!(dir.lookup("Apple"), Some(apple));
        assert!(dir.estimated_bytes() > 0);
        assert_eq!(dir.vocab().num_iwords(), 2);
        assert_eq!(dir.mappings().num_associations(), 2);
    }

    #[test]
    fn fingerprint_is_memoized_but_never_stale() {
        let mut dir = KeywordDirectory::new();
        let iw = dir.add_iword("costa").unwrap();
        dir.name_partition(PartitionId(1), iw).unwrap();
        let before = dir.fingerprint();
        assert_eq!(dir.fingerprint(), before, "memoized value is stable");
        // Every assembly mutation must drop the cache.
        dir.add_tword_for(iw, "coffee").unwrap();
        let with_tword = dir.fingerprint();
        assert_ne!(before, with_tword);
        dir.name_partition(PartitionId(2), iw).unwrap();
        let with_partition = dir.fingerprint();
        assert_ne!(with_tword, with_partition);
        dir.add_iword("zara").unwrap();
        assert_ne!(with_partition, dir.fingerprint());
        // A clone carries the same value.
        assert_eq!(dir.clone().fingerprint(), dir.fingerprint());
    }

    #[test]
    fn from_parts_preserves_content() {
        let mut v = Vocabulary::new();
        let mut m = KeywordMappings::new();
        let iw = v.add_iword("costa").unwrap();
        let (tw, _) = v.add_tword("coffee");
        m.associate(iw, tw);
        m.assign_partition(PartitionId(3), iw).unwrap();
        let dir = KeywordDirectory::from_parts(v, m);
        assert_eq!(dir.partition_iword(PartitionId(3)), Some(iw));
        assert!(dir.twords_of(iw).contains(&tw));
    }
}
