//! The four keyword mappings of §III-A: `P2I`, `I2P`, `I2T`, `T2I`, plus the
//! partition-words accessor `PW(v)`.

use crate::error::KeywordError;
use crate::intern::WordId;
use crate::Result;
use indoor_space::PartitionId;
use std::collections::BTreeMap;

/// The keyword mappings of a venue.
///
/// * `P2I` is many-to-one: every partition has exactly one i-word, several
///   partitions may share one (five `cashier` booths).
/// * `I2P` is the inverse, one-to-many.
/// * `I2T` / `T2I` are many-to-many.
///
/// For simplicity of presentation — and matching the paper's assumption —
/// "two partitions with the same i-word have the same set of t-words", because
/// t-words attach to the i-word, not the partition.
///
/// Every `I2T` and `T2I` row is a sorted, duplicate-free `Vec`: the word
/// sets Definition 4's [`jaccard`](crate::jaccard) counts over.
///
/// A search looks `P2I` and `I2T` up for every partition it meets, and
/// keyword preparation looks `I2T` up for every direct match, so both take
/// one slot per id: `P2I` a word per partition (partition ids are the
/// space's dense indices), and `I2T` a 4-byte row index per word id up to
/// the largest i-word with t-words. Most words are t-words (a synthetic
/// mall has about 11 500 words, 1 225 of them i-words), so the slots cost
/// about 4 bytes per word more than a sorted key table of the i-words
/// would, and the rows themselves are stored once. `I2P` and `T2I`, which no
/// search reads per partition, stay ordered maps.
#[derive(Debug, Clone, Default)]
pub struct KeywordMappings {
    /// `P2I` by partition index, `None` where the partition is unnamed.
    p2i: Vec<Option<WordId>>,
    i2p: BTreeMap<WordId, Vec<PartitionId>>,
    /// `I2T` by word index: the position of the word's row in `i2t_rows`,
    /// or [`NO_ROW`] for a word without t-words.
    i2t_slots: Vec<u32>,
    /// The `I2T` rows, in i-word order as loaded and then in the order
    /// [`KeywordMappings::associate`] added them.
    i2t_rows: Vec<Vec<WordId>>,
    t2i: BTreeMap<WordId, Vec<WordId>>,
}

/// The `I2T` slot of a word without t-words.
const NO_ROW: u32 = u32::MAX;

/// `I2T`'s rows in i-word order: the word-id slots that hold a row.
struct I2tEntries<'a> {
    slots: std::iter::Enumerate<std::slice::Iter<'a, u32>>,
    rows: &'a [Vec<WordId>],
    /// Rows not yet yielded.
    left: usize,
}

impl<'a> Iterator for I2tEntries<'a> {
    type Item = (WordId, &'a [WordId]);

    fn next(&mut self) -> Option<Self::Item> {
        let (w, &at) = self.slots.find(|&(_, &at)| at != NO_ROW)?;
        self.left -= 1;
        Some((WordId(w as u32), self.rows[at as usize].as_slice()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for I2tEntries<'_> {}

/// Inserts `w` into a sorted, duplicate-free row, keeping it one.
fn insert_sorted(row: &mut Vec<WordId>, w: WordId) {
    if let Err(at) = row.binary_search(&w) {
        row.insert(at, w);
    }
}

/// Checks a persisted `I2T` or `T2I` table: keys strictly ascending, every
/// row non-empty and strictly ascending.
fn check_rows(name: &str, table: &[(WordId, Vec<WordId>)]) -> std::result::Result<(), String> {
    if table.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(format!("{name} keys are not strictly ascending"));
    }
    for (w, row) in table {
        if row.is_empty() {
            return Err(format!("{name}({w}) is empty"));
        }
        if row.windows(2).any(|x| x[0] >= x[1]) {
            return Err(format!("{name}({w}) is not strictly ascending"));
        }
    }
    Ok(())
}

/// Checks that a persisted `I2P` table is exactly the inverse of `P2I`:
/// every listed partition is named by its row's i-word, none is listed
/// twice, and every named partition is listed. The check indexes a table by
/// partition id, which the loader has range-checked.
fn check_inverse(
    p2i: &[(PartitionId, WordId)],
    i2p: &[(WordId, Vec<PartitionId>)],
) -> std::result::Result<(), String> {
    // `P2I` by partition id; listing a partition in `I2P` clears its slot.
    let mut unlisted: Vec<Option<WordId>> =
        vec![None; p2i.last().map_or(0, |(v, _)| v.index() + 1)];
    for &(v, w) in p2i {
        unlisted[v.index()] = Some(w);
    }
    for (w, list) in i2p {
        if list.is_empty() {
            return Err(format!("i2p({w}) lists no partitions"));
        }
        for v in list {
            match unlisted.get_mut(v.index()) {
                Some(slot) if *slot == Some(*w) => *slot = None,
                _ => return Err(format!("i2p({w}) lists {v} twice or against p2i")),
            }
        }
    }
    match unlisted.iter().position(Option::is_some) {
        Some(v) => Err(format!("i2p does not list partition v{v}")),
        None => Ok(()),
    }
}

/// Checks that a persisted `T2I` table is exactly the transpose of `I2T`.
/// Both must already have strictly ascending keys and rows. Walking `I2T`
/// in i-word order meets the i-words of each t-word in ascending order, so
/// every pair must be the next one its `T2I` row has left (the row found
/// through a table indexed by t-word id, which the loader has
/// range-checked), and every row must be used up.
fn check_transpose(
    i2t: &[(WordId, Vec<WordId>)],
    t2i: &[(WordId, Vec<WordId>)],
) -> std::result::Result<(), String> {
    let mut row_of = vec![usize::MAX; t2i.last().map_or(0, |(t, _)| t.index() + 1)];
    for (at, (t, _)) in t2i.iter().enumerate() {
        row_of[t.index()] = at;
    }
    let mut left: Vec<&[WordId]> = t2i.iter().map(|(_, row)| row.as_slice()).collect();
    for (w, row) in i2t {
        for t in row {
            let at = row_of.get(t.index()).copied().unwrap_or(usize::MAX);
            match left.get_mut(at) {
                Some(rest) if rest.first() == Some(w) => *rest = &rest[1..],
                _ => return Err(format!("t2i({t}) does not list {w}, which i2t lists")),
            }
        }
    }
    match left.iter().position(|rest| !rest.is_empty()) {
        Some(at) => Err(format!("t2i({}) lists a pair i2t lacks", t2i[at].0)),
        None => Ok(()),
    }
}

impl KeywordMappings {
    /// Creates empty mappings.
    pub fn new() -> Self {
        KeywordMappings::default()
    }

    /// Rebuilds the mappings from persisted sorted tables (the columnar venue
    /// load path): every map is bulk-built from its strictly ascending key
    /// order instead of being replayed entry by entry, and the checked rows
    /// are moved in as they are. `i2p` lists keep their persisted order — it
    /// is part of the model's fingerprint identity. Besides the structural
    /// invariants (key order, non-empty strictly ascending rows), the tables
    /// must invert each other: `i2p` exactly `p2i`'s inverse and `t2i`
    /// exactly `i2t`'s transpose, because the search reads a partition's
    /// keywords through either side. The checks run on the sorted input
    /// vectors in time linear in the tables, through tables indexed by
    /// partition and t-word id: callers range-check the ids first, as the
    /// columnar loader does. Violations are reported as a human-readable
    /// reason so loaders can degrade to a rebuild.
    ///
    /// `P2I` and `I2T` take one slot per id up to their largest key, so the
    /// range check also bounds the memory they take.
    pub fn from_sorted_parts(
        p2i: Vec<(PartitionId, WordId)>,
        i2p: Vec<(WordId, Vec<PartitionId>)>,
        i2t: Vec<(WordId, Vec<WordId>)>,
        t2i: Vec<(WordId, Vec<WordId>)>,
    ) -> std::result::Result<Self, String> {
        if p2i.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("p2i partitions are not strictly ascending".to_string());
        }
        if i2p.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("i2p i-words are not strictly ascending".to_string());
        }
        check_inverse(&p2i, &i2p)?;
        check_rows("i2t", &i2t)?;
        check_rows("t2i", &t2i)?;
        check_transpose(&i2t, &t2i)?;
        if i2t.len() >= NO_ROW as usize {
            return Err(format!(
                "i2t has {} rows, more than a slot can name",
                i2t.len()
            ));
        }
        let mut p2i_slots = vec![None; p2i.last().map_or(0, |(v, _)| v.index() + 1)];
        for (v, w) in p2i {
            p2i_slots[v.index()] = Some(w);
        }
        let mut i2t_slots = vec![NO_ROW; i2t.last().map_or(0, |(w, _)| w.index() + 1)];
        let mut i2t_rows = Vec::with_capacity(i2t.len());
        for (w, row) in i2t {
            i2t_slots[w.index()] = i2t_rows.len() as u32;
            i2t_rows.push(row);
        }
        Ok(KeywordMappings {
            p2i: p2i_slots,
            i2p: i2p.into_iter().collect(),
            i2t_slots,
            i2t_rows,
            t2i: t2i.into_iter().collect(),
        })
    }

    /// Iterates `P2I` in partition order — whole-map traversal for
    /// persistence capture.
    pub fn p2i_entries(&self) -> impl Iterator<Item = (PartitionId, WordId)> + '_ {
        self.p2i
            .iter()
            .enumerate()
            .filter_map(|(v, w)| Some((PartitionId(v as u32), (*w)?)))
    }

    /// Iterates `T2I` in t-word order.
    pub fn t2i_entries(&self) -> impl ExactSizeIterator<Item = (WordId, &[WordId])> {
        self.t2i.iter().map(|(w, row)| (*w, row.as_slice()))
    }

    /// Assigns i-word `w` to partition `v` (`P2I(v) = w`). Fails when the
    /// partition already has an i-word.
    pub fn assign_partition(&mut self, v: PartitionId, w: WordId) -> Result<()> {
        if self.p2i(v).is_some() {
            return Err(KeywordError::PartitionAlreadyNamed(v));
        }
        if self.p2i.len() <= v.index() {
            self.p2i.resize(v.index() + 1, None);
        }
        self.p2i[v.index()] = Some(w);
        self.i2p.entry(w).or_default().push(v);
        Ok(())
    }

    /// Associates t-word `t` with i-word `w` (updates both `I2T` and `T2I`).
    pub fn associate(&mut self, iword: WordId, tword: WordId) {
        if self.i2t_slots.len() <= iword.index() {
            self.i2t_slots.resize(iword.index() + 1, NO_ROW);
        }
        match self.i2t_slots[iword.index()] {
            NO_ROW => {
                let at = u32::try_from(self.i2t_rows.len())
                    .ok()
                    .filter(|&at| at != NO_ROW)
                    .expect("fewer than 2^32 - 1 i-words have t-words");
                self.i2t_slots[iword.index()] = at;
                self.i2t_rows.push(vec![tword]);
            }
            at => insert_sorted(&mut self.i2t_rows[at as usize], tword),
        }
        insert_sorted(self.t2i.entry(tword).or_default(), iword);
    }

    /// `P2I(v)`: the i-word of a partition, if assigned.
    pub fn p2i(&self, v: PartitionId) -> Option<WordId> {
        self.p2i.get(v.index()).copied().flatten()
    }

    /// `I2P(w)`: the partitions identified by an i-word.
    pub fn i2p(&self, w: WordId) -> &[PartitionId] {
        self.i2p.get(&w).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `I2T(w)`: the t-words of an i-word, sorted (empty when it has none).
    pub fn i2t(&self, w: WordId) -> &[WordId] {
        match self.i2t_slots.get(w.index()) {
            Some(&at) if at != NO_ROW => &self.i2t_rows[at as usize],
            _ => &[],
        }
    }

    /// `T2I(t)`: the i-words described by a t-word, sorted (empty when it
    /// describes none).
    pub fn t2i(&self, t: WordId) -> &[WordId] {
        self.t2i.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates `I2P` in i-word order — map-order traversal for callers
    /// (like fingerprinting) that would otherwise pay a lookup per i-word.
    pub fn i2p_entries(&self) -> impl ExactSizeIterator<Item = (WordId, &[PartitionId])> {
        self.i2p.iter().map(|(w, v)| (*w, v.as_slice()))
    }

    /// Iterates `I2T` in i-word order, over the i-words with a t-word.
    pub fn i2t_entries(&self) -> impl ExactSizeIterator<Item = (WordId, &[WordId])> {
        I2tEntries {
            slots: self.i2t_slots.iter().enumerate(),
            rows: &self.i2t_rows,
            left: self.i2t_rows.len(),
        }
    }

    /// `PW(v)`: the partition words of `v` — its i-word plus the i-word's
    /// t-words. Returns an error when the partition has no i-word.
    pub fn partition_words(&self, v: PartitionId) -> Result<(WordId, &[WordId])> {
        let iword = self.p2i(v).ok_or(KeywordError::PartitionUnnamed(v))?;
        Ok((iword, self.i2t(iword)))
    }

    /// Partitions assigned to any i-word (i.e. partitions carrying keywords).
    pub fn named_partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.p2i_entries().map(|(v, _)| v)
    }

    /// All i-words that identify at least one partition.
    pub fn used_iwords(&self) -> impl Iterator<Item = WordId> + '_ {
        self.i2p.keys().copied()
    }

    /// Number of (i-word, t-word) association pairs.
    pub fn num_associations(&self) -> usize {
        self.i2t_rows.iter().map(Vec::len).sum()
    }

    /// Average number of t-words per i-word that has at least one t-word.
    pub fn avg_twords_per_iword(&self) -> f64 {
        if self.i2t_rows.is_empty() {
            return 0.0;
        }
        self.num_associations() as f64 / self.i2t_rows.len() as f64
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.p2i.capacity() * std::mem::size_of::<Option<WordId>>()
            + self.i2t_slots.capacity() * std::mem::size_of::<u32>()
            + self.i2t_rows.capacity() * std::mem::size_of::<Vec<WordId>>()
            + self
                .i2p
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<PartitionId>() + 16)
                .sum::<usize>()
            + self.num_associations() * 2 * std::mem::size_of::<WordId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;

    fn sample() -> (Vocabulary, KeywordMappings) {
        let mut v = Vocabulary::new();
        let mut m = KeywordMappings::new();
        let apple = v.add_iword("apple").unwrap();
        let costa = v.add_iword("costa").unwrap();
        let cashier = v.add_iword("cashier").unwrap();
        let (coffee, _) = v.add_tword("coffee");
        let (laptop, _) = v.add_tword("laptop");
        let (phone, _) = v.add_tword("phone");
        m.assign_partition(PartitionId(3), costa).unwrap();
        m.assign_partition(PartitionId(10), apple).unwrap();
        m.assign_partition(PartitionId(20), cashier).unwrap();
        m.assign_partition(PartitionId(21), cashier).unwrap();
        m.associate(apple, laptop);
        m.associate(apple, phone);
        m.associate(costa, coffee);
        (v, m)
    }

    #[test]
    fn p2i_is_many_to_one() {
        let (v, m) = sample();
        let cashier = v.lookup("cashier").unwrap();
        assert_eq!(m.p2i(PartitionId(20)), Some(cashier));
        assert_eq!(m.p2i(PartitionId(21)), Some(cashier));
        assert_eq!(m.i2p(cashier), &[PartitionId(20), PartitionId(21)]);
        // A partition can only be named once.
        let mut m2 = m.clone();
        assert!(m2
            .assign_partition(PartitionId(20), v.lookup("apple").unwrap())
            .is_err());
    }

    #[test]
    fn i2t_and_t2i_are_inverse_views() {
        let (v, m) = sample();
        let apple = v.lookup("apple").unwrap();
        let laptop = v.lookup("laptop").unwrap();
        assert!(m.i2t(apple).contains(&laptop));
        assert!(m.t2i(laptop).contains(&apple));
        assert!(m
            .t2i(v.lookup("coffee").unwrap())
            .contains(&v.lookup("costa").unwrap()));
        assert!(m.i2t(v.lookup("cashier").unwrap()).is_empty());
        // Rows stay sorted and duplicate-free whatever the insertion order.
        let mut m = KeywordMappings::new();
        for t in [5, 1, 3, 1, 5] {
            m.associate(WordId(9), WordId(t));
        }
        assert_eq!(m.i2t(WordId(9)), &[WordId(1), WordId(3), WordId(5)]);
        assert_eq!(m.t2i(WordId(1)), &[WordId(9)]);
        assert_eq!(m.num_associations(), 3);
    }

    #[test]
    fn partition_words_bundle_iword_and_twords() {
        let (v, m) = sample();
        let (iw, tw) = m.partition_words(PartitionId(10)).unwrap();
        assert_eq!(iw, v.lookup("apple").unwrap());
        assert_eq!(tw.len(), 2);
        // Unnamed partition errors.
        assert!(matches!(
            m.partition_words(PartitionId(99)),
            Err(KeywordError::PartitionUnnamed(_))
        ));
        // Named partition whose i-word has no t-words yields an empty set.
        let (_, tw) = m.partition_words(PartitionId(20)).unwrap();
        assert!(tw.is_empty());
    }

    #[test]
    fn from_sorted_parts_rebuilds_and_validates() {
        let (v, m) = sample();
        let p2i: Vec<_> = m.p2i_entries().collect();
        let i2p: Vec<_> = m.i2p_entries().map(|(w, l)| (w, l.to_vec())).collect();
        let i2t: Vec<_> = m.i2t_entries().map(|(w, s)| (w, s.to_vec())).collect();
        let t2i: Vec<_> = m.t2i_entries().map(|(w, s)| (w, s.to_vec())).collect();
        let back =
            KeywordMappings::from_sorted_parts(p2i.clone(), i2p.clone(), i2t.clone(), t2i.clone())
                .unwrap();
        let cashier = v.lookup("cashier").unwrap();
        assert_eq!(back.i2p(cashier), m.i2p(cashier));
        assert_eq!(back.p2i(PartitionId(10)), m.p2i(PartitionId(10)));
        assert_eq!(back.num_associations(), m.num_associations());
        assert_eq!(
            back.i2t(v.lookup("apple").unwrap()),
            m.i2t(v.lookup("apple").unwrap())
        );

        // Unsorted keys, empty lists and coverage mismatches are rejected.
        let mut bad = p2i.clone();
        bad.reverse();
        assert!(
            KeywordMappings::from_sorted_parts(bad, i2p.clone(), i2t.clone(), t2i.clone()).is_err()
        );
        let mut bad = i2p.clone();
        bad[0].1.clear();
        assert!(
            KeywordMappings::from_sorted_parts(p2i.clone(), bad, i2t.clone(), t2i.clone()).is_err()
        );
        let mut bad = i2p.clone();
        bad[0].1.push(PartitionId(77));
        assert!(
            KeywordMappings::from_sorted_parts(p2i.clone(), bad, i2t.clone(), t2i.clone()).is_err()
        );
        let mut bad = i2t.clone();
        bad[0].1.reverse();
        assert!(KeywordMappings::from_sorted_parts(p2i, i2p, bad, t2i).is_err());
    }

    /// The four tables of `m`, as the columnar loader hands them over.
    #[allow(clippy::type_complexity)]
    fn parts(
        m: &KeywordMappings,
    ) -> (
        Vec<(PartitionId, WordId)>,
        Vec<(WordId, Vec<PartitionId>)>,
        Vec<(WordId, Vec<WordId>)>,
        Vec<(WordId, Vec<WordId>)>,
    ) {
        (
            m.p2i_entries().collect(),
            m.i2p_entries().map(|(w, l)| (w, l.to_vec())).collect(),
            m.i2t_entries().map(|(w, s)| (w, s.to_vec())).collect(),
            m.t2i_entries().map(|(w, s)| (w, s.to_vec())).collect(),
        )
    }

    /// The position of `w`'s row in a table.
    fn at<T>(table: &[(WordId, T)], w: WordId) -> usize {
        table.iter().position(|(x, _)| *x == w).unwrap()
    }

    #[test]
    fn from_sorted_parts_rejects_tables_that_do_not_invert_each_other() {
        let (v, mut m) = sample();
        let word = |name: &str| v.lookup(name).unwrap();
        m.associate(word("costa"), word("phone"));
        let (p2i, i2p, i2t, t2i) = parts(&m);
        assert!(KeywordMappings::from_sorted_parts(
            p2i.clone(),
            i2p.clone(),
            i2t.clone(),
            t2i.clone()
        )
        .is_ok());

        // Swapped partitions: the counts still match P2I.
        let mut swapped = i2p.clone();
        let (costa, apple) = (at(&i2p, word("costa")), at(&i2p, word("apple")));
        let costa_list = swapped[costa].1.clone();
        swapped[costa].1 = swapped[apple].1.clone();
        swapped[apple].1 = costa_list;
        let err =
            KeywordMappings::from_sorted_parts(p2i.clone(), swapped, i2t.clone(), t2i.clone())
                .unwrap_err();
        assert!(err.contains("against p2i"), "{err}");

        // A duplicated partition in place of another one of the same i-word.
        let mut duplicated = i2p.clone();
        let cashier = at(&i2p, word("cashier"));
        duplicated[cashier].1 = vec![PartitionId(20), PartitionId(20)];
        let err =
            KeywordMappings::from_sorted_parts(p2i.clone(), duplicated, i2t.clone(), t2i.clone())
                .unwrap_err();
        assert!(
            err.contains("i2p(") || err.contains("does not list"),
            "{err}"
        );

        // A T2I pair missing: phone no longer lists costa.
        let mut missing = t2i.clone();
        let phone = at(&t2i, word("phone"));
        missing[phone].1.retain(|&w| w != word("costa"));
        let err =
            KeywordMappings::from_sorted_parts(p2i.clone(), i2p.clone(), i2t.clone(), missing)
                .unwrap_err();
        assert!(err.contains("t2i"), "{err}");

        // An extra T2I pair: laptop also lists costa, whose I2T row lacks it.
        let mut extra = t2i.clone();
        let laptop = at(&t2i, word("laptop"));
        extra[laptop].1.push(word("costa"));
        extra[laptop].1.sort();
        let err = KeywordMappings::from_sorted_parts(p2i.clone(), i2p.clone(), i2t.clone(), extra)
            .unwrap_err();
        assert!(err.contains("t2i"), "{err}");

        // An extra T2I row for a t-word no I2T row mentions.
        let mut extra_row = t2i.clone();
        extra_row.push((WordId(99), vec![word("apple")]));
        let err = KeywordMappings::from_sorted_parts(p2i, i2p, i2t, extra_row).unwrap_err();
        assert!(err.contains("t2i(w99)"), "{err}");
    }

    #[test]
    fn statistics() {
        let (_, m) = sample();
        assert_eq!(m.num_associations(), 3);
        assert_eq!(m.named_partitions().count(), 4);
        assert_eq!(m.used_iwords().count(), 3);
        assert!((m.avg_twords_per_iword() - 1.5).abs() < 1e-9);
        assert!(m.estimated_bytes() > 0);
        assert!(KeywordMappings::new().avg_twords_per_iword() == 0.0);
    }
}
