//! The per-thread scratch of a search: a slot per door and a slot per
//! partition of the venue, each live only under the epoch of the search
//! that wrote it.
//!
//! A search keys several tables by door or partition id: Rule 2's verdict
//! per door (`Dn`/`Df`), Rule 1's `|d, pt|_L` memo, the offset of each met
//! partition's key-partition row, and which doors the expanded stamp's
//! route holds. Each is an array index here instead of a hash probe or a
//! scan.
//!
//! A search takes its thread's scratch when it starts (`PooledScratch`)
//! and gives it back when it ends, as the bounded shortest-path runs pool
//! their buffers. Starting a search bumps the scratch's epoch, so every
//! slot an earlier search wrote reads unset without being touched: no
//! search does work proportional to the venue. The scratch grows to the
//! largest venue the thread has served and never shrinks. An epoch that
//! wraps clears every slot, once in 2³² searches. A search started while
//! another is live on the same thread finds no spare scratch and makes one
//! of its own.
//!
//! The scratch belongs to the thread, not the search, so a search's
//! `peak_memory_bytes` counts the entries it wrote, not the slots.

use indoor_space::{DoorId, PartitionId};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// A door's slot: Rule 2's verdict and Rule 1's bound, when known.
#[derive(Debug, Clone, Copy, Default)]
struct DoorSlot {
    /// The epoch the slot was written under.
    epoch: u32,
    /// [`PASSED`], [`FILTERED`] and [`BOUNDED`] bits.
    flags: u8,
    /// `|d, pt|_L`, when [`BOUNDED`] is set.
    bound: f64,
}

/// Rule 2 kept the door (`Dn`).
const PASSED: u8 = 1;
/// Rule 2 filtered the door out (`Df`).
const FILTERED: u8 = 2;
/// The slot holds Rule 1's bound.
const BOUNDED: u8 = 4;

/// A partition's slot: the offset of its key-partition row.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionSlot {
    /// The epoch the slot was written under.
    epoch: u32,
    /// The row's offset, or [`NO_ROW`] for a partition that covers no
    /// query keyword.
    row: u32,
}

/// The row of a partition that covers no query keyword.
const NO_ROW: u32 = u32::MAX;

/// The slots of one thread. Epoch 0 is never live, so a fresh slot reads
/// unset.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// The epoch of the search holding the scratch.
    epoch: u32,
    doors: Vec<DoorSlot>,
    partitions: Vec<PartitionSlot>,
    /// Door `d` is on the expanded stamp's route when `marks[d] == mark`.
    marks: Vec<u32>,
    mark: u32,
    /// Entries the current search wrote, for its memory accounting.
    verdicts: usize,
    bounds: usize,
}

impl SearchScratch {
    /// Readies the scratch for a search of a venue with `num_doors` doors
    /// and `num_partitions` partitions: a new epoch, no door marked, and
    /// slots for every id.
    fn begin(&mut self, num_doors: usize, num_partitions: usize) {
        if self.doors.len() < num_doors {
            self.doors.resize(num_doors, DoorSlot::default());
            self.marks.resize(num_doors, 0);
        }
        if self.partitions.len() < num_partitions {
            self.partitions
                .resize(num_partitions, PartitionSlot::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.doors.fill(DoorSlot::default());
            self.partitions.fill(PartitionSlot::default());
            self.epoch = 1;
        }
        self.verdicts = 0;
        self.bounds = 0;
        self.mark_route(&[]);
    }

    /// Door `d`'s slot, cleared first when an earlier epoch wrote it.
    #[inline]
    fn door(&mut self, d: DoorId) -> &mut DoorSlot {
        let epoch = self.epoch;
        let slot = &mut self.doors[d.index()];
        if slot.epoch != epoch {
            *slot = DoorSlot {
                epoch,
                ..DoorSlot::default()
            };
        }
        slot
    }

    /// Rule 2's verdict on door `d` in this search: `Some(true)` when it
    /// kept the door (`Dn`), `Some(false)` when it filtered it out (`Df`),
    /// `None` before it has tested the door.
    #[inline]
    pub(crate) fn door_verdict(&self, d: DoorId) -> Option<bool> {
        let slot = &self.doors[d.index()];
        if slot.epoch != self.epoch || slot.flags & (PASSED | FILTERED) == 0 {
            None
        } else {
            Some(slot.flags & PASSED != 0)
        }
    }

    /// Records Rule 2's verdict on door `d`.
    pub(crate) fn set_door_verdict(&mut self, d: DoorId, passed: bool) {
        let slot = self.door(d);
        debug_assert_eq!(slot.flags & (PASSED | FILTERED), 0, "one verdict per door");
        slot.flags |= if passed { PASSED } else { FILTERED };
        self.verdicts += 1;
    }

    /// Rule 1's `|d, pt|_L` for door `d`, computed by `bound` the first
    /// time this search asks.
    #[inline]
    pub(crate) fn terminal_bound(&mut self, d: DoorId, bound: impl FnOnce() -> f64) -> f64 {
        let slot = self.door(d);
        if slot.flags & BOUNDED == 0 {
            slot.bound = bound();
            slot.flags |= BOUNDED;
            self.bounds += 1;
        }
        self.doors[d.index()].bound
    }

    /// Partition `v`'s row in this search: `None` before the search has
    /// met `v`, `Some(None)` when `v` covers no query keyword.
    #[inline]
    pub(crate) fn partition_row(&self, v: PartitionId) -> Option<Option<usize>> {
        let slot = &self.partitions[v.index()];
        (slot.epoch == self.epoch).then(|| (slot.row != NO_ROW).then_some(slot.row as usize))
    }

    /// Records partition `v`'s row.
    pub(crate) fn set_partition_row(&mut self, v: PartitionId, row: Option<usize>) {
        let row = match row {
            Some(offset) => u32::try_from(offset)
                .ok()
                .filter(|&row| row != NO_ROW)
                .expect("a search scores fewer than 2^32 - 1 similarities"),
            None => NO_ROW,
        };
        self.partitions[v.index()] = PartitionSlot {
            epoch: self.epoch,
            row,
        };
    }

    /// Marks `doors`, the route of the stamp being expanded, and unmarks
    /// every other door.
    pub(crate) fn mark_route(&mut self, doors: &[DoorId]) {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            self.marks.fill(0);
            self.mark = 1;
        }
        for d in doors {
            self.marks[d.index()] = self.mark;
        }
    }

    /// Whether door `d` is on the marked route.
    #[inline]
    pub(crate) fn is_marked(&self, d: DoorId) -> bool {
        self.marks[d.index()] == self.mark
    }

    /// Bytes of the entries the current search wrote in the door slots,
    /// counted as the tables they replace counted them: a door id twice
    /// per Rule-2 verdict, a door id and a bound per Rule-1 bound.
    pub(crate) fn written_bytes(&self) -> usize {
        use std::mem::size_of;
        self.verdicts * size_of::<DoorId>() * 2 + self.bounds * size_of::<(DoorId, f64)>()
    }

    /// Heap bytes of the slots, which the thread keeps between searches.
    pub(crate) fn slot_bytes(&self) -> usize {
        use std::mem::size_of;
        self.doors.capacity() * size_of::<DoorSlot>()
            + self.marks.capacity() * size_of::<u32>()
            + self.partitions.capacity() * size_of::<PartitionSlot>()
    }
}

thread_local! {
    /// The thread's spare scratch, while no search holds it.
    static SPARE: RefCell<Option<SearchScratch>> = const { RefCell::new(None) };
}

/// A search's hold on a scratch: its thread's spare one when there is one,
/// a new one otherwise. Dropping it gives the scratch back to the thread,
/// which keeps the larger of two.
#[derive(Debug)]
pub(crate) struct PooledScratch(SearchScratch);

impl PooledScratch {
    /// Takes the thread's scratch, ready for a search of a venue with
    /// `num_doors` doors and `num_partitions` partitions.
    pub(crate) fn take(num_doors: usize, num_partitions: usize) -> Self {
        let spare = SPARE
            .try_with(|spare| spare.try_borrow_mut().ok()?.take())
            .ok()
            .flatten();
        let mut scratch = spare.unwrap_or_default();
        scratch.begin(num_doors, num_partitions);
        PooledScratch(scratch)
    }
}

impl Deref for PooledScratch {
    type Target = SearchScratch;

    fn deref(&self) -> &SearchScratch {
        &self.0
    }
}

impl DerefMut for PooledScratch {
    fn deref_mut(&mut self) -> &mut SearchScratch {
        &mut self.0
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.0);
        // Never panic in `drop`: during thread teardown the spare slot may
        // already be gone, and the scratch is then simply freed.
        let _ = SPARE.try_with(|spare| {
            let Ok(mut spare) = spare.try_borrow_mut() else {
                return;
            };
            if spare
                .as_ref()
                .is_none_or(|kept| kept.slot_bytes() < scratch.slot_bytes())
            {
                *spare = Some(scratch);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heap bytes of the calling thread's spare scratch, 0 when it has
    /// none.
    fn thread_scratch_bytes() -> usize {
        SPARE.with(|spare| spare.borrow().as_ref().map_or(0, SearchScratch::slot_bytes))
    }

    fn epoch_of_spare() -> Option<u32> {
        SPARE.with(|spare| spare.borrow().as_ref().map(|s| s.epoch))
    }

    #[test]
    fn a_slot_written_by_one_search_reads_unset_in_the_next() {
        let (d, v) = (DoorId(3), PartitionId(2));
        {
            let mut first = PooledScratch::take(8, 4);
            first.set_door_verdict(d, false);
            assert_eq!(first.terminal_bound(d, || 7.5), 7.5);
            assert_eq!(first.terminal_bound(d, || unreachable!("memoised")), 7.5);
            first.set_partition_row(v, Some(6));
            first.mark_route(&[d]);
            assert_eq!(first.door_verdict(d), Some(false));
            assert_eq!(first.partition_row(v), Some(Some(6)));
            assert!(first.is_marked(d));
            assert_eq!(first.written_bytes(), 8 + 16);
        }
        let epoch = epoch_of_spare().expect("the search gave its scratch back");
        let mut next = PooledScratch::take(8, 4);
        assert_eq!(next.epoch, epoch + 1, "the same scratch, a new epoch");
        assert_eq!(next.door_verdict(d), None);
        assert_eq!(next.partition_row(v), None);
        assert!(!next.is_marked(d));
        assert_eq!(next.written_bytes(), 0);
        assert_eq!(next.terminal_bound(d, || 1.0), 1.0);
        next.set_partition_row(v, None);
        assert_eq!(next.partition_row(v), Some(None));
    }

    #[test]
    fn an_epoch_that_wraps_clears_every_slot() {
        let (d, v) = (DoorId(1), PartitionId(1));
        let mut scratch = SearchScratch::default();
        scratch.begin(4, 4);
        assert_eq!(scratch.epoch, 1);
        scratch.set_door_verdict(d, true);
        scratch.set_partition_row(v, Some(0));
        // 2³² - 1 searches later the epoch wraps back to 1, which wrote the
        // slots above: only the clear keeps them from reading live.
        scratch.epoch = u32::MAX - 1;
        scratch.begin(4, 4);
        assert_eq!(scratch.epoch, u32::MAX);
        assert_eq!(scratch.door_verdict(d), None);
        scratch.begin(4, 4);
        assert_eq!(scratch.epoch, 1);
        assert_eq!(scratch.door_verdict(d), None);
        assert_eq!(scratch.partition_row(v), None);
        // Route marks wrap the same way.
        scratch.mark_route(&[d]);
        let mark = scratch.mark;
        scratch.mark = u32::MAX;
        scratch.mark_route(&[]);
        assert_eq!(scratch.mark, 1);
        scratch.mark = mark - 1;
        scratch.mark_route(&[]);
        assert_eq!(scratch.mark, mark);
        assert!(!scratch.is_marked(d), "the wrap cleared the old mark");
    }

    #[test]
    fn a_thread_grows_its_scratch_once_for_a_larger_venue() {
        std::thread::spawn(|| {
            assert_eq!(thread_scratch_bytes(), 0);
            drop(PooledScratch::take(10, 5));
            let small = thread_scratch_bytes();
            assert!(small > 0);
            drop(PooledScratch::take(10, 5));
            assert_eq!(thread_scratch_bytes(), small);
            drop(PooledScratch::take(1_000, 500));
            let large = thread_scratch_bytes();
            assert!(large > small);
            // The small venue again, then the large one: no growth.
            for (doors, partitions) in [(10, 5), (1_000, 500), (3, 2)] {
                let scratch = PooledScratch::take(doors, partitions);
                assert_eq!(scratch.slot_bytes(), large);
            }
            assert_eq!(thread_scratch_bytes(), large);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_nested_search_gets_a_scratch_of_its_own() {
        std::thread::spawn(|| {
            drop(PooledScratch::take(4, 4));
            let mut outer = PooledScratch::take(4, 4);
            outer.set_door_verdict(DoorId(0), true);
            outer.mark_route(&[DoorId(0)]);
            {
                let mut inner = PooledScratch::take(64, 64);
                assert_eq!(inner.door_verdict(DoorId(0)), None);
                assert!(!inner.is_marked(DoorId(0)));
                inner.set_door_verdict(DoorId(0), false);
                inner.mark_route(&[DoorId(1)]);
            }
            // The inner search neither saw nor touched the outer's slots.
            assert_eq!(outer.door_verdict(DoorId(0)), Some(true));
            assert!(outer.is_marked(DoorId(0)));
            assert!(!outer.is_marked(DoorId(1)));
            let inner_bytes = thread_scratch_bytes();
            drop(outer);
            // The thread keeps the larger of the two.
            assert_eq!(thread_scratch_bytes(), inner_bytes);
        })
        .join()
        .unwrap();
    }
}
