//! The resident set of a [`crate::RunBuffer`], in one of two forms.
//!
//! A buffer starts with its working set as sorted spans (an
//! [`IntervalSet`]): a probe is a binary search, an insert or an eviction
//! a splice. That is the cheap form while the set holds few spans, which is
//! every buffer whose demand arrives as long contiguous runs (an OS fold
//! row's A stream, the label blocks of B and O). A working set that
//! fragments — the IFMAP of an IS fold, or of a WS fold row whose k-slice
//! cuts every A row — can hold thousands of spans, and then every insert
//! and front eviction moves a large part of the two arrays. Once the span
//! count passes [`PROMOTE_SPANS`] the set moves, for good until it is
//! cleared, into a [`PagedBitmap`], where a probe, an insert and an
//! eviction cost the pages they touch whatever the span count.

use crate::runs::IntervalSet;

/// The span count past which a resident set becomes a paged bitmap. Below
/// it a span probe, insert and eviction cost about what the bitmap's do;
/// above it they grow with the span count and the bitmap's do not
/// (DESIGN §3.10, *Fragmented working sets*).
pub(crate) const PROMOTE_SPANS: usize = 64;

/// Addresses per page, as a power of two.
const PAGE_SHIFT: u32 = 12;
/// Addresses per page.
const PAGE_ADDRS: u64 = 1 << PAGE_SHIFT;
/// `u64` words per page.
const PAGE_WORDS: usize = (PAGE_ADDRS / 64) as usize;

/// The bits `lo..hi` of a word, for `lo < hi <= 64`.
#[inline]
fn word_mask(lo: u32, hi: u32) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

/// A set of addresses as one bit per address, in pages of 4,096 addresses
/// allocated only where some address is present.
///
/// Pages live in slots of `words`; `index` maps the page numbers in use,
/// ascending, to their slots, and a page whose last address leaves goes
/// back to the free list, all zeros. Every page in `index` therefore holds
/// at least one address, and a page holding all of them is known from its
/// count without reading its words.
#[derive(Debug, Default)]
pub(crate) struct PagedBitmap {
    /// `(page number, slot)` of every page in use, by page number.
    index: Vec<(u64, u32)>,
    /// The bits of each slot. Slots not in use are all zeros.
    words: Vec<[u64; PAGE_WORDS]>,
    /// Addresses present per slot.
    counts: Vec<u32>,
    /// Slots not in use.
    free: Vec<u32>,
    /// Addresses present.
    len: u64,
}

impl PagedBitmap {
    /// Index in `index` of the first page numbered `page` or above.
    #[inline]
    fn seek(&self, page: u64) -> usize {
        self.index.partition_point(|&(p, _)| p < page)
    }

    /// The slot of `page`, if it is in use.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<usize> {
        let i = self.seek(page);
        match self.index.get(i) {
            Some(&(p, slot)) if p == page => Some(slot as usize),
            _ => None,
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.slot_of(addr >> PAGE_SHIFT).is_some_and(|slot| {
            let bit = addr & (PAGE_ADDRS - 1);
            self.words[slot][(bit >> 6) as usize] >> (bit & 63) & 1 == 1
        })
    }

    /// Whether `pos` is present, and the end of the stretch from `pos`,
    /// capped at `limit > pos`, over which that answer holds: the first
    /// address that answers otherwise, or `limit`.
    fn run_at(&self, pos: u64, limit: u64) -> (bool, u64) {
        let mut i = self.seek(pos >> PAGE_SHIFT);
        let present = self.index.get(i).is_some_and(|&(page, slot)| {
            if page != pos >> PAGE_SHIFT {
                return false;
            }
            let bit = pos & (PAGE_ADDRS - 1);
            self.words[slot as usize][(bit >> 6) as usize] >> (bit & 63) & 1 == 1
        });
        // Set in a word where an address answers otherwise than `pos`.
        let flip = if present { u64::MAX } else { 0 };
        let mut at = pos;
        loop {
            let page = at >> PAGE_SHIFT;
            let Some(&(in_use, slot)) = self.index.get(i) else {
                return (present, if present { at } else { limit });
            };
            if in_use != page {
                // `at` opens a page not in use: nothing of it is present.
                if present {
                    return (true, at);
                }
                let next = in_use << PAGE_SHIFT;
                if next >= limit {
                    return (false, limit);
                }
                at = next;
                continue;
            }
            let slot = slot as usize;
            if !(present && u64::from(self.counts[slot]) == PAGE_ADDRS) {
                let words = &self.words[slot];
                let base = at & !(PAGE_ADDRS - 1);
                let mut w = ((at >> 6) & (PAGE_WORDS as u64 - 1)) as usize;
                let mut other = (words[w] ^ flip) >> (at & 63);
                let mut from = at;
                loop {
                    if other != 0 {
                        let end = from + u64::from(other.trailing_zeros());
                        return (present, end.min(limit));
                    }
                    w += 1;
                    if w == PAGE_WORDS {
                        break;
                    }
                    from = base + 64 * w as u64;
                    if from >= limit {
                        return (present, limit);
                    }
                    other = words[w] ^ flip;
                }
            }
            let last = at | (PAGE_ADDRS - 1);
            if last >= limit - 1 {
                return (present, limit);
            }
            at = last + 1;
            i += 1;
        }
    }

    /// Adds `[start, end)`, none of which may be present.
    fn insert(&mut self, start: u64, end: u64) {
        let mut at = start;
        while at < end {
            let page = at >> PAGE_SHIFT;
            let stop = page_stop(at, end);
            let i = self.seek(page);
            let slot = match self.index.get(i) {
                Some(&(p, slot)) if p == page => slot as usize,
                _ => {
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.words.push([0; PAGE_WORDS]);
                        self.counts.push(0);
                        (self.words.len() - 1) as u32
                    });
                    self.index.insert(i, (page, slot));
                    slot as usize
                }
            };
            let words = &mut self.words[slot];
            for_words(at, stop, |w, mask| {
                debug_assert_eq!(words[w] & mask, 0, "insert: address already present");
                words[w] |= mask;
            });
            self.counts[slot] += (stop - at) as u32;
            at = stop;
        }
        self.len += end - start;
    }

    /// Removes `[start, end)`, all of which must be present.
    fn remove(&mut self, start: u64, end: u64) {
        let mut at = start;
        while at < end {
            let page = at >> PAGE_SHIFT;
            let stop = page_stop(at, end);
            let i = self.seek(page);
            let slot = match self.index.get(i) {
                Some(&(p, slot)) if p == page => slot as usize,
                _ => panic!("remove: page {page} not in use"),
            };
            let words = &mut self.words[slot];
            for_words(at, stop, |w, mask| {
                debug_assert_eq!(words[w] & mask, mask, "remove: address not present");
                words[w] &= !mask;
            });
            self.counts[slot] -= (stop - at) as u32;
            if self.counts[slot] == 0 {
                self.index.remove(i);
                self.free.push(slot as u32);
            }
            at = stop;
        }
        self.len -= end - start;
    }

    /// Empties the set, keeping every allocation.
    fn clear(&mut self) {
        for &(_, slot) in &self.index {
            self.words[slot as usize] = [0; PAGE_WORDS];
            self.counts[slot as usize] = 0;
            self.free.push(slot);
        }
        self.index.clear();
        self.len = 0;
    }

    /// The maximal spans present, ascending.
    #[cfg(any(debug_assertions, test))]
    fn iter_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = self
            .index
            .first()
            .map_or(u64::MAX, |&(page, _)| page << PAGE_SHIFT);
        std::iter::from_fn(move || {
            while at < u64::MAX {
                let start = at;
                let (present, end) = self.run_at(start, u64::MAX);
                at = end;
                if present {
                    return Some((start, end));
                }
            }
            None
        })
    }
}

impl Clone for PagedBitmap {
    fn clone(&self) -> PagedBitmap {
        let mut copy = PagedBitmap::default();
        copy.clone_from(self);
        copy
    }

    /// Copies into this set's own storage.
    fn clone_from(&mut self, source: &PagedBitmap) {
        self.index.clone_from(&source.index);
        self.words.clone_from(&source.words);
        self.counts.clone_from(&source.counts);
        self.free.clone_from(&source.free);
        self.len = source.len;
    }
}

/// The end of the part of `[at, end)` in `at`'s page, computed so that a
/// range ending at `u64::MAX` does not step past the last page.
#[inline]
fn page_stop(at: u64, end: u64) -> u64 {
    let last = at | (PAGE_ADDRS - 1);
    if last >= end - 1 {
        end
    } else {
        last + 1
    }
}

/// Calls `f(word, mask)` for each word of the page that `[at, stop)`, a
/// range inside one page, touches, with the bits it covers in that word.
#[inline]
fn for_words(at: u64, stop: u64, mut f: impl FnMut(usize, u64)) {
    let mut a = at;
    while a < stop {
        let word_last = a | 63;
        let b = if word_last >= stop - 1 {
            stop
        } else {
            word_last + 1
        };
        let lo = (a & 63) as u32;
        f(
            ((a >> 6) & (PAGE_WORDS as u64 - 1)) as usize,
            word_mask(lo, lo + (b - a) as u32),
        );
        a = b;
    }
}

/// A [`crate::RunBuffer`]'s working set: sorted spans until they number
/// more than [`PROMOTE_SPANS`], then a [`PagedBitmap`] until
/// [`ResidentSet::clear`]. Both forms are kept, so that a buffer that is
/// cleared and promoted again reuses the storage of the last time.
#[derive(Debug, Default)]
pub(crate) struct ResidentSet {
    spans: IntervalSet,
    pages: PagedBitmap,
    paged: bool,
}

impl Clone for ResidentSet {
    fn clone(&self) -> ResidentSet {
        let mut copy = ResidentSet::default();
        copy.clone_from(self);
        copy
    }

    /// Copies into this set's own storage.
    fn clone_from(&mut self, source: &ResidentSet) {
        self.spans.clone_from(&source.spans);
        self.pages.clone_from(&source.pages);
        self.paged = source.paged;
    }
}

impl ResidentSet {
    /// Whether the set has become a paged bitmap.
    pub(crate) fn is_paged(&self) -> bool {
        self.paged
    }

    /// Addresses present.
    pub(crate) fn len(&self) -> u64 {
        if self.paged {
            self.pages.len
        } else {
            self.spans.len()
        }
    }

    pub(crate) fn contains(&self, addr: u64) -> bool {
        if self.paged {
            self.pages.contains(addr)
        } else {
            self.spans.contains(addr)
        }
    }

    /// Whether `pos` is present, and where, at most at `limit > pos`, the
    /// stretch of addresses that answer the same ends.
    #[inline]
    pub(crate) fn run_at(&self, pos: u64, limit: u64) -> (bool, u64) {
        if self.paged {
            self.pages.run_at(pos, limit)
        } else {
            self.spans.run_at(pos, limit)
        }
    }

    /// Whether any address of the non-empty range `[start, end)` is present.
    pub(crate) fn overlaps(&self, start: u64, end: u64) -> bool {
        let (present, stop) = self.run_at(start, end);
        present || stop < end
    }

    /// Adds `[start, end)` and calls `gap(s, e)` for each maximal part of
    /// it that was not present, in ascending order.
    #[inline]
    pub(crate) fn insert_with_gaps(&mut self, start: u64, end: u64, mut gap: impl FnMut(u64, u64)) {
        if self.paged {
            let mut at = start;
            while at < end {
                let (present, stop) = self.pages.run_at(at, end);
                if !present {
                    gap(at, stop);
                    self.pages.insert(at, stop);
                }
                at = stop;
            }
        } else {
            self.spans.insert_with_gaps(start, end, gap);
            self.promote_if_fragmented();
        }
    }

    /// Adds `[start, end)`, none of which is present.
    #[inline]
    pub(crate) fn insert(&mut self, start: u64, end: u64) {
        if self.paged {
            self.pages.insert(start, end);
        } else {
            self.spans.insert(start, end);
            self.promote_if_fragmented();
        }
    }

    /// Removes `[start, end)`, all of which is present.
    #[inline]
    pub(crate) fn remove(&mut self, start: u64, end: u64) {
        if self.paged {
            self.pages.remove(start, end);
        } else {
            self.spans.remove_covered(start, end);
        }
    }

    /// Makes the set exactly the union of `spans`, non-empty, pairwise
    /// disjoint `(start, end)` pairs in any order, in the form it has.
    pub(crate) fn assign_disjoint(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) {
        if self.paged {
            self.pages.clear();
            for (start, end) in spans {
                self.pages.insert(start, end);
            }
        } else {
            self.spans.assign_disjoint(spans);
            self.promote_if_fragmented();
        }
    }

    /// Empties the set, back in the form of spans, keeping allocations.
    pub(crate) fn clear(&mut self) {
        if self.paged {
            self.pages.clear();
            self.paged = false;
        }
        self.spans.clear();
    }

    /// The maximal spans present, ascending.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn iter_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (spans, pages) = if self.paged {
            (None, Some(self.pages.iter_spans()))
        } else {
            (Some(self.spans.iter_spans()), None)
        };
        spans
            .into_iter()
            .flatten()
            .chain(pages.into_iter().flatten())
    }

    /// Moves a set of more than [`PROMOTE_SPANS`] spans into the bitmap.
    #[inline]
    fn promote_if_fragmented(&mut self) {
        if self.spans.span_count() > PROMOTE_SPANS {
            self.promote();
        }
    }

    #[cold]
    #[inline(never)]
    fn promote(&mut self) {
        for (start, end) in self.spans.iter_spans() {
            self.pages.insert(start, end);
        }
        self.spans.clear();
        self.paged = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every observable of a bitmap against the spans of an `IntervalSet`
    /// holding the same addresses.
    fn assert_same(pages: &PagedBitmap, spans: &IntervalSet, probes: &[u64]) {
        assert_eq!(pages.len, spans.len());
        assert!(pages.iter_spans().eq(spans.iter_spans()));
        for &pos in probes {
            assert_eq!(pages.contains(pos), spans.contains(pos), "contains {pos}");
            for limit in [1, 63, 4097, u64::MAX].map(|d| pos.saturating_add(d)) {
                if limit > pos {
                    let expect = spans.run_at(pos, limit);
                    assert_eq!(pages.run_at(pos, limit), expect, "run_at {pos}, {limit}");
                }
            }
        }
    }

    #[test]
    fn word_masks_cover_exactly_their_bits() {
        assert_eq!(word_mask(0, 64), u64::MAX);
        assert_eq!(word_mask(63, 64), 1 << 63);
        assert_eq!(word_mask(0, 1), 1);
        assert_eq!(word_mask(1, 63), u64::MAX >> 2 << 1);
    }

    #[test]
    fn pages_match_spans_across_word_and_page_boundaries() {
        let mut pages = PagedBitmap::default();
        let mut spans = IntervalSet::new();
        let ranges = [
            (0, 1),
            (63, 65),
            (127, 128),
            (4095, 4097),
            (8192, 8192 + 4096),
            (20_000, 20_064),
            (u64::MAX - 4097, u64::MAX - 4000),
            (u64::MAX - 70, u64::MAX),
        ];
        for &(start, end) in &ranges {
            pages.insert(start, end);
            spans.insert(start, end);
        }
        let probes: Vec<u64> = ranges
            .iter()
            .flat_map(|&(s, e)| [s.saturating_sub(1), s, s + 1, e - 1, e])
            .filter(|&a| a < u64::MAX)
            .collect();
        assert_same(&pages, &spans, &probes);
        // A full page answers from its count; take one address out of it.
        pages.remove(8192 + 100, 8192 + 101);
        spans.remove_covered(8192 + 100, 8192 + 101);
        assert_same(&pages, &spans, &probes);
        assert!(!pages.contains(8192 + 100));
        for &(start, end) in &ranges {
            if !(start..end).contains(&(8192 + 100)) {
                pages.remove(start, end);
                spans.remove_covered(start, end);
            }
        }
        pages.remove(8192, 8192 + 100);
        pages.remove(8192 + 101, 8192 + 4096);
        assert_eq!(pages.len, 0);
        assert!(pages.index.is_empty());
        assert_eq!(pages.free.len(), pages.words.len());
        assert!(pages.words.iter().all(|w| w.iter().all(|&x| x == 0)));
    }

    #[test]
    fn overlaps_finds_any_present_address_in_both_forms() {
        for paged in [false, true] {
            let mut set = ResidentSet::default();
            assert!(!set.overlaps(0, 100));
            if paged {
                set.promote();
            }
            set.insert(10, 20);
            set.insert(30, 40);
            assert_eq!(set.is_paged(), paged);
            for (start, end, hit) in [
                (0, 10, false),
                (0, 11, true),
                (19, 30, true),
                (20, 30, false),
                (25, 31, true),
                (39, 40, true),
                (40, 50, false),
                (5, 45, true),
                (40, 9000, false),
            ] {
                assert_eq!(set.overlaps(start, end), hit, "[{start}, {end}), {paged}");
            }
        }
    }

    #[test]
    fn a_set_promotes_past_the_span_limit_and_stays_until_cleared() {
        let mut set = ResidentSet::default();
        for i in 0..PROMOTE_SPANS as u64 {
            set.insert(10 * i, 10 * i + 3);
        }
        assert!(!set.is_paged());
        set.insert(5000, 5001);
        assert!(set.is_paged());
        assert_eq!(set.len(), 3 * PROMOTE_SPANS as u64 + 1);
        assert!(set.contains(10 * (PROMOTE_SPANS as u64 - 1) + 2));
        // Down to one span, still a bitmap.
        for i in 0..PROMOTE_SPANS as u64 {
            set.remove(10 * i, 10 * i + 3);
        }
        assert!(set.is_paged() && set.len() == 1);
        set.clear();
        assert!(!set.is_paged() && set.len() == 0);
    }
}
