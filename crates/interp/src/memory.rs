//! Flat, paged, word-granular memory.
//!
//! The address space is split into three regions so the run-time component
//! can distinguish access classes:
//!
//! - **globals** at [`GLOBAL_BASE`] — statically laid out at machine
//!   construction;
//! - **heap** at [`HEAP_BASE`] — bump-allocated by `malloc` (free is a
//!   no-op, as in many real allocators' fast paths; addresses are never
//!   reused, which keeps heap conflict tracking exact);
//! - **stack** at [`STACK_BASE`] — LIFO frames that *do* reuse addresses
//!   across calls, which is precisely the structural call-stack hazard of
//!   paper §II-E.
//!
//! Each allocator is bounded by the next region: the heap ends at
//! [`STACK_BASE`] and the stack at `STACK_LIMIT`, so an allocation can
//! never alias another region's live words. One that does not fit traps
//! with [`InterpError::OutOfMemory`].
//!
//! All accesses are 8-byte words; unaligned or null-page accesses trap.
//!
//! # Hot-path layout
//!
//! Every dynamic load and store resolves an address here, so the page
//! lookup must not hash (see DESIGN.md §10). Pages live in an arena
//! (`Vec<Box<[u64; 512]>>`) and are located through a **two-level page
//! directory**: the bounded dense directory covers every page below
//! `DIRECT_LIMIT` — which contains all three allocator regions — with
//! two array indexes, and a small Fx-hashed fallback map catches
//! anything above it (e.g. synthetic function-pointer addresses). In
//! front of both sits a small **direct-mapped page cache**, so loops
//! that cycle through a few live pages (sequential walks, strided
//! multi-array kernels) touch no directory at all.

use crate::{InterpError, Result};
use lp_ir::fx::FxHashMap;

/// Base address of the globals region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base address of the heap region.
pub const HEAP_BASE: u64 = 0x4000_0000;
/// Base address of the stack region (and the end of the heap).
pub const STACK_BASE: u64 = 0x8000_0000;
/// End of the stack region: 2 GiB of stack, ending where the dense page
/// directory does.
const STACK_LIMIT: u64 = 0x1_0000_0000;

const PAGE_WORDS: usize = 512;
const PAGE_BYTES: u64 = (PAGE_WORDS as u64) * 8;

/// Pages per second-level directory node (and the number of first-level
/// slots), giving `1024 × 1024` directly mapped pages.
const L2_LEN: usize = 1024;
const L2_BITS: u64 = 10;
const L2_MASK: u64 = (L2_LEN as u64) - 1;

/// First page number outside the dense directory (addresses ≥ 4 GiB).
/// Globals, heap, and stack all start well below this; only synthetic
/// far pointers (function addresses) fall through to the fallback map.
const DIRECT_LIMIT: u64 = (L2_LEN as u64) * (L2_LEN as u64);

/// Sentinel directory entry: page not allocated.
const NO_PAGE: u32 = u32::MAX;

/// Ways in the direct-mapped page cache (indexed by `page % ways`).
const CACHE_WAYS: usize = 8;

/// Counters of the memory fast path, reported through
/// [`crate::EventSink::mem_stats`] at the end of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Accesses served by the direct-mapped page cache.
    pub page_cache_hits: u64,
    /// Accesses that walked the page directory.
    pub page_cache_misses: u64,
    /// Pages allocated over the run.
    pub pages_allocated: u64,
}

/// Paged word memory with region allocators.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page arena; directory entries hold indexes into it, so growing
    /// the arena never invalidates a directory entry.
    pages: Vec<Box<[u64; PAGE_WORDS]>>,
    /// First directory level, densely covering pages `0..DIRECT_LIMIT`.
    l1: Vec<Option<Box<[u32; L2_LEN]>>>,
    /// Fallback for pages at or above [`DIRECT_LIMIT`].
    far: FxHashMap<u64, u32>,
    /// Direct-mapped page cache: page numbers and arena indexes of
    /// recently resolved *allocated* pages, indexed by `page % ways`.
    cache_page: [u64; CACHE_WAYS],
    cache_idx: [u32; CACHE_WAYS],
    heap_top: u64,
    stack_top: u64,
    hits: u64,
    misses: u64,
    /// When armed, every successful [`Memory::write`] appends
    /// `(addr, word)` here in program order. Replay workers run on a
    /// clone of the parent memory with the log enabled, so the log *is*
    /// the chunk's memory delta and can be re-applied deterministically.
    write_log: Option<Vec<(u64, u64)>>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// An empty memory with both allocators at their region bases.
    #[must_use]
    pub fn new() -> Memory {
        let mut l1 = Vec::new();
        l1.resize_with(L2_LEN, || None);
        Memory {
            pages: Vec::new(),
            l1,
            far: FxHashMap::default(),
            cache_page: [u64::MAX; CACHE_WAYS],
            cache_idx: [NO_PAGE; CACHE_WAYS],
            heap_top: HEAP_BASE,
            stack_top: STACK_BASE,
            hits: 0,
            misses: 0,
            write_log: None,
        }
    }

    /// Starts recording every subsequent write into the delta log,
    /// discarding any previously recorded entries.
    pub fn enable_write_log(&mut self) {
        self.write_log = Some(Vec::new());
    }

    /// Stops logging and returns the recorded `(addr, word)` writes in
    /// program order. Returns an empty log if logging was never enabled.
    pub fn take_write_log(&mut self) -> Vec<(u64, u64)> {
        self.write_log.take().unwrap_or_default()
    }

    fn check(addr: u64) -> Result<()> {
        if addr < 0x1000 {
            return Err(InterpError::NullDeref(addr));
        }
        if !addr.is_multiple_of(8) {
            return Err(InterpError::Unaligned(addr));
        }
        Ok(())
    }

    /// Resolves `page` to its arena index, or `None` if unallocated.
    /// Updates the page cache on success.
    #[inline]
    fn lookup(&mut self, page: u64) -> Option<u32> {
        let way = (page as usize) & (CACHE_WAYS - 1);
        if page == self.cache_page[way] {
            self.hits += 1;
            return Some(self.cache_idx[way]);
        }
        self.misses += 1;
        let idx = if page < DIRECT_LIMIT {
            match &self.l1[(page >> L2_BITS) as usize] {
                Some(l2) => l2[(page & L2_MASK) as usize],
                None => NO_PAGE,
            }
        } else {
            self.far.get(&page).copied().unwrap_or(NO_PAGE)
        };
        if idx == NO_PAGE {
            return None;
        }
        self.cache_page[way] = page;
        self.cache_idx[way] = idx;
        Some(idx)
    }

    /// As [`Memory::lookup`], allocating the page if absent.
    #[inline]
    fn lookup_or_alloc(&mut self, page: u64) -> u32 {
        if let Some(idx) = self.lookup(page) {
            return idx;
        }
        let idx = self.pages.len() as u32;
        assert!(idx != NO_PAGE, "page arena exhausted");
        self.pages.push(Box::new([0u64; PAGE_WORDS]));
        if page < DIRECT_LIMIT {
            let l2 = self.l1[(page >> L2_BITS) as usize]
                .get_or_insert_with(|| Box::new([NO_PAGE; L2_LEN]));
            l2[(page & L2_MASK) as usize] = idx;
        } else {
            self.far.insert(page, idx);
        }
        let way = (page as usize) & (CACHE_WAYS - 1);
        self.cache_page[way] = page;
        self.cache_idx[way] = idx;
        idx
    }

    /// Reads the word at `addr`.
    ///
    /// Takes `&mut self` to maintain the last-page cache — the logical
    /// memory state is unchanged.
    ///
    /// # Errors
    /// Traps on unaligned or null-page addresses. Unwritten words read as
    /// zero.
    pub fn read(&mut self, addr: u64) -> Result<u64> {
        Self::check(addr)?;
        let page = addr / PAGE_BYTES;
        let slot = ((addr % PAGE_BYTES) / 8) as usize;
        Ok(match self.lookup(page) {
            Some(idx) => self.pages[idx as usize][slot],
            None => 0,
        })
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    /// Traps on unaligned or null-page addresses.
    pub fn write(&mut self, addr: u64, word: u64) -> Result<()> {
        Self::check(addr)?;
        let page = addr / PAGE_BYTES;
        let slot = ((addr % PAGE_BYTES) / 8) as usize;
        let idx = self.lookup_or_alloc(page);
        self.pages[idx as usize][slot] = word;
        if let Some(log) = &mut self.write_log {
            log.push((addr, word));
        }
        Ok(())
    }

    /// Compares the global and heap regions of two memories word by
    /// word, returning the first differing `(addr, self_word, other_word)`
    /// in address order, or `None` when byte-identical. Unallocated
    /// pages read as zero on either side; the stack region is excluded
    /// (frames are dead after the run and reuse addresses freely).
    ///
    /// This is the replay engine's divergence oracle: a parallel replay
    /// is correct iff its final image is identical to the serial run's.
    #[must_use]
    pub fn first_difference(&mut self, other: &mut Memory) -> Option<(u64, u64, u64)> {
        let mut pages: Vec<u64> = self
            .allocated_pages()
            .chain(other.allocated_pages())
            .filter(|&p| p * PAGE_BYTES < STACK_BASE)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            let a = self.lookup(page);
            let b = other.lookup(page);
            for slot in 0..PAGE_WORDS {
                let wa = a.map_or(0, |idx| self.pages[idx as usize][slot]);
                let wb = b.map_or(0, |idx| other.pages[idx as usize][slot]);
                if wa != wb {
                    return Some((page * PAGE_BYTES + (slot as u64) * 8, wa, wb));
                }
            }
        }
        None
    }

    /// Page numbers of every allocated page, in no particular order.
    fn allocated_pages(&self) -> impl Iterator<Item = u64> + '_ {
        let dense = self.l1.iter().enumerate().flat_map(|(hi, l2)| {
            l2.iter().flat_map(move |l2| {
                l2.iter().enumerate().filter_map(move |(lo, &idx)| {
                    (idx != NO_PAGE).then_some(((hi as u64) << L2_BITS) | lo as u64)
                })
            })
        });
        dense.chain(self.far.keys().copied())
    }

    /// Fast-path counters for observability exports.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        MemStats {
            page_cache_hits: self.hits,
            page_cache_misses: self.misses,
            pages_allocated: self.pages.len() as u64,
        }
    }

    /// Bump-allocates `bytes` on the heap (rounded up to whole words),
    /// returning the base address. Zero-byte allocations return a unique,
    /// valid address.
    ///
    /// # Errors
    /// [`InterpError::OutOfMemory`] when the allocation would reach the
    /// stack region.
    pub fn heap_alloc(&mut self, bytes: u64) -> Result<u64> {
        let base = self.heap_top;
        self.heap_top = bump(base, bytes.div_ceil(8).max(1), STACK_BASE)?;
        Ok(base)
    }

    /// Current top of the stack region.
    #[must_use]
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Pushes `words` stack slots, returning the base address of the new
    /// allocation. Used for `alloca`.
    ///
    /// # Errors
    /// [`InterpError::OutOfMemory`] when the stack would pass
    /// `STACK_LIMIT`.
    pub fn stack_alloc(&mut self, words: u64) -> Result<u64> {
        let base = self.stack_top;
        self.stack_top = bump(base, words, STACK_LIMIT)?;
        Ok(base)
    }

    /// Pops the stack back to `mark` (a value previously returned by
    /// [`Memory::stack_top`]). Addresses above the mark become reusable —
    /// deliberately *without* clearing their contents, mirroring a real
    /// call stack.
    pub fn stack_release(&mut self, mark: u64) {
        debug_assert!(mark <= self.stack_top);
        self.stack_top = mark;
    }

    /// Returns which region an address belongs to.
    #[must_use]
    pub fn region_of(addr: u64) -> Region {
        if addr >= STACK_BASE {
            Region::Stack
        } else if addr >= HEAP_BASE {
            Region::Heap
        } else {
            Region::Global
        }
    }
}

/// The allocator top after bumping `top` by `words` words, if it stays
/// within `limit`.
fn bump(top: u64, words: u64, limit: u64) -> Result<u64> {
    words
        .checked_mul(8)
        .and_then(|bytes| top.checked_add(bytes))
        .filter(|&end| end <= limit)
        .ok_or(InterpError::OutOfMemory)
}

/// Memory region classification (drives structural-hazard handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Statically allocated module globals.
    Global,
    /// Bump-allocated heap.
    Heap,
    /// LIFO call-stack frames.
    Stack,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write(GLOBAL_BASE, 0xDEAD).unwrap();
        assert_eq!(m.read(GLOBAL_BASE).unwrap(), 0xDEAD);
        assert_eq!(m.read(GLOBAL_BASE + 8).unwrap(), 0, "unwritten reads zero");
    }

    #[test]
    fn traps() {
        let mut m = Memory::new();
        assert_eq!(m.read(0), Err(InterpError::NullDeref(0)));
        assert_eq!(
            m.read(GLOBAL_BASE + 4),
            Err(InterpError::Unaligned(GLOBAL_BASE + 4))
        );
        assert_eq!(m.write(12, 1), Err(InterpError::NullDeref(12)));
    }

    #[test]
    fn heap_never_reuses() {
        let mut m = Memory::new();
        let a = m.heap_alloc(16).unwrap();
        let b = m.heap_alloc(0).unwrap();
        let c = m.heap_alloc(1).unwrap();
        assert!(a < b && b < c);
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn allocators_stop_at_their_region_ends() {
        let mut m = Memory::new();
        // The heap may fill exactly up to the stack, never into it.
        let base = m.heap_alloc(STACK_BASE - HEAP_BASE - 8).unwrap();
        assert_eq!(base, HEAP_BASE);
        assert_eq!(m.heap_alloc(8), Ok(STACK_BASE - 8));
        assert_eq!(m.heap_alloc(1), Err(InterpError::OutOfMemory));
        assert_eq!(m.heap_alloc(u64::MAX), Err(InterpError::OutOfMemory));
        // A failed allocation leaves the allocator where it was.
        let mut m = Memory::new();
        assert_eq!(m.heap_alloc(i64::MAX as u64), Err(InterpError::OutOfMemory));
        assert_eq!(m.heap_alloc(8), Ok(HEAP_BASE));
        let top = m.stack_top();
        assert_eq!(m.stack_alloc(u64::MAX), Err(InterpError::OutOfMemory));
        assert_eq!(
            m.stack_alloc((STACK_LIMIT - STACK_BASE) / 8 + 1),
            Err(InterpError::OutOfMemory)
        );
        assert_eq!(m.stack_top(), top);
        assert_eq!(
            m.stack_alloc((STACK_LIMIT - STACK_BASE) / 8),
            Ok(STACK_BASE)
        );
        assert_eq!(m.stack_alloc(1), Err(InterpError::OutOfMemory));
    }

    #[test]
    fn stack_is_lifo_and_reuses_addresses() {
        let mut m = Memory::new();
        let mark = m.stack_top();
        let a = m.stack_alloc(4).unwrap();
        m.write(a, 7).unwrap();
        m.stack_release(mark);
        let b = m.stack_alloc(4).unwrap();
        assert_eq!(a, b, "released stack slots are reused");
        assert_eq!(m.read(b).unwrap(), 7, "contents are not cleared");
    }

    #[test]
    fn regions() {
        assert_eq!(Memory::region_of(GLOBAL_BASE), Region::Global);
        assert_eq!(Memory::region_of(HEAP_BASE + 64), Region::Heap);
        assert_eq!(Memory::region_of(STACK_BASE + 8), Region::Stack);
    }

    #[test]
    fn cross_page_writes() {
        let mut m = Memory::new();
        let base = HEAP_BASE + PAGE_BYTES - 8;
        m.write(base, 1).unwrap();
        m.write(base + 8, 2).unwrap();
        assert_eq!(m.read(base).unwrap(), 1);
        assert_eq!(m.read(base + 8).unwrap(), 2);
    }

    #[test]
    fn far_pages_round_trip_through_the_fallback_map() {
        // A synthetic function-pointer-like address, far above the
        // dense directory's 4 GiB coverage.
        let mut m = Memory::new();
        let far = 0xF000_0000_0000u64 | 0x18;
        m.write(far, 42).unwrap();
        assert_eq!(m.read(far).unwrap(), 42);
        assert_eq!(m.read(far + 8).unwrap(), 0);
        // Near pages still work after a far allocation.
        m.write(HEAP_BASE, 7).unwrap();
        assert_eq!(m.read(HEAP_BASE).unwrap(), 7);
        assert_eq!(m.read(far).unwrap(), 42);
    }

    #[test]
    fn write_log_records_in_program_order() {
        let mut m = Memory::new();
        m.write(GLOBAL_BASE, 1).unwrap(); // not logged
        m.enable_write_log();
        m.write(GLOBAL_BASE + 8, 2).unwrap();
        m.write(GLOBAL_BASE, 3).unwrap();
        let log = m.take_write_log();
        assert_eq!(log, vec![(GLOBAL_BASE + 8, 2), (GLOBAL_BASE, 3)]);
        // Taking the log disarms it.
        m.write(GLOBAL_BASE + 16, 4).unwrap();
        assert!(m.take_write_log().is_empty());
    }

    #[test]
    fn first_difference_finds_lowest_divergent_address() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(GLOBAL_BASE, 1).unwrap();
        b.write(GLOBAL_BASE, 1).unwrap();
        assert_eq!(a.first_difference(&mut b), None);
        b.write(HEAP_BASE + 24, 9).unwrap();
        b.write(GLOBAL_BASE + 8, 5).unwrap();
        assert_eq!(
            a.first_difference(&mut b),
            Some((GLOBAL_BASE + 8, 0, 5)),
            "lowest differing address wins even against unallocated pages"
        );
        // Stack divergence is ignored: frames are dead after the run.
        let mut c = a.clone();
        c.write(STACK_BASE + 64, 77).unwrap();
        b.write(GLOBAL_BASE + 8, 0).unwrap();
        b.write(HEAP_BASE + 24, 0).unwrap();
        assert_eq!(a.first_difference(&mut c), None);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.write(HEAP_BASE, 11).unwrap();
        let mut b = a.clone();
        b.write(HEAP_BASE, 22).unwrap();
        assert_eq!(a.read(HEAP_BASE).unwrap(), 11);
        assert_eq!(b.read(HEAP_BASE).unwrap(), 22);
    }

    #[test]
    fn last_page_cache_counts_hits_and_misses() {
        let mut m = Memory::new();
        m.write(HEAP_BASE, 1).unwrap(); // miss (allocates)
        m.write(HEAP_BASE + 8, 2).unwrap(); // hit
        m.read(HEAP_BASE + 16).unwrap(); // hit
        m.read(HEAP_BASE + PAGE_BYTES).unwrap(); // miss (absent page)
        let s = m.stats();
        assert_eq!(s.page_cache_hits, 2);
        assert_eq!(s.page_cache_misses, 2);
        assert_eq!(s.pages_allocated, 1);
    }
}
