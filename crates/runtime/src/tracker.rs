//! The profiler: Loopapalooza's run-time component.
//!
//! [`Profiler`] implements [`lp_interp::EventSink`] and reconstructs, from
//! the instrumentation call-back stream, everything §III-B needs:
//!
//! - the dynamic region tree (function activations and loop instances)
//!   with iteration start stamps derived from header-block entries;
//! - cross-iteration memory RAW conflicts via per-instance last-writer
//!   conflict tracking, with the cactus-stack filter of §II-E (accesses
//!   to frames created during the current iteration are iteration-local
//!   and cannot conflict);
//! - register-LCD value streams fed through the hybrid value predictor,
//!   recording mispredicted iterations (`dep2`) and maximum producer
//!   offsets (`dep1` HELIX sync deltas);
//! - the worst dynamic call class per loop instance (`fn0..fn3` gate).
//!
//! # Hot-path layout
//!
//! Every load/store event consults last-writer state, and every block
//! entry consults the loop tables — so neither may hash (DESIGN.md §10).
//! Last-writer state lives in **one run-global shadow memory**
//! (`ShadowTable`) stamping each word with its last store's *absolute*
//! time: a store writes one stamp no matter how deep the loop nest, a
//! load compares that stamp against each level's instance/iteration start
//! (two compares; iteration numbers are re-derived by binary search only
//! on the rare conflict path), and stale stamps die by time comparison,
//! so loop entry invalidates nothing. The per-`(func, value)` /
//! per-`(func, block)` side tables are interned into dense vectors indexed
//! directly by ids, with `u32::MAX` as the "not tracked" sentinel.

use crate::profile::{
    CallClass, LcdInstance, LoopInstance, LoopMeta, MetaIndex, Profile, Region, RegionId,
    RegionKind,
};
use crate::witness::{WitnessReport, WitnessState};
use lp_analysis::{LcdClass, LoopId, ModuleAnalysis, Purity};
use lp_interp::{
    EventSink, Exec, ExecUnit, MachineConfig, MemStats, MeteredSink, RunResult, Value, STACK_BASE,
};
use lp_ir::fx::FxHashMap;
use lp_ir::{BlockId, Builtin, FuncId, Inst, Module, ValueId, ValueKind};
use lp_obs::{span, Counter, Hist, Histogram, PredictorKind};
use lp_predict::HybridPredictor;

/// Sentinel for "no entry" in the dense interning tables.
const NONE: u32 = u32::MAX;

// Shadow-memory geometry: one stamp per 8-byte word, 512 words (4 KiB of
// address space) per page, same two-level directory shape as the
// interpreter's memory.
const SHADOW_PAGE_WORDS: usize = 512;
const SHADOW_WORD_BITS: u64 = 3;
const SHADOW_PAGE_BITS: u64 = 9;
const SHADOW_PAGE_MASK: u64 = (SHADOW_PAGE_WORDS as u64) - 1;
const SHADOW_L2_LEN: usize = 1024;
const SHADOW_L2_BITS: u64 = 10;
const SHADOW_L2_MASK: u64 = (SHADOW_L2_LEN as u64) - 1;
const SHADOW_DIRECT_LIMIT: u64 = (SHADOW_L2_LEN as u64) * (SHADOW_L2_LEN as u64);
const SHADOW_CACHE_WAYS: usize = 8;

/// Last-writer stamp for one 8-byte word: the absolute time of the most
/// recent store and the push time of the stack frame it wrote through
/// (0 for non-stack stores). `t == u64::MAX` means "never written" —
/// always time-excluded, since real stamps satisfy `t <= now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    t: u64,
    push: u64,
}

const EMPTY_STAMP: Stamp = Stamp {
    t: u64::MAX,
    push: 0,
};

/// Run-global last-writer shadow memory.
///
/// Replaces the per-instance `HashMap<addr, (iter, rel)>`: one table
/// serves every active loop level, because a stamp records the *absolute*
/// store time — each level decides by comparing against its own instance
/// and iteration start stamps whether the store is a cross-iteration
/// producer, so no per-level state and no invalidation are needed at all.
/// Address resolution reuses the interpreter memory's two-level page
/// directory plus a small direct-mapped page cache, so the common case (a
/// handful of live pages, as in strided array walks) touches no directory
/// at all.
#[derive(Debug)]
struct ShadowTable {
    /// Stamp-page arena; directory entries hold indexes into it.
    pages: Vec<Box<[Stamp; SHADOW_PAGE_WORDS]>>,
    /// First directory level, densely covering pages `0..SHADOW_DIRECT_LIMIT`.
    l1: Vec<Option<Box<[u32; SHADOW_L2_LEN]>>>,
    /// Fallback for far pages (synthetic function-pointer addresses).
    far: FxHashMap<u64, u32>,
    /// Direct-mapped page cache, indexed by `page % ways`. A single entry
    /// thrashes on strided multi-array access (e.g. matmul rows); a few
    /// ways keep every live page of a typical inner loop resident.
    cache_page: [u64; SHADOW_CACHE_WAYS],
    cache_idx: [u32; SHADOW_CACHE_WAYS],
    hits: u64,
    misses: u64,
}

impl ShadowTable {
    fn new() -> ShadowTable {
        let mut l1 = Vec::new();
        l1.resize_with(SHADOW_L2_LEN, || None);
        ShadowTable {
            pages: Vec::new(),
            l1,
            far: FxHashMap::default(),
            cache_page: [u64::MAX; SHADOW_CACHE_WAYS],
            cache_idx: [NONE; SHADOW_CACHE_WAYS],
            hits: 0,
            misses: 0,
        }
    }

    /// Resolves a stamp page to its arena index, if allocated.
    #[inline]
    fn lookup(&mut self, page: u64) -> Option<u32> {
        let way = (page as usize) & (SHADOW_CACHE_WAYS - 1);
        if page == self.cache_page[way] {
            self.hits += 1;
            return Some(self.cache_idx[way]);
        }
        self.misses += 1;
        let idx = if page < SHADOW_DIRECT_LIMIT {
            match &self.l1[(page >> SHADOW_L2_BITS) as usize] {
                Some(l2) => l2[(page & SHADOW_L2_MASK) as usize],
                None => NONE,
            }
        } else {
            self.far.get(&page).copied().unwrap_or(NONE)
        };
        if idx == NONE {
            return None;
        }
        self.cache_page[way] = page;
        self.cache_idx[way] = idx;
        Some(idx)
    }

    /// As [`ShadowTable::lookup`], allocating the page if absent.
    #[inline]
    fn lookup_or_alloc(&mut self, page: u64) -> u32 {
        if let Some(idx) = self.lookup(page) {
            return idx;
        }
        let idx = self.pages.len() as u32;
        self.pages.push(Box::new([EMPTY_STAMP; SHADOW_PAGE_WORDS]));
        if page < SHADOW_DIRECT_LIMIT {
            let l2 = self.l1[(page >> SHADOW_L2_BITS) as usize]
                .get_or_insert_with(|| Box::new([NONE; SHADOW_L2_LEN]));
            l2[(page & SHADOW_L2_MASK) as usize] = idx;
        } else {
            self.far.insert(page, idx);
        }
        let way = (page as usize) & (SHADOW_CACHE_WAYS - 1);
        self.cache_page[way] = page;
        self.cache_idx[way] = idx;
        idx
    }

    /// Records `addr`'s last writer: store time `t`, owning-frame push
    /// time `push`.
    #[inline]
    fn record_store(&mut self, addr: u64, t: u64, push: u64) {
        let word = addr >> SHADOW_WORD_BITS;
        let idx = self.lookup_or_alloc(word >> SHADOW_PAGE_BITS);
        self.pages[idx as usize][(word & SHADOW_PAGE_MASK) as usize] = Stamp { t, push };
    }

    /// The last-writer stamp of `addr` ([`EMPTY_STAMP`] if never written).
    #[inline]
    fn last_writer(&mut self, addr: u64) -> Stamp {
        let word = addr >> SHADOW_WORD_BITS;
        match self.lookup(word >> SHADOW_PAGE_BITS) {
            Some(idx) => self.pages[idx as usize][(word & SHADOW_PAGE_MASK) as usize],
            None => EMPTY_STAMP,
        }
    }
}

/// An actively executing loop instance (moved into the region tree when
/// the loop exits). Last-writer state lives in the run-global
/// [`ShadowTable`]; this records only per-level iteration stamps and
/// conflict tallies.
#[derive(Debug)]
struct ActiveLoop {
    region: RegionId,
    func: u32,
    loop_id: u32,
    /// Index into [`Profiler::loop_meta`] (and `loop_blocks`).
    meta: usize,
    frame_depth: u32,
    cur_iter: u32,
    iter_start: u64,
    iter_starts: Vec<u64>,
    /// Conflicting iterations in ascending order (pushes arrive with
    /// nondecreasing `cur_iter`, deduplicated against the last element).
    conflicts: Vec<u32>,
    max_skew: u64,
    max_producer_rel: u64,
    min_consumer_rel: u64,
    edges: u64,
    lcds: Vec<LcdInstance>,
    call_class: CallClass,
}

#[derive(Debug, Clone, Copy)]
struct FrameRec {
    base: u64,
    push_cost: u64,
}

/// Synthetic address standing in for the architectural stack pointer when
/// the cactus-stack assumption is disabled (kept out of the stack region
/// so the frame filter never hides it).
const SP_HAZARD_ADDR: u64 = crate::profile_sp_hazard_addr();

/// Profiler behaviour knobs (ablations).
#[derive(Debug, Clone, Copy)]
pub struct ProfilerOptions {
    /// Apply the cactus-stack filter of §II-E: accesses to frames created
    /// during the current iteration are iteration-local and generate no
    /// conflicts. Disabling it models a conventional sequential call
    /// stack, where reused frame addresses serialize loops with calls.
    pub cactus_stack: bool,
}

impl Default for ProfilerOptions {
    fn default() -> ProfilerOptions {
        ProfilerOptions { cactus_stack: true }
    }
}

/// The run-time component: consumes interpreter events, produces a
/// [`Profile`].
#[derive(Debug)]
pub struct Profiler<'a> {
    analysis: &'a ModuleAnalysis,
    program: String,
    /// Per function, per block: the loop id this block heads, or [`NONE`].
    header_loop: Vec<Vec<u32>>,
    /// Per function, per value: index into `traced_slots`, or [`NONE`].
    traced: Vec<Vec<u32>>,
    /// `(loop id, traced-lcd index)` per traced phi; parallel to
    /// `predictors`.
    traced_slots: Vec<(u32, u32)>,
    /// Per function, per value: index into `watch_lists`, or [`NONE`].
    watched: Vec<Vec<u32>>,
    /// The traced LCDs each watched latch value feeds.
    watch_lists: Vec<Vec<(u32, u32)>>,
    /// Per function, per loop id: index into `loop_meta`, or [`NONE`].
    meta_of: Vec<Vec<u32>>,
    /// Per meta index, per block: loop membership bitmap.
    loop_blocks: Vec<Vec<bool>>,
    loop_meta: Vec<LoopMeta>,
    // Dynamic state.
    now: u64,
    regions: Vec<Region>,
    region_stack: Vec<RegionId>,
    loop_stack: Vec<ActiveLoop>,
    /// Run-global last-writer shadow memory, shared by all loop levels.
    shadow: ShadowTable,
    /// Optional independence-witness engine (replay certification);
    /// boxed to keep the common no-witness profiler lean.
    witness: Option<Box<WitnessState>>,
    frames: Vec<FrameRec>,
    call_depth: u32,
    /// One predictor per traced phi, parallel to `traced_slots`.
    predictors: Vec<HybridPredictor>,
    options: ProfilerOptions,
    cactus_filter_hits: u64,
    /// Interpreter memory fast-path stats, delivered at end of run.
    mem_stats: MemStats,
    /// Function names by [`FuncId`] (for the collapsed-stack export).
    func_names: Vec<String>,
    /// Iteration distance of each cross-iteration RAW edge, accumulated
    /// lock-free here and merged into the global registry at flush.
    conflict_dists: Histogram,
}

impl<'a> Profiler<'a> {
    /// Prepares the profiler for `module` using its compile-time analysis.
    #[must_use]
    pub fn new(module: &Module, analysis: &'a ModuleAnalysis) -> Profiler<'a> {
        Profiler::with_options(module, analysis, ProfilerOptions::default())
    }

    /// As [`Profiler::new`] with explicit behaviour knobs.
    #[must_use]
    pub fn with_options(
        module: &Module,
        analysis: &'a ModuleAnalysis,
        options: ProfilerOptions,
    ) -> Profiler<'a> {
        let n_funcs = module.iter_functions().count();
        let mut header_loop: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut traced: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut watched: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut meta_of: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut traced_slots: Vec<(u32, u32)> = Vec::new();
        let mut watch_lists: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut loop_blocks: Vec<Vec<bool>> = Vec::new();
        let mut loop_meta = Vec::new();

        for (fid, func) in module.iter_functions() {
            let fa = analysis.function(fid);
            let fi = fid.index();
            if fa.lcds.is_empty() {
                continue;
            }
            header_loop[fi] = vec![NONE; func.blocks.len()];
            meta_of[fi] = vec![NONE; fa.lcds.len()];
            for (lid, lp) in fa.loops.iter() {
                header_loop[fi][lp.header.index()] = lid.0;
                let lcds = &fa.lcds[lid.index()];
                let traced_phis: Vec<(ValueId, LcdClass)> = lcds
                    .phis
                    .iter()
                    .filter(|(_, c)| !c.is_computable())
                    .map(|&(v, c)| (v, c))
                    .collect();
                let computable = lcds.phis.len() - traced_phis.len();
                let meta_idx = loop_meta.len();
                meta_of[fi][lid.index()] = meta_idx as u32;
                let mut membership = vec![false; func.blocks.len()];
                for &b in &lp.blocks {
                    membership[b.index()] = true;
                }
                loop_blocks.push(membership);
                // Register traced phis and their latch producers.
                if lp.latches.len() == 1 {
                    let latch = lp.latches[0];
                    for (idx, (phi, _)) in traced_phis.iter().enumerate() {
                        if traced[fi].is_empty() {
                            traced[fi] = vec![NONE; func.values.len()];
                        }
                        traced[fi][phi.index()] = traced_slots.len() as u32;
                        traced_slots.push((lid.0, idx as u32));
                        if let ValueKind::Inst(iid) = func.value(*phi) {
                            if let Inst::Phi { incomings, .. } = &func.inst(*iid).inst {
                                if let Some((_, update)) =
                                    incomings.iter().find(|(b, _)| *b == latch)
                                {
                                    // Only instruction results have def
                                    // events; invariant updates produce at
                                    // offset 0 anyway.
                                    if matches!(func.value(*update), ValueKind::Inst(_)) {
                                        if watched[fi].is_empty() {
                                            watched[fi] = vec![NONE; func.values.len()];
                                        }
                                        let slot = watched[fi][update.index()];
                                        if slot == NONE {
                                            watched[fi][update.index()] = watch_lists.len() as u32;
                                            watch_lists.push(vec![(lid.0, idx as u32)]);
                                        } else {
                                            watch_lists[slot as usize].push((lid.0, idx as u32));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                loop_meta.push(LoopMeta {
                    func: fid,
                    loop_id: lid,
                    func_name: func.name.clone(),
                    header: lp.header,
                    depth: lp.depth,
                    traced_phis,
                    computable_phis: computable as u32,
                });
            }
        }

        let predictors = std::iter::repeat_with(HybridPredictor::default)
            .take(traced_slots.len())
            .collect();

        Profiler {
            analysis,
            program: module.name.clone(),
            func_names: module
                .iter_functions()
                .map(|(_, f)| f.name.clone())
                .collect(),
            conflict_dists: Histogram::default(),
            header_loop,
            traced,
            traced_slots,
            watched,
            watch_lists,
            meta_of,
            loop_blocks,
            loop_meta,
            now: 0,
            regions: Vec::new(),
            region_stack: Vec::new(),
            loop_stack: Vec::new(),
            shadow: ShadowTable::new(),
            witness: None,
            frames: Vec::new(),
            call_depth: 0,
            predictors,
            options,
            cactus_filter_hits: 0,
            mem_stats: MemStats::default(),
        }
    }

    /// Arms the independence-witness engine for `targets`; `exempt`
    /// lists word addresses excluded from the disjointness check
    /// (designated reduction slots — normally empty).
    pub fn enable_witness(&mut self, targets: &[(FuncId, LoopId)], exempt: Vec<u64>) {
        self.witness = Some(Box::new(WitnessState::new(targets, exempt)));
    }

    /// The `(func, value)` pairs the machine must report definitions for.
    #[must_use]
    pub fn watched_values(&self) -> Vec<(FuncId, ValueId)> {
        let mut out = Vec::new();
        for (f, row) in self.watched.iter().enumerate() {
            for (v, &slot) in row.iter().enumerate() {
                if slot != NONE {
                    out.push((FuncId(f as u32), ValueId(v as u32)));
                }
            }
        }
        out
    }

    fn push_region(&mut self, kind: RegionKind) -> RegionId {
        let parent = self.region_stack.last().copied();
        let parent_iter = match (parent, self.loop_stack.last()) {
            (Some(p), Some(al)) if al.region == p => al.cur_iter,
            _ => 0,
        };
        let rid = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            parent,
            parent_iter,
            start: self.now,
            end: self.now,
            kind,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.regions[p.index()].children.push(rid);
        }
        self.region_stack.push(rid);
        rid
    }

    fn close_top_loop(&mut self, stamp: u64) {
        let al = self.loop_stack.pop().expect("active loop to close");
        if let Some(wit) = self.witness.as_deref_mut() {
            wit.deactivate(self.loop_stack.len(), al.cur_iter);
        }
        let rid = self
            .region_stack
            .pop()
            .expect("loop region on region stack");
        debug_assert_eq!(rid, al.region, "region stack out of sync");
        let region = &mut self.regions[rid.index()];
        region.end = stamp;
        region.kind = RegionKind::Loop(LoopInstance {
            meta: al.meta,
            iter_starts: al.iter_starts,
            mem_conflict_iters: al.conflicts,
            mem_max_skew: al.max_skew,
            mem_max_producer_rel: al.max_producer_rel,
            mem_min_consumer_rel: al.min_consumer_rel,
            mem_edges: al.edges,
            lcds: al.lcds,
            call_class: al.call_class,
        });
    }

    fn bump_call_class(&mut self, class: CallClass) {
        for al in &mut self.loop_stack {
            if class > al.call_class {
                al.call_class = class;
            }
        }
    }

    /// The push time of the stack frame owning `addr` (0 for non-stack
    /// addresses or when the cactus-stack assumption is off). Frames have
    /// strictly increasing bases, so the owner is the last frame with
    /// `base <= addr`.
    fn owner_frame_push(&self, addr: u64) -> u64 {
        if !self.options.cactus_stack || addr < STACK_BASE {
            return 0;
        }
        let i = self.frames.partition_point(|fr| fr.base <= addr);
        if i == 0 {
            0
        } else {
            self.frames[i - 1].push_cost
        }
    }

    /// Feeds one access to every active witness instance, applying the
    /// exempt-address and cactus-stack (iteration-local frame) rules per
    /// level.
    fn witness_access(&mut self, addr: u64, is_store: bool) {
        let push = self.owner_frame_push(addr);
        let Some(wit) = self.witness.as_deref_mut() else {
            return;
        };
        if wit.is_exempt(addr) {
            return;
        }
        for aw in wit.active_mut() {
            let al = &self.loop_stack[aw.depth()];
            if push > 0 && push >= al.iter_start {
                aw.note_exempt();
                continue;
            }
            aw.observe(addr, al.cur_iter, is_store);
        }
    }

    fn track_access(&mut self, addr: u64, is_store: bool, now: u64) {
        self.now = self.now.max(now);
        if self.witness.as_ref().is_some_and(|w| w.any_active()) {
            self.witness_access(addr, is_store);
        }
        if is_store {
            // A store with no loop active can never become a
            // cross-iteration producer: every later instance's first
            // iteration starts after it, so the `w.t < iter_starts[0]`
            // exclusion would always discard the stamp, and an unstamped
            // word takes the same EMPTY fast path. Skipping the stamp
            // avoids paging in shadow memory for init-phase stores and
            // keeps the shadow cache's reference stream (loop traffic
            // only) distinct from the interpreter page cache's (every
            // access).
            if self.loop_stack.is_empty() {
                return;
            }
            // One stamp serves every loop level: each level re-derives
            // iteration numbers from the absolute time on the (rare)
            // conflict path.
            let push = self.owner_frame_push(addr);
            self.shadow.record_store(addr, now, push);
            return;
        }
        let Some(top) = self.loop_stack.last() else {
            return;
        };
        let w = self.shadow.last_writer(addr);
        // Fast path: last written during the innermost loop's current
        // iteration (or never — EMPTY_STAMP's `t` is `u64::MAX`). Inner
        // iteration starts bound all outer ones, so no level conflicts.
        if w.t >= top.iter_start {
            return;
        }
        // Second fast path: a stamp from before the *outermost* active
        // instance began is excluded at every level by `conflict_scan`'s
        // first test (before any tally), so the whole walk is a no-op.
        // Init-phase producers — arrays filled by an earlier loop — land
        // here on every load of the consuming loop nest.
        if w.t < self.loop_stack[0].iter_starts[0] {
            return;
        }
        self.conflict_scan(addr, w, now);
    }

    /// The load slow path: walks every active loop level and
    /// records the cross-iteration RAW conflicts `w` produces for the
    /// load of `addr` at `now`. Only reached when the last-writer stamp
    /// predates the innermost current iteration — rare by construction.
    #[cold]
    fn conflict_scan(&mut self, addr: u64, w: Stamp, now: u64) {
        let load_push = self.owner_frame_push(addr);
        for al in &mut self.loop_stack {
            // Stamp from before this instance began: not a producer here.
            // (This is what makes stale stamps harmless without any
            // per-instance invalidation.)
            if w.t < al.iter_starts[0] || w.t >= al.iter_start {
                continue;
            }
            // Cactus-stack filter, paper §II-E: a frame created during
            // this level's current iteration is iteration-local — both
            // the consumer's frame (checked against the load) and the
            // producer's frame (checked against the store's own
            // iteration) generate no cross-iteration conflict.
            if load_push > 0 && load_push >= al.iter_start {
                self.cactus_filter_hits += 1;
                continue;
            }
            // 0-based iteration containing the store, by binary search on
            // this level's iteration start stamps.
            let w_iter = al.iter_starts.partition_point(|s| *s <= w.t) as u32 - 1;
            let w_iter_start = al.iter_starts[w_iter as usize];
            if w.push > 0 && w.push >= w_iter_start {
                self.cactus_filter_hits += 1;
                continue;
            }
            if al.conflicts.last() != Some(&al.cur_iter) {
                al.conflicts.push(al.cur_iter);
            }
            al.edges += 1;
            let rel = now.saturating_sub(al.iter_start);
            let w_rel = w.t - w_iter_start;
            let span = u64::from(al.cur_iter - w_iter);
            self.conflict_dists.record(span);
            let skew = w_rel.saturating_sub(rel) / span;
            if skew > al.max_skew {
                al.max_skew = skew;
            }
            al.max_producer_rel = al.max_producer_rel.max(w_rel);
            al.min_consumer_rel = al.min_consumer_rel.min(rel);
        }
    }

    /// Publishes this run's tallies into the process-wide [`lp_obs`]
    /// counter bank: regions/loops built, RAW conflict edges, cactus-stack
    /// filter hits, per-iteration-count histogram samples, memory and
    /// shadow last-page cache hit rates, and per-kind value-predictor
    /// hit/miss totals.
    fn flush_counters(&self) {
        let c = lp_obs::counters();
        c.add(Counter::RegionsCreated, self.regions.len() as u64);
        let mut edges = 0u64;
        let mut loops = 0u64;
        for r in &self.regions {
            if let RegionKind::Loop(inst) = &r.kind {
                loops += 1;
                edges += inst.mem_edges;
                lp_obs::record_hist(Hist::LoopIterations, inst.iterations() as u64);
            }
        }
        c.add(Counter::LoopInstances, loops);
        c.add(Counter::RawConflicts, edges);
        c.add(Counter::CactusFilterHits, self.cactus_filter_hits);
        c.add(Counter::MemPageCacheHits, self.mem_stats.page_cache_hits);
        c.add(
            Counter::MemPageCacheMisses,
            self.mem_stats.page_cache_misses,
        );
        c.add(Counter::ShadowPageCacheHits, self.shadow.hits);
        c.add(Counter::ShadowPageCacheMisses, self.shadow.misses);
        lp_obs::merge_hist(Hist::ConflictDistance, &self.conflict_dists);
        let components = [
            PredictorKind::LastValue,
            PredictorKind::Stride,
            PredictorKind::TwoDeltaStride,
            PredictorKind::Fcm,
        ];
        for pred in &self.predictors {
            let s = pred.stats();
            c.add(Counter::PredictorHit(PredictorKind::Hybrid), s.correct);
            c.add(
                Counter::PredictorMiss(PredictorKind::Hybrid),
                s.observed - s.correct,
            );
            for (kind, cs) in components.iter().zip(pred.component_stats()) {
                c.add(Counter::PredictorHit(*kind), cs.correct);
                c.add(Counter::PredictorMiss(*kind), cs.observed - cs.correct);
            }
        }
    }

    /// As [`Profiler::finish`], additionally returning the gathered
    /// independence witnesses (empty report when
    /// [`Profiler::enable_witness`] was never called).
    #[must_use]
    pub fn finish_with_witness(mut self) -> (Profile, WitnessReport) {
        // Close still-open loops first so their witnesses finalize, then
        // detach the engine before the ordinary finish path.
        let stamp = self.now;
        while !self.loop_stack.is_empty() {
            self.close_top_loop(stamp);
        }
        let report = self
            .witness
            .take()
            .map_or_else(WitnessReport::default, |w| w.into_report());
        (self.finish(), report)
    }

    /// Finalizes the profile. Call after the machine run completes.
    ///
    /// # Panics
    /// Panics if regions are still open (the run did not complete).
    #[must_use]
    pub fn finish(mut self) -> Profile {
        // A trapped/aborted run may leave regions open; close them at the
        // final stamp so partial profiles remain well-formed.
        let stamp = self.now;
        while !self.loop_stack.is_empty() {
            self.close_top_loop(stamp);
        }
        while let Some(rid) = self.region_stack.pop() {
            self.regions[rid.index()].end = stamp;
        }
        self.flush_counters();
        Profile {
            program: self.program,
            total_cost: self.now,
            regions: self.regions,
            meta_index: MetaIndex::from_meta(&self.loop_meta),
            loop_meta: self.loop_meta,
            func_names: self.func_names,
        }
    }
}

impl EventSink for Profiler<'_> {
    fn block_entered(&mut self, func: FuncId, block: BlockId, _cost: u64, now: u64) {
        let stamp = now;
        self.now = self.now.max(now);
        // Close loops (of this frame) the control flow has left.
        while let Some(top) = self.loop_stack.last() {
            if top.frame_depth != self.call_depth || top.func != func.0 {
                break;
            }
            if self.loop_blocks[top.meta][block.index()] {
                break;
            }
            self.close_top_loop(stamp);
        }
        // Header entry: new iteration of the top instance, or a new
        // instance.
        let lid = self.header_loop[func.index()]
            .get(block.index())
            .copied()
            .unwrap_or(NONE);
        if lid != NONE {
            let is_top = self.loop_stack.last().is_some_and(|t| {
                t.frame_depth == self.call_depth && t.func == func.0 && t.loop_id == lid
            });
            if is_top {
                let t = self.loop_stack.last_mut().expect("checked above");
                t.cur_iter += 1;
                t.iter_start = stamp;
                t.iter_starts.push(stamp);
            } else {
                let meta = self.meta_of[func.index()][lid as usize] as usize;
                let n_lcds = self.loop_meta[meta].traced_phis.len();
                let region = self.push_region(RegionKind::Loop(LoopInstance {
                    meta,
                    iter_starts: Vec::new(),
                    mem_conflict_iters: Vec::new(),
                    mem_max_skew: 0,
                    mem_max_producer_rel: 0,
                    mem_min_consumer_rel: u64::MAX,
                    mem_edges: 0,
                    lcds: Vec::new(),
                    call_class: CallClass::NoCalls,
                }));
                self.regions[region.index()].start = stamp;
                self.loop_stack.push(ActiveLoop {
                    region,
                    func: func.0,
                    loop_id: lid,
                    meta,
                    frame_depth: self.call_depth,
                    cur_iter: 0,
                    iter_start: stamp,
                    iter_starts: vec![stamp],
                    conflicts: Vec::new(),
                    max_skew: 0,
                    max_producer_rel: 0,
                    min_consumer_rel: u64::MAX,
                    edges: 0,
                    lcds: vec![LcdInstance::default(); n_lcds],
                    call_class: CallClass::NoCalls,
                });
                if let Some(wit) = self.witness.as_deref_mut() {
                    if wit.is_target(func.0, lid) {
                        wit.activate(self.loop_stack.len() - 1, func.0, lid);
                    }
                }
            }
        }
    }

    fn phi_resolved(
        &mut self,
        func: FuncId,
        _block: BlockId,
        phi: ValueId,
        value: Value,
        _now: u64,
    ) {
        let slot = self.traced[func.index()]
            .get(phi.index())
            .copied()
            .unwrap_or(NONE);
        if slot == NONE {
            return;
        }
        let (lid, idx) = self.traced_slots[slot as usize];
        if let Some(al) = self
            .loop_stack
            .iter_mut()
            .rev()
            .find(|a| a.func == func.0 && a.loop_id == lid)
        {
            let pred = &mut self.predictors[slot as usize];
            let hit = pred.observe(value.fingerprint());
            let lcd = &mut al.lcds[idx as usize];
            lcd.observed += 1;
            if hit {
                lcd.predicted += 1;
            } else if al.cur_iter >= 1 {
                // Iteration 0 consumes the loop-invariant initial
                // value — not a cross-iteration dependency.
                lcd.mispredict_iters.push(al.cur_iter);
            }
        }
    }

    fn load(&mut self, addr: u64, now: u64) {
        self.track_access(addr, false, now);
    }

    fn store(&mut self, addr: u64, now: u64) {
        self.track_access(addr, true, now);
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        self.now = self.now.max(now);
        if !self.options.cactus_stack && !self.loop_stack.is_empty() {
            // Conventional sequential stack: the stack-pointer update is
            // a read-modify-write in strict program order (paper §II-E) —
            // a frequent memory LCD for every loop containing calls.
            self.track_access(SP_HAZARD_ADDR, false, now);
            self.track_access(SP_HAZARD_ADDR, true, now);
        }
        if !self.loop_stack.is_empty() {
            let class = match self.analysis.callgraph.purity(func) {
                Purity::Pure => CallClass::PureCalls,
                Purity::Impure => CallClass::InstrumentedCalls,
            };
            self.bump_call_class(class);
        }
        self.call_depth += 1;
        self.frames.push(FrameRec {
            base: frame_base,
            push_cost: now,
        });
        self.push_region(RegionKind::Call { func });
    }

    fn func_exited(&mut self, _func: FuncId, now: u64) {
        self.now = self.now.max(now);
        let stamp = now;
        while self
            .loop_stack
            .last()
            .is_some_and(|t| t.frame_depth == self.call_depth)
        {
            self.close_top_loop(stamp);
        }
        let rid = self.region_stack.pop().expect("call region to close");
        self.regions[rid.index()].end = stamp;
        self.frames.pop();
        self.call_depth -= 1;
    }

    fn builtin_called(&mut self, _caller: FuncId, builtin: Builtin, _now: u64) {
        let class = if builtin.is_pure() {
            CallClass::PureCalls
        } else if builtin.is_thread_safe() {
            CallClass::InstrumentedCalls
        } else {
            CallClass::UnsafeCalls
        };
        self.bump_call_class(class);
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, _val: Value, now: u64) {
        self.now = self.now.max(now);
        let slot = self.watched[func.index()]
            .get(value.index())
            .copied()
            .unwrap_or(NONE);
        if slot == NONE {
            return;
        }
        for k in 0..self.watch_lists[slot as usize].len() {
            let (lid, idx) = self.watch_lists[slot as usize][k];
            if let Some(al) = self
                .loop_stack
                .iter_mut()
                .rev()
                .find(|a| a.func == func.0 && a.loop_id == lid)
            {
                let rel = now.saturating_sub(al.iter_start);
                let lcd = &mut al.lcds[idx as usize];
                if rel > lcd.max_def_rel {
                    lcd.max_def_rel = rel;
                }
            }
        }
    }

    fn mem_stats(&mut self, stats: MemStats) {
        self.mem_stats = stats;
    }
}

/// Runs `module` under the profiler and returns the profile plus the raw
/// run result.
///
/// # Errors
/// Propagates interpreter traps ([`lp_interp::InterpError`]).
pub fn profile_module(
    module: &Module,
    analysis: &ModuleAnalysis,
    args: &[Value],
    machine_config: MachineConfig,
) -> Result<(Profile, RunResult), lp_interp::InterpError> {
    profile_module_with(
        module,
        analysis,
        args,
        machine_config,
        ProfilerOptions::default(),
    )
}

/// As [`profile_module`] with explicit profiler knobs (ablations).
///
/// # Errors
/// Propagates interpreter traps.
pub fn profile_module_with(
    module: &Module,
    analysis: &ModuleAnalysis,
    args: &[Value],
    mut machine_config: MachineConfig,
    options: ProfilerOptions,
) -> Result<(Profile, RunResult), lp_interp::InterpError> {
    let _span = span!("profile");
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let mut profiler = Profiler::with_options(module, analysis, options);
    machine_config.watched_values = profiler.watched_values();
    let mut metered = MeteredSink::new(&mut profiler);
    // The engine comes in through the machine config: one `ExecUnit`
    // compiled here serves the whole profiling run.
    let unit = ExecUnit::with_engine(module, machine_config.engine);
    let result = Exec::new(&unit)
        .sink(&mut metered)
        .config(machine_config)
        .run(args)
        .map(|out| out.result);
    let counts = metered.counts();
    let c = lp_obs::counters();
    c.add(Counter::EventsConsumed, counts.total());
    c.add(Counter::BlocksEntered, counts.blocks);
    c.add(Counter::PhisResolved, counts.phis);
    c.add(Counter::Loads, counts.loads);
    c.add(Counter::Stores, counts.stores);
    c.add(Counter::FuncsEntered, counts.funcs);
    c.add(Counter::BuiltinCalls, counts.builtins);
    c.add(Counter::ValueDefs, counts.defs);
    c.add(Counter::ProfilesTaken, 1);
    lp_obs::record_hist(Hist::ProfileNanos, reg.now_ns().saturating_sub(t0));
    let result = result?;
    Ok((profiler.finish(), result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_analysis::analyze_module;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Module, Type};

    fn profile(m: &Module, args: &[Value]) -> Profile {
        let analysis = analyze_module(m);
        let (p, _) = profile_module(m, &analysis, args, MachineConfig::default()).unwrap();
        p
    }

    /// Independent-iteration array sum into distinct slots (DOALL-able,
    /// modulo the reduction).
    fn doall_module(n: i64) -> Module {
        let mut m = Module::new("doall");
        let g = m.add_global(Global::zeroed("a", n as u64 + 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let v = fb.mul(i, i);
        fb.store(v, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    /// Loop carrying a RAW through one memory cell (frequent memory LCD).
    fn serial_mem_module(n: i64) -> Module {
        let mut m = Module::new("serial_mem");
        let g = m.add_global(Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.load(Type::I64, cell);
        let v2 = fb.add(v, one);
        fb.store(v2, cell);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, cell);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn doall_loop_has_no_conflicts() {
        let m = doall_module(50);
        let p = profile(&m, &[]);
        let instances: Vec<_> = p.loop_instances().collect();
        assert_eq!(instances.len(), 1);
        let (_, region, inst) = instances[0];
        // 50 body iterations + the exiting header check.
        assert_eq!(inst.iterations(), 51);
        assert!(inst.mem_conflict_iters.is_empty());
        assert_eq!(inst.call_class, CallClass::NoCalls);
        assert!(region.serial_cost() > 0);
        // Only the computable counter phi: nothing traced.
        assert!(p.loop_meta[inst.meta].traced_phis.is_empty());
        assert_eq!(p.loop_meta[inst.meta].computable_phis, 1);
    }

    #[test]
    fn memory_lcd_detected_every_iteration() {
        let m = serial_mem_module(40);
        let p = profile(&m, &[]);
        let (_, _, inst) = p.loop_instances().next().unwrap();
        // Every iteration from 1 loads what iteration k-1 stored.
        assert_eq!(inst.mem_conflict_iters.len(), 39);
        assert_eq!(inst.mem_conflict_iters[0], 1);
        assert!(inst.mem_edges >= 39);
    }

    #[test]
    fn conflict_distances_and_func_names_are_captured() {
        let before = lp_obs::registry().hist(Hist::ConflictDistance).count;
        let m = serial_mem_module(40);
        let p = profile(&m, &[]);
        assert_eq!(p.func_names, vec!["main".to_string()]);
        // Every iteration 1..40 consumes the previous store: 39 edges at
        // iteration distance 1 merged into the global histogram. Other
        // tests in this binary may add samples too, so bound from below.
        let after = lp_obs::registry().hist(Hist::ConflictDistance).count;
        assert!(after >= before + 39, "before={before} after={after}");
    }

    #[test]
    fn shadow_and_mem_cache_counters_diverge_on_store_heavy_kernel() {
        // Regression: BENCH_profiler.json once reported byte-identical
        // `mem_page_cache_*` and `shadow_page_cache_*` pairs because the
        // shadow table replayed the interpreter's full reference stream,
        // init-phase stores included. The shadow cache must see loop
        // traffic only, so on a kernel dominated by outside-loop stores
        // the two pairs diverge.
        let n = 64i64;
        let mut m = Module::new("init_then_scan");
        let g = m.add_global(Global::zeroed("a", n as u64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        // Init phase: straight-line stores before any loop begins.
        for k in 0..n {
            let kk = fb.const_i64(k);
            let addr = fb.gep(base, kk, 8, 0);
            fb.store(kk, addr);
        }
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        fb.load(Type::I64, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let analysis = analyze_module(&m);
        let mut profiler = Profiler::new(&m, &analysis);
        let cfg = MachineConfig {
            watched_values: profiler.watched_values(),
            ..Default::default()
        };
        let mut metered = MeteredSink::new(&mut profiler);
        let unit = ExecUnit::new(&m);
        Exec::new(&unit)
            .sink(&mut metered)
            .config(cfg)
            .run(&[])
            .unwrap();
        let _ = metered;

        let mem = (
            profiler.mem_stats.page_cache_hits,
            profiler.mem_stats.page_cache_misses,
        );
        let shadow = (profiler.shadow.hits, profiler.shadow.misses);
        assert!(mem.0 + mem.1 > 0, "interpreter cache saw no traffic");
        assert!(shadow.0 + shadow.1 > 0, "shadow cache saw no traffic");
        assert_ne!(mem, shadow, "cache counter pairs must diverge");
        assert!(
            shadow.0 + shadow.1 < mem.0 + mem.1,
            "shadow stream (loop-only) must be a strict subset: {shadow:?} vs {mem:?}"
        );
    }

    #[test]
    fn region_tree_is_closed_and_ordered() {
        let m = serial_mem_module(10);
        let p = profile(&m, &[]);
        assert_eq!(p.region(p.root()).start, 0);
        assert_eq!(p.region(p.root()).end, p.total_cost);
        for r in &p.regions {
            assert!(r.start <= r.end);
            for &c in &r.children {
                let child = p.region(c);
                assert!(child.start >= r.start && child.end <= r.end);
            }
        }
    }

    #[test]
    fn shadow_table_overwrites_and_reports_empty_words() {
        let mut t = ShadowTable::new();
        t.record_store(0x1000_0000, 3, 17);
        assert_eq!(t.last_writer(0x1000_0000), Stamp { t: 3, push: 17 });
        assert_eq!(t.last_writer(0x1000_0008), EMPTY_STAMP);
        // Later store to the same word replaces the stamp.
        t.record_store(0x1000_0000, 9, 0);
        assert_eq!(t.last_writer(0x1000_0000), Stamp { t: 9, push: 0 });
        // An empty stamp's time always fails `t < iter_start` exclusion.
        assert_eq!(EMPTY_STAMP.t, u64::MAX);
    }

    #[test]
    fn shadow_table_far_addresses_round_trip() {
        // Synthetic function-pointer addresses live above the dense
        // directory and fall through to the Fx map.
        let far_addr = 0xF000_0000_0000u64 | 8;
        let mut t = ShadowTable::new();
        t.record_store(far_addr, 2, 9);
        assert_eq!(t.last_writer(far_addr), Stamp { t: 2, push: 9 });
        assert_eq!(t.last_writer(far_addr + 8), EMPTY_STAMP);
    }

    #[test]
    fn reentered_loop_instance_starts_with_clean_shadow_state() {
        // An outer loop runs an inner loop twice. The inner loop stores to
        // `cell` only on (outer 0, inner 0) and loads `cell` every inner
        // iteration. The first inner instance therefore carries real RAW
        // conflicts (iters 1..=4 consume iter 0's store); the second must
        // have none — a stale last-writer stamp escaping the
        // instance-start time exclusion would fabricate them.
        let mut m = Module::new("reentry");
        let g = m.add_global(Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let two = fb.const_i64(2);
        let five = fb.const_i64(5);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let outer_header = fb.create_block("outer_header");
        let outer_body = fb.create_block("outer_body");
        let inner_header = fb.create_block("inner_header");
        let inner_body = fb.create_block("inner_body");
        let do_store = fb.create_block("do_store");
        let after = fb.create_block("after");
        let outer_latch = fb.create_block("outer_latch");
        let exit = fb.create_block("exit");
        fb.br(outer_header);
        fb.switch_to(outer_header);
        let j = fb.phi(Type::I64);
        let cj = fb.icmp(IcmpPred::Slt, j, two);
        fb.cond_br(cj, outer_body, exit);
        fb.switch_to(outer_body);
        fb.br(inner_header);
        fb.switch_to(inner_header);
        let i = fb.phi(Type::I64);
        let ci = fb.icmp(IcmpPred::Slt, i, five);
        fb.cond_br(ci, inner_body, outer_latch);
        fb.switch_to(inner_body);
        let s = fb.add(i, j);
        let first = fb.icmp(IcmpPred::Eq, s, zero);
        fb.cond_br(first, do_store, after);
        fb.switch_to(do_store);
        fb.store(one, cell);
        fb.br(after);
        fb.switch_to(after);
        fb.load(Type::I64, cell);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, outer_body, zero);
        fb.add_phi_incoming(i, after, i2);
        fb.br(inner_header);
        fb.switch_to(outer_latch);
        let j2 = fb.add(j, one);
        fb.add_phi_incoming(j, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(j, outer_latch, j2);
        fb.br(outer_header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let p = profile(&m, &[]);
        let inner: Vec<_> = p
            .loop_instances()
            .filter(|(_, _, inst)| p.loop_meta[inst.meta].depth == 2)
            .collect();
        assert_eq!(inner.len(), 2, "two inner instances");
        let (_, _, first_inst) = inner[0];
        let (_, _, second_inst) = inner[1];
        assert_eq!(first_inst.mem_conflict_iters, vec![1, 2, 3, 4]);
        assert!(
            second_inst.mem_conflict_iters.is_empty(),
            "stale shadow stamps leaked into the re-entered instance: {:?}",
            second_inst.mem_conflict_iters
        );
    }
}
