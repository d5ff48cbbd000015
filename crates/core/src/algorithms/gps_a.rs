//! **GPS-A** — the straightforward adaption of GPS to fully dynamic
//! streams (paper §III-B).
//!
//! GPS-A samples exactly like GPS; when a deletion event hits a sampled
//! edge it merely attaches a `DEL` tag instead of freeing the slot. The
//! tagged ghost keeps occupying reservoir budget (and remains evictable
//! by rank) but is excluded from the sampled graph used for estimation.
//! Because the sampling process is untouched, the inclusion
//! probabilities of Eq. (2) still hold and the estimator of Eq. (6)–(8)
//! is unbiased (Theorem 2) — but the *effective* reservoir shrinks as
//! ghosts accumulate, which is the accuracy drawback WSD removes.
//!
//! Implementation note: queued items are keyed by a recycled *item ID*,
//! not by the edge, so that an edge can be re-inserted while its tagged
//! ghost from a previous life still sits in the queue. Item IDs are
//! recycled when their queue slot frees (at most `M` are ever in
//! flight), so all item bookkeeping — the edge and live flag per item,
//! and the item behind each live sampled edge — lives in dense arrays;
//! no edge-keyed hashing anywhere on the event path.
//!
//! [`GpsASampler`] is the session-facing sampling layer (N pattern
//! queries off one reservoir, see [`crate::session`]).

use crate::algorithms::WeightMode;
use crate::estimator::{layered_weighted_mass, weighted_mass, MassKernel};
use crate::rank::{draw_u, rank};
use crate::reservoir::IndexedMinHeap;
use crate::sampled_graph::{EdgeMeta, WeightedSample};
use crate::session::{EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{SamplerState, WeightedSampleState};
use crate::state::{StateAccumulator, StateVector, TemporalPooling};
use crate::weight::WeightFn;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, Pattern};

/// Recycled id per reservoir item (survives tagging; edges can recur).
type ItemId = u32;

/// The GPS-A sampling layer.
pub struct GpsASampler {
    display_name: String,
    /// The pattern the weight function observes.
    weight_pattern: Pattern,
    capacity: usize,
    /// Keyed by item ID.
    heap: IndexedMinHeap,
    /// Edge behind each queued item (live or tagged); indexed by item ID.
    item_edge: Vec<Edge>,
    /// Whether the item is live (untagged); indexed by item ID.
    item_live: Vec<bool>,
    /// Item IDs whose queue slot has freed, awaiting recycling.
    free_items: Vec<ItemId>,
    /// Item behind each live sampled edge; indexed by the sample's arena
    /// edge ID.
    edge_item: Vec<ItemId>,
    /// The estimation view: live sampled edges only (`R \ R_tag`).
    sample: WeightedSample,
    /// Threshold `z = r_{M+1}` (as in GPS).
    z: f64,
    t: u64,
    acc: StateAccumulator,
    /// Reusable state-vector buffer (allocation-free insertions).
    state_buf: StateVector,
    weight_fn: Box<dyn WeightFn>,
    rng: SmallRng,
    /// Pre-drawn `u` variates for batched processing (reused scratch).
    u_buf: Vec<f64>,
    /// Mass kernel for the sampler-owned weight pass.
    mass_kernel: MassKernel,
    /// Resolved state-observation mode of the weight function.
    weight_mode: WeightMode,
}

impl GpsASampler {
    /// Creates a GPS-A sampler whose weight function observes
    /// `weight_pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < |H|` or the pattern is invalid.
    pub fn new(
        weight_pattern: Pattern,
        capacity: usize,
        weight_fn: Box<dyn WeightFn>,
        seed: u64,
    ) -> Self {
        weight_pattern.validate().expect("invalid pattern");
        assert!(
            capacity >= weight_pattern.num_edges(),
            "reservoir capacity M = {capacity} must be ≥ |H| = {}",
            weight_pattern.num_edges()
        );
        let weight_mode = WeightMode::resolve(weight_fn.as_ref(), false);
        Self {
            display_name: "GPS-A".to_string(),
            weight_pattern,
            capacity,
            heap: IndexedMinHeap::with_capacity(capacity),
            item_edge: Vec::with_capacity(capacity),
            item_live: Vec::with_capacity(capacity),
            free_items: Vec::new(),
            edge_item: Vec::new(),
            sample: WeightedSample::with_capacity(capacity),
            z: 0.0,
            t: 0,
            acc: StateAccumulator::new(weight_pattern.num_edges(), TemporalPooling::Max),
            state_buf: StateVector::empty(),
            weight_fn,
            rng: SmallRng::seed_from_u64(seed),
            u_buf: Vec::new(),
            mass_kernel: MassKernel::build_default(),
            weight_mode,
        }
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.display_name = name.into();
        self
    }

    /// Selects the mass kernel of the sampler-owned weight pass (see
    /// [`MassKernel`]); estimates are bit-identical either way.
    pub fn with_mass_kernel(mut self, kernel: MassKernel) -> Self {
        self.mass_kernel = kernel;
        self
    }

    /// Number of tagged ghosts currently wasting reservoir budget — the
    /// quantity behind GPS-A's accuracy drawback.
    pub fn tagged_edges(&self) -> usize {
        self.heap.len() - self.sample.len()
    }

    /// Number of live (estimation-visible) sampled edges.
    pub fn live_edges(&self) -> usize {
        self.sample.len()
    }

    /// Heap-slot-order snapshot of the queue as
    /// `(edge, live, rank)` triples (ghosts carry `live == false`) —
    /// white-box surface for the admission differential suite (see
    /// [`WsdSampler::reservoir_snapshot`]).
    ///
    /// [`WsdSampler::reservoir_snapshot`]:
    /// crate::algorithms::WsdSampler::reservoir_snapshot
    pub fn reservoir_snapshot(&self) -> Vec<(Edge, bool, f64)> {
        self.heap
            .iter()
            .map(|(item, r)| (self.item_edge[item as usize], self.item_live[item as usize], r))
            .collect()
    }

    /// Item-ID bookkeeping size — exposed for the boundedness test.
    #[cfg(test)]
    pub(crate) fn item_table_len(&self) -> usize {
        self.item_edge.len()
    }

    fn evict(&mut self, item: ItemId) {
        // Live items must also leave the estimation view; ghosts already
        // have (a ghost's edge may have been re-inserted as a *different*
        // live item, which the flag keeps untouched).
        if self.item_live[item as usize] {
            self.item_live[item as usize] = false;
            let edge = self.item_edge[item as usize];
            self.sample.remove(edge).expect("live item present in sample");
        }
        self.free_items.push(item);
    }

    /// Estimator + state observation against the pre-update live
    /// sample; returns the arriving edge's weight. One layered pass
    /// serves every query when the weight observation rides a plan
    /// level (fused weight query or a count-blind `Affine(0, b)`
    /// weight); otherwise the legacy per-query passes run unchanged.
    // inline(always): this was the inline first half of `insert_with_u`
    // before the admission plan split it out; keep it inlined so both
    // admission paths compile to the pre-split code.
    #[inline(always)]
    fn observe(&mut self, e: Edge, ctx: QueryCtx<'_>) -> f64 {
        let QueryCtx { queries, scratch, plan } = ctx;
        let layered = plan.filter(|_| {
            queries.iter().any(|q| q.pattern == self.weight_pattern)
                || matches!(self.weight_mode, WeightMode::Affine(a, _) if a == 0.0)
        });
        match layered {
            Some(plan) => crate::algorithms::observe_queries_layered(
                self.weight_mode,
                self.weight_pattern,
                &mut self.sample,
                e,
                self.z,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                None,
                plan,
                queries,
                scratch,
            ),
            None => crate::algorithms::observe_queries(
                self.weight_mode,
                self.mass_kernel,
                self.weight_pattern,
                &mut self.sample,
                e,
                self.z,
                scratch,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                None,
                queries,
            ),
        }
    }

    /// Number of upcoming insertions guaranteed to be admitted
    /// regardless of their rank — the batched path's per-run *admission
    /// plan*. A non-full queue admits unconditionally (no threshold
    /// test), and only admissions grow the queue (deletions tag ghosts
    /// in place), so the guarantee holds for exactly the free slots.
    #[inline]
    fn guaranteed_admissions(&self) -> usize {
        self.capacity - self.heap.len()
    }

    /// Non-full insertion with the admission pre-resolved by the run
    /// plan: observe, rank, admit — no capacity branch, no eviction
    /// probe. Only valid while [`GpsASampler::guaranteed_admissions`]
    /// is positive, where it is exactly [`GpsASampler::insert_with_u`].
    fn insert_admit_unconditional(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        let r = rank(w, u);
        debug_assert!(self.heap.len() < self.capacity, "not in the fill phase");
        self.admit(e, w, r);
    }

    /// Insertion with an externally drawn `u` (batched path).
    fn insert_with_u(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        let r = rank(w, u);
        if self.heap.len() < self.capacity {
            self.admit(e, w, r);
        } else {
            let (victim, min_rank) = self.heap.peek_min().expect("full reservoir is non-empty");
            if r > min_rank {
                self.evict(victim);
                let (_, losing) = self.admit_replacing_min(e, w, r);
                self.z = self.z.max(losing);
            } else {
                self.z = self.z.max(r);
            }
        }
    }

    fn admit(&mut self, e: Edge, w: f64, r: f64) {
        let item = self.claim_item(e);
        self.heap.push(item, r);
        self.record_sample(e, w, item);
    }

    /// As [`GpsASampler::admit`], but the queue entry displaces the heap
    /// minimum in a single sift (the eviction path — the freshly evicted
    /// item is usually the one recycled); returns the displaced
    /// `(item, rank)`.
    fn admit_replacing_min(&mut self, e: Edge, w: f64, r: f64) -> (ItemId, f64) {
        let item = self.claim_item(e);
        let displaced = self.heap.replace_min(item, r);
        self.record_sample(e, w, item);
        displaced
    }

    /// Claims a (recycled) item ID for `e` and marks it live.
    fn claim_item(&mut self, e: Edge) -> ItemId {
        let item = match self.free_items.pop() {
            Some(item) => item,
            None => {
                self.item_edge.push(e);
                self.item_live.push(false);
                (self.item_edge.len() - 1) as ItemId
            }
        };
        self.item_edge[item as usize] = e;
        self.item_live[item as usize] = true;
        item
    }

    /// Inserts `e` into the estimation view and links its edge ID to the
    /// queue item.
    fn record_sample(&mut self, e: Edge, w: f64, item: ItemId) {
        let eid = self.sample.insert(e, EdgeMeta { weight: w, time: self.t }) as usize;
        if eid >= self.edge_item.len() {
            self.edge_item.resize(eid + 1, 0);
        }
        self.edge_item[eid] = item;
    }

    fn delete(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        let QueryCtx { queries, scratch, plan } = ctx;
        // Estimator first (Eq. 7): destroyed instances against the live
        // sample, which never contains e's own probability (J \ e_x).
        // Tag e (remove from the estimation view) *before* enumerating,
        // so the view matches `R \ R_tag` without e. One layered pass
        // subtracts every query's destroyed mass when the plan covers
        // them all.
        if let Some((eid, _)) = self.sample.remove_full(e) {
            let item = self.edge_item[eid as usize];
            debug_assert_eq!(self.item_edge[item as usize], e);
            // The ghost stays in the heap, still occupying budget.
            self.item_live[item as usize] = false;
        }
        match plan {
            Some(plan) => {
                let kernel = queries[0].mass_kernel;
                let m = layered_weighted_mass(
                    kernel,
                    plan.levels(),
                    &mut self.sample,
                    e,
                    self.z,
                    scratch,
                    None,
                );
                for (j, q) in queries.iter_mut().enumerate() {
                    q.estimate -= m.mass[plan.level_of(j)];
                }
            }
            None => {
                for q in queries.iter_mut() {
                    let m = weighted_mass(
                        q.mass_kernel,
                        q.pattern,
                        &mut self.sample,
                        e,
                        self.z,
                        scratch,
                        None,
                    );
                    q.estimate -= m.mass;
                }
            }
        }
    }
}

impl EdgeSampler for GpsASampler {
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => {
                let u = draw_u(&mut self.rng);
                self.insert_with_u(ev.edge, u, ctx);
            }
            Op::Delete => self.delete(ev.edge, ctx),
        }
        self.t += 1;
    }

    /// Batched path: as with WSD, exactly one `u` per insertion and none
    /// per deletion — all variates for the batch are pre-drawn in one
    /// RNG loop, preserving the sequential stream bit-for-bit — and the
    /// events are partitioned into same-op runs against the non-full
    /// admission plan (see `GpsASampler::guaranteed_admissions`).
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        crate::algorithms::predrawn_batch!(self, batch, ctx);
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    fn warm_start(&self, query: &mut PatternQuery, scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted(&self.sample, self.z, query, scratch);
    }

    fn warm_start_many(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted_many(&self.sample, self.z, queries, scratch);
    }

    fn stored_edges(&self) -> usize {
        self.heap.len()
    }

    fn name(&self) -> &str {
        &self.display_name
    }

    fn assert_capacity_for(&self, pattern: Pattern) {
        assert!(
            self.capacity >= pattern.num_edges(),
            "reservoir capacity M = {} must be ≥ |H| = {} of {}",
            self.capacity,
            pattern.num_edges(),
            pattern.name()
        );
    }

    fn snapshot_state(&self) -> SamplerState {
        let (layout, meta) = self.sample.snapshot_state();
        // The item tables travel verbatim, stale entries included:
        // stale slots are never read before being overwritten, but they
        // must match so the original and a restored twin keep producing
        // identical canonical snapshots after further events.
        SamplerState::GpsA {
            heap: self.heap.iter().collect(),
            item_edge: self.item_edge.clone(),
            item_live: self.item_live.clone(),
            free_items: self.free_items.clone(),
            edge_item: self.edge_item.clone(),
            sample: WeightedSampleState { layout, meta },
            z: self.z,
            t: self.t,
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::GpsA {
            heap,
            item_edge,
            item_live,
            free_items,
            edge_item,
            sample,
            z,
            t,
            rng,
        } = state
        else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.heap.restore_from_slots(heap);
        self.item_edge = item_edge.clone();
        self.item_live = item_live.clone();
        self.free_items = free_items.clone();
        self.edge_item = edge_item.clone();
        self.sample.restore_state(&sample.layout, &sample.meta);
        self.z = *z;
        self.t = *t;
        self.rng = SmallRng::from_state(*rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::SingleQuery;
    use crate::weight::{HeuristicWeight, UniformWeight};

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn exact_when_not_full() {
        let mut c = SingleQuery::new(
            Pattern::Triangle,
            GpsASampler::new(Pattern::Triangle, 64, Box::new(HeuristicWeight), 1),
        );
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), del(2, 3), ins(2, 3)] {
            c.process(ev);
        }
        // +1 triangle, −1 on deletion, +1 on re-insertion.
        assert_eq!(c.estimate(), 1.0);
    }

    #[test]
    fn deletion_tags_but_keeps_budget() {
        let mut c = SingleQuery::new(
            Pattern::Triangle,
            GpsASampler::new(Pattern::Triangle, 4, Box::new(UniformWeight), 2),
        );
        for i in 0..4u64 {
            c.process(ins(10 * i, 10 * i + 1));
        }
        assert_eq!(c.stored_edges(), 4);
        assert_eq!(c.tagged_edges(), 0);
        c.process(del(0, 1));
        // Budget still fully occupied, but one ghost.
        assert_eq!(c.stored_edges(), 4);
        assert_eq!(c.tagged_edges(), 1);
        assert_eq!(c.live_edges(), 3);
    }

    #[test]
    fn ghost_coexists_with_reinsertion() {
        let mut c = SingleQuery::new(
            Pattern::Triangle,
            GpsASampler::new(Pattern::Triangle, 8, Box::new(UniformWeight), 3),
        );
        c.process(ins(1, 2));
        c.process(del(1, 2));
        assert_eq!(c.tagged_edges(), 1);
        // Re-insert the same edge: a second item for the same edge.
        c.process(ins(1, 2));
        assert_eq!(c.stored_edges(), 2);
        assert_eq!(c.tagged_edges(), 1);
        assert_eq!(c.live_edges(), 1);
        // Delete again: the live copy becomes a second ghost.
        c.process(del(1, 2));
        assert_eq!(c.stored_edges(), 2);
        assert_eq!(c.tagged_edges(), 2);
    }

    #[test]
    fn ghosts_are_evictable() {
        let mut c = SingleQuery::new(
            Pattern::Triangle,
            GpsASampler::new(Pattern::Triangle, 3, Box::new(UniformWeight), 4),
        );
        for i in 0..3u64 {
            c.process(ins(10 * i, 10 * i + 1));
        }
        for i in 0..3u64 {
            c.process(del(10 * i, 10 * i + 1));
        }
        assert_eq!(c.tagged_edges(), 3);
        // Keep inserting; ghosts get displaced by higher-ranked arrivals
        // eventually (rank = 1/u > min ghost rank with prob ~1 over many
        // trials).
        for i in 10..60u64 {
            c.process(ins(10 * i, 10 * i + 1));
        }
        assert!(c.tagged_edges() < 3, "some ghost should have been evicted");
        assert_eq!(c.stored_edges(), 3);
    }

    #[test]
    fn item_ids_stay_bounded_by_capacity() {
        // Heavy churn far past capacity: recycled item IDs must keep the
        // dense bookkeeping no larger than the queue.
        let mut c = SingleQuery::new(
            Pattern::Triangle,
            GpsASampler::new(Pattern::Triangle, 8, Box::new(UniformWeight), 6),
        );
        for round in 0..50u64 {
            for i in 0..8u64 {
                c.process(ins(100 * round + 2 * i, 100 * round + 2 * i + 1));
            }
            for i in 0..4u64 {
                c.process(del(100 * round + 2 * i, 100 * round + 2 * i + 1));
            }
        }
        assert!(c.sampler.item_table_len() <= 8, "item ID space grew past capacity");
        assert!(c.stored_edges() <= 8);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = SingleQuery::new(
            Pattern::Wedge,
            GpsASampler::new(Pattern::Wedge, 6, Box::new(UniformWeight), 5),
        );
        for i in 0..100u64 {
            c.process(ins(i, i + 1));
            assert!(c.stored_edges() <= 6);
        }
        assert_eq!(c.name(), "GPS-A");
    }
}
