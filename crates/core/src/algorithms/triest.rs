//! **Triest-FD** baseline (Stefani et al., TKDD 2017 \[16\]) — uniform
//! sampling with random pairing, *update-on-admission*.
//!
//! Triest-FD maintains a uniform sample `S` of the live edges via random
//! pairing and, per query, a counter `τ` equal to the number of pattern
//! instances whose edges are **all** inside `S`: `τ` is updated
//! incrementally whenever an edge enters or leaves the sample ("the
//! estimation is only updated when an edge is sampled", as the WSD paper
//! puts it). A query rescales by the probability that a specific
//! instance is fully sampled,
//!
//! ```text
//! κ(t) = Π_{i=0}^{|H|−1} (s − i) / (n − i),
//! ```
//!
//! where `s = |S|` and `n = |E(t)|` — valid because RP keeps `S` uniform
//! over the live population. See DESIGN.md §3.3 for the (documented)
//! bookkeeping differences from the original TKDD formulation.
//!
//! Because the sampling decision never looks at any pattern, one
//! [`TriestSampler`] serves any number of attached queries off the same
//! uniform sample (see [`crate::session`]).

use crate::reservoir::{Admission, RpReservoir};
use crate::session::{EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{RpState, SamplerState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, Pattern, VertexAdjacency};

/// The Triest-FD sampling layer: a random-pairing uniform reservoir
/// plus the sampled adjacency, maintaining each attached query's
/// in-sample instance counter τ.
pub struct TriestSampler {
    reservoir: RpReservoir,
    /// Adjacency over the sampled edges — the ID-free flavour: the
    /// count-only estimators never consume arena IDs, so carrying the
    /// arena (the PR-2 throughput give-back) is pure overhead here.
    adj: VertexAdjacency,
    rng: SmallRng,
}

impl TriestSampler {
    /// Creates a Triest-FD sampler with reservoir capacity `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            reservoir: RpReservoir::new(capacity),
            adj: VertexAdjacency::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The sampled adjacency — exposed for white-box tests.
    pub fn sampled_graph(&self) -> &VertexAdjacency {
        &self.adj
    }

    /// Slot-order snapshot of the reservoir — white-box surface for the
    /// admission differential suite. Slot order is observable: the
    /// uniform victim draw indexes it, so every admission path must
    /// reproduce it exactly.
    pub fn reservoir_snapshot(&self) -> Vec<Edge> {
        self.reservoir.iter().collect()
    }

    /// Counts the instances `e` completes at each query's level — one
    /// layered count when the session's plan covers every query
    /// (integer counts are query-independent, so sharing is exact),
    /// per-query counts otherwise.
    fn count_into_taus(&self, e: Edge, ctx: QueryCtx<'_>, sign: i64) {
        let QueryCtx { queries, scratch, plan } = ctx;
        match plan {
            Some(plan) => {
                let counts = plan.levels().count_completed(&self.adj, e, scratch);
                for (j, q) in queries.iter_mut().enumerate() {
                    q.tau += sign * counts[plan.level_of(j)] as i64;
                }
            }
            None => {
                for q in queries.iter_mut() {
                    q.tau += sign * q.pattern.count_completed(&self.adj, e, scratch) as i64;
                }
            }
        }
    }

    fn add_to_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        self.count_into_taus(e, ctx, 1);
        self.adj.insert(e);
    }

    fn remove_from_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        self.adj.remove(e);
        self.count_into_taus(e, ctx, -1);
    }
}

impl EdgeSampler for TriestSampler {
    fn process(&mut self, ev: EdgeEvent, mut ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => match self.reservoir.offer(ev.edge, &mut self.rng) {
                Admission::Added => self.add_to_sample(ev.edge, ctx),
                Admission::Replaced(victim) => {
                    self.remove_from_sample(victim, ctx.reborrow());
                    self.add_to_sample(ev.edge, ctx);
                }
                Admission::Skipped => {}
            },
            Op::Delete => {
                if self.reservoir.delete(ev.edge) {
                    self.remove_from_sample(ev.edge, ctx);
                }
            }
        }
    }

    /// Batched path. Random pairing draws a data-dependent number of
    /// variates per offer, so draws cannot be hoisted wholesale — but
    /// the *fill phase* (free slots, no uncompensated deletions) admits
    /// every offer without touching the RNG. Insertion runs inside that
    /// phase are resolved as one run up front: the per-edge loop only
    /// touches τ and the adjacency, then one
    /// [`RpReservoir::admit_run`] admits the whole run (nothing inside
    /// the run reads the reservoir, so the deferral is exact).
    /// Everything else falls through to the per-event logic, keeping
    /// the estimates and RNG stream bit-identical to sequential
    /// processing.
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        crate::algorithms::rp_fill_batch!(self, batch, ctx, |e| {
            self.add_to_sample(e, ctx.reborrow());
        });
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        let m = query.pattern.num_edges() as u64;
        let s = self.reservoir.len() as u64;
        let n = self.reservoir.population();
        if s < m {
            return 0.0;
        }
        // κ = Π (s-i)/(n-i); s ≤ n always, so κ ∈ (0, 1].
        let mut kappa = 1.0;
        for i in 0..m {
            kappa *= (s - i) as f64 / (n - i) as f64;
        }
        query.tau as f64 / kappa
    }

    /// τ is *exactly* the number of pattern instances inside the current
    /// sample, so a warm start recounts them statically — an attached
    /// query is indistinguishable from one that tracked the sample from
    /// event 0.
    fn warm_start(&self, query: &mut PatternQuery, _scratch: &mut EnumScratch) {
        query.estimate = 0.0;
        query.tau = wsd_graph::exact::count_static(query.pattern, &self.adj) as i64;
    }

    fn stored_edges(&self) -> usize {
        self.reservoir.len()
    }

    fn name(&self) -> &str {
        "Triest"
    }

    fn assert_capacity_for(&self, pattern: Pattern) {
        assert!(
            self.reservoir.capacity() >= pattern.num_edges(),
            "reservoir capacity M = {} must be ≥ |H| = {} of {}",
            self.reservoir.capacity(),
            pattern.num_edges(),
            pattern.name()
        );
    }

    fn snapshot_state(&self) -> SamplerState {
        let (edges, d_in, d_out, population) = self.reservoir.snapshot_state();
        SamplerState::Rp {
            reservoir: RpState { edges, d_in, d_out, population },
            adj: self.adj.layout_snapshot(),
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::Rp { reservoir, adj, rng } = state else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.reservoir.restore_state(
            &reservoir.edges,
            reservoir.d_in,
            reservoir.d_out,
            reservoir.population,
        );
        self.adj = VertexAdjacency::from_layout(adj);
        self.rng = SmallRng::from_state(*rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::SingleQuery;

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn exact_when_sample_holds_everything() {
        let mut c = SingleQuery::new(Pattern::Triangle, TriestSampler::new(100, 1));
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4), ins(2, 4)] {
            c.process(ev);
        }
        // s == n → κ = 1, τ exact: triangles {1,2,3} and {2,3,4}.
        assert_eq!(c.query.tau, 2);
        assert_eq!(c.estimate(), 2.0);
        c.process(del(2, 3));
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn estimate_zero_below_pattern_size() {
        let mut c = SingleQuery::new(Pattern::Triangle, TriestSampler::new(10, 2));
        c.process(ins(1, 2));
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn capacity_respected_and_tau_consistent() {
        let mut c = SingleQuery::new(Pattern::Triangle, TriestSampler::new(16, 3));
        // A clique stream guarantees plenty of triangles.
        for a in 0..12u64 {
            for b in (a + 1)..12 {
                c.process(ins(a, b));
                assert!(c.stored_edges() <= 16);
            }
        }
        // τ must equal the exact triangle count of the sampled graph.
        let recount = wsd_graph::exact::count_static(Pattern::Triangle, c.sampled_graph()) as i64;
        assert_eq!(c.query.tau, recount);
        assert!(c.estimate() > 0.0);
    }

    #[test]
    fn deletion_of_unsampled_edge_keeps_tau() {
        let mut c = SingleQuery::new(Pattern::Triangle, TriestSampler::new(3, 4));
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                c.process(ins(a, b));
            }
        }
        // Delete edges until one is certainly unsampled (capacity 3 of 15).
        let tau_validity = |c: &SingleQuery<TriestSampler>| {
            wsd_graph::exact::count_static(Pattern::Triangle, c.sampled_graph()) as i64
                == c.query.tau
        };
        assert!(tau_validity(&c));
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                c.process(del(a, b));
                assert!(tau_validity(&c));
            }
        }
        assert_eq!(c.stored_edges(), 0);
        assert_eq!(c.query.tau, 0);
    }

    #[test]
    fn name_and_pattern() {
        let c = SingleQuery::new(Pattern::FourClique, TriestSampler::new(10, 5));
        assert_eq!(c.name(), "Triest");
        assert_eq!(c.query.pattern(), Pattern::FourClique);
    }
}
