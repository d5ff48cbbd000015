//! Edge-ID recycling under churn: the arena-backed WSD data path vs a
//! reference hash-map implementation.
//!
//! The production `WeightedSample` stores metadata in dense arrays
//! indexed by recycled arena edge IDs, with a lazily τ-stamped `1/p`
//! cache; the reservoir heap is keyed by those IDs. This test drives
//! heavy insert/delete interleavings — including re-insertion of
//! previously deleted edges, which is exactly what recycles IDs into new
//! tenants — against a from-scratch reference WSD that keeps metadata in
//! an `Edge`-keyed hash map, evaluates every inclusion probability from
//! first principles (no cache), and scans linearly for the minimum rank
//! (no heap). After *every* event the two estimates must agree to the
//! bit: any stale-slot leak (a recycled ID serving its previous tenant's
//! weight, time, or cached `1/p`) or heap/ID desynchronisation shows up
//! as a divergence.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_core::rank::{draw_u, inclusion_prob, rank};
use wsd_core::{Algorithm, SessionBuilder};
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Adjacency, Edge, EdgeEvent, FxHashMap, Pattern};

/// Reference WSD-H: Algorithm 1 + 2 with `Edge`-keyed hash-map metadata,
/// no `1/p` caching, no indexed heap. Mirrors the production sampler's
/// RNG protocol (one `u` per insertion) and floating-point evaluation
/// order (partners multiplied in enumeration order), so estimates must
/// be bit-identical — slower by design, trustworthy by construction.
struct RefWsd {
    pattern: Pattern,
    capacity: usize,
    /// Reservoir entries `(edge, rank)`; minimum found by linear scan.
    entries: Vec<(Edge, f64)>,
    /// `Edge` → (weight, arrival time).
    meta: FxHashMap<Edge, (f64, u64)>,
    adj: Adjacency,
    tau_p: f64,
    tau_q: f64,
    estimate: f64,
    t: u64,
    scratch: EnumScratch,
    rng: SmallRng,
}

impl RefWsd {
    fn new(pattern: Pattern, capacity: usize, seed: u64) -> Self {
        Self {
            pattern,
            capacity,
            entries: Vec::new(),
            meta: FxHashMap::default(),
            adj: Adjacency::new(),
            tau_p: 0.0,
            tau_q: 0.0,
            estimate: 0.0,
            t: 0,
            scratch: EnumScratch::default(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Estimator mass and completed-instance count for `e` against the
    /// current sample, every `1/p` computed fresh from the hash map.
    fn mass(&mut self, e: Edge) -> (f64, u64) {
        let adj = &self.adj;
        let meta = &self.meta;
        let tau = self.tau_q;
        let mut mass = 0.0;
        let mut instances = 0u64;
        self.pattern.for_each_completed(adj, e, &mut self.scratch, |partners: &[_]| {
            let mut prod = 1.0;
            for &p in partners {
                let pe = adj.edge_endpoints(p);
                let (w, _) = meta[&pe];
                prod *= 1.0 / inclusion_prob(w, tau);
            }
            mass += prod;
            instances += 1;
        });
        (mass, instances)
    }

    fn min_entry(&self) -> usize {
        let mut best = 0;
        for i in 1..self.entries.len() {
            if self.entries[i].1.total_cmp(&self.entries[best].1).is_lt() {
                best = i;
            }
        }
        best
    }

    fn admit(&mut self, e: Edge, w: f64, r: f64) {
        self.entries.push((e, r));
        self.meta.insert(e, (w, self.t));
        self.adj.insert(e);
    }

    fn process(&mut self, ev: EdgeEvent) {
        match ev.op {
            wsd_graph::Op::Insert => {
                let e = ev.edge;
                let u = draw_u(&mut self.rng);
                let (mass, instances) = self.mass(e);
                self.estimate += mass;
                let w = 9.0 * instances as f64 + 1.0; // WSD-H heuristic
                let r = rank(w, u);
                if self.entries.len() < self.capacity {
                    if r > self.tau_p {
                        self.admit(e, w, r);
                    }
                } else {
                    let min = self.min_entry();
                    self.tau_p = self.entries[min].1;
                    if r > self.tau_p {
                        let (victim, _) = self.entries.swap_remove(min);
                        self.meta.remove(&victim);
                        self.adj.remove(victim);
                        self.admit(e, w, r);
                        self.tau_q = self.tau_p;
                    } else if r > self.tau_q {
                        self.tau_q = r;
                    }
                }
            }
            wsd_graph::Op::Delete => {
                let e = ev.edge;
                if self.meta.remove(&e).is_some() {
                    let i = self.entries.iter().position(|&(x, _)| x == e).expect("in sync");
                    self.entries.swap_remove(i);
                    self.adj.remove(e);
                }
                let (mass, _) = self.mass(e);
                self.estimate -= mass;
            }
        }
        self.t += 1;
    }
}

/// Turns raw op intents into a *feasible* stream (no duplicate inserts,
/// no deletes of absent edges) over a small vertex universe, so churn —
/// including re-insertion of previously deleted edges — is heavy.
fn feasible_stream(ops: Vec<(bool, u64, u64)>) -> Vec<EdgeEvent> {
    let mut live = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(ops.len());
    for (insert, a, b) in ops {
        let Some(e) = Edge::try_new(a, b) else { continue };
        if insert {
            if live.insert(e) {
                out.push(EdgeEvent::insert(e));
            }
        } else if live.remove(&e) {
            out.push(EdgeEvent::delete(e));
        }
    }
    out
}

fn assert_bit_identical(pattern: Pattern, capacity: usize, seed: u64, stream: &[EdgeEvent]) {
    let mut arena = SessionBuilder::new(Algorithm::WsdH, capacity, seed).query(pattern).build();
    let (q, _) = arena.queries().next().unwrap();
    let mut reference = RefWsd::new(pattern, capacity, seed);
    for (i, &ev) in stream.iter().enumerate() {
        arena.process(ev);
        reference.process(ev);
        assert_eq!(
            arena.estimate(q).to_bits(),
            reference.estimate.to_bits(),
            "estimates diverged at event {i} ({ev:?}): arena {:?}, reference {:?}",
            arena.estimate(q),
            reference.estimate
        );
        assert_eq!(arena.stored_edges(), reference.entries.len(), "sample size diverged at {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Triangle counting, tiny reservoir: constant eviction + deletion
    /// churn recycles edge IDs aggressively.
    #[test]
    fn prop_arena_matches_hashmap_reference_triangles(
        ops in proptest::collection::vec((any::<bool>(), 0u64..14, 0u64..14), 0..400),
        seed in 0u64..64,
    ) {
        let stream = feasible_stream(ops);
        assert_bit_identical(Pattern::Triangle, 8, seed, &stream);
    }

    /// 4-clique counting: 5 partners per instance exercise the multi-read
    /// inner loop (and the τ-epoch cache) per recycled slot.
    #[test]
    fn prop_arena_matches_hashmap_reference_four_cliques(
        ops in proptest::collection::vec((any::<bool>(), 0u64..10, 0u64..10), 0..300),
        seed in 0u64..64,
    ) {
        let stream = feasible_stream(ops);
        assert_bit_identical(Pattern::FourClique, 10, seed, &stream);
    }

    /// Deletion-heavy regime: deletes drawn three times as often as
    /// inserts land, maximising re-insertion of previously deleted edges.
    #[test]
    fn prop_arena_matches_reference_under_reinsertion_waves(
        rounds in proptest::collection::vec((0u64..8, 0u64..8), 0..120),
        seed in 0u64..32,
    ) {
        // Build explicit insert→delete→re-insert waves per edge.
        let mut ops = Vec::new();
        for (a, b) in rounds {
            ops.push((true, a, b));
            ops.push((false, a, b));
            ops.push((true, a, b));
        }
        let stream = feasible_stream(ops);
        assert_bit_identical(Pattern::Triangle, 6, seed, &stream);
    }
}
