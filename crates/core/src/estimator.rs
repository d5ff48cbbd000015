//! The shared estimator kernel of the weighted samplers.
//!
//! Algorithm 2 (and its GPS/GPS-A analogues) updates the running count on
//! *every* event: enumerate the pattern instances the event's edge
//! completes (insertion) or destroys (deletion) against the sampled
//! graph, and add/subtract per instance the product of inverse inclusion
//! probabilities of the instance's sampled partner edges,
//!
//! ```text
//! Δc = Σ_J  Π_{e ∈ J \ e_t}  1 / P[r(e) > τ]   with  P = min(1, w(e)/τ).
//! ```
//!
//! The same enumeration pass feeds the RL state accumulator (|H_k| and
//! the temporal block of Eq. 19–22), so state extraction costs no second
//! enumeration.
//!
//! Partner edges arrive from the enumeration kernel as dense arena IDs,
//! so the inner loop is hash-free: one `1/p` read (lazily τ-stamped,
//! see [`crate::sampled_graph::WeightedSample`]) and — when the state
//! accumulator rides along — one arrival-time read per partner, both
//! plain array accesses against the same resolved ID.
//!
//! # Two kernels, one contract
//!
//! The mass accumulation runs in one of two [`MassKernel`]s:
//!
//! * [`MassKernel::Scalar`] — one fused loop per instance, straight off
//!   `Pattern::for_each_completed` (the pre-batching hot path, retained
//!   as the reference implementation and the `--no-default-features`
//!   build default);
//! * [`MassKernel::Lanes`] — instances arrive four at a time in
//!   [`InstanceBlock`]s (`Pattern::for_each_completed_blocks`); a prime
//!   pass runs the τ-stamp checks and epoch-cache fills for the whole
//!   block, then the `Π 1/p` products of all four lanes are chewed
//!   through row-by-row with branch-free, bounds-check-free reads —
//!   portable chunked code the compiler autovectorizes to 4-wide f64
//!   arithmetic. Patterns whose instances are too wide for a block
//!   (generic cliques of order ≥ 5, see `Pattern::block_width`) fall
//!   back to the scalar loop.
//!
//! Both kernels are always compiled; the `simd` feature (default on)
//! only selects [`MassKernel::build_default`]. They are **bit-identical
//! by construction**: each lane holds one instance, whose product is
//! evaluated in the same left-associated partner order as the scalar
//! loop (`1.0 * i1 * ... * ik`; lane padding of partial blocks is never
//! summed), cross-instance sums accumulate in emission order, and the
//! cached `1/p` values are produced by exactly the uncached expression.
//! The golden-value tests and the scalar/SIMD differential harness pin
//! this equivalence.

use crate::sampled_graph::{MetaView, WeightedSample};
use crate::state::StateAccumulator;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, InstanceBlock, LayeredLevels, Pattern, BLOCK_LANES};

/// Which estimator mass-accumulation kernel a session runs.
///
/// Both kernels produce bit-identical estimates (the differential test
/// harness and the golden pins enforce it); `Lanes` is faster on
/// instance-heavy events. Selectable per session via
/// `SessionBuilder::with_mass_kernel`, mostly so the differential tests
/// can pit the two against each other inside one binary.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MassKernel {
    /// Per-instance accumulation, one fused loop per pattern.
    Scalar,
    /// Lane-batched accumulation over 4-instance [`InstanceBlock`]s with
    /// a vectorizable product pass; falls back to `Scalar` for patterns
    /// too wide to block (generic cliques of order ≥ 5).
    Lanes,
}

impl MassKernel {
    /// The build's default kernel: [`MassKernel::Lanes`] when the `simd`
    /// feature is enabled (the default), [`MassKernel::Scalar`]
    /// otherwise.
    pub fn build_default() -> Self {
        if cfg!(feature = "simd") {
            MassKernel::Lanes
        } else {
            MassKernel::Scalar
        }
    }
}

impl Default for MassKernel {
    fn default() -> Self {
        Self::build_default()
    }
}

/// The per-event output of [`weighted_mass`]: the estimator mass, the
/// number of completed instances `|H_k|` (a free by-product of the
/// enumeration; the heuristic weight `9·|H_k| + 1` consumes it without
/// needing the full state), and the endpoint degrees in the sampled
/// graph.
pub(crate) struct MassUpdate {
    /// `Σ_J Π 1/p` over the completed instances.
    pub mass: f64,
    /// Number of completed instances.
    pub instances: u64,
    /// Degree of `e.u()` in the sampled graph.
    pub deg_u: usize,
    /// Degree of `e.v()` in the sampled graph.
    pub deg_v: usize,
}

/// Computes the estimator mass `Σ_J Π 1/p` for the instances completed
/// by `e` against `sample` (which must not contain `e`), using threshold
/// `tau` for inclusion probabilities. If `acc` is provided, each
/// instance's partner arrival times are recorded with the current event
/// time `now`.
///
/// The endpoint degrees ride along in the result — enumeration resolves
/// both neighbourhoods anyway, so the state extraction gets them without
/// two further hash probes — as does the completed-instance count.
///
/// `sample` is mutable only for the lazy `1/p` cache; the sample's
/// content is untouched.
pub(crate) fn weighted_mass(
    kernel: MassKernel,
    pattern: Pattern,
    sample: &mut WeightedSample,
    e: Edge,
    tau: f64,
    scratch: &mut EnumScratch,
    acc: Option<(&mut StateAccumulator, u64)>,
) -> MassUpdate {
    debug_assert!(!sample.contains(e), "estimator edge must not be sampled");
    let (adj, mut meta) = sample.estimator_view(tau);
    let mut mass = 0.0;
    let mut instances = 0u64;
    if tau <= 0.0 {
        // Fill-phase fast path: `τ = 0` makes every inclusion
        // probability exactly 1, so each instance contributes exactly
        // 1.0 (the scalar product of 1.0s) and the `1/p` reads can be
        // skipped wholesale — later τ-stamped reads recompute the same
        // values lazily. Partner arrival times are still streamed into
        // the accumulator when one rides along.
        let (deg_u, deg_v) = match acc {
            Some((acc, now)) => pattern.for_each_completed(adj, e, scratch, |partners| {
                acc.begin_instance(now);
                for &p in partners {
                    acc.push_partner_time(meta.time(p));
                }
                acc.commit_instance();
                instances += 1;
                mass += 1.0;
            }),
            None => pattern.for_each_completed(adj, e, scratch, |partners| {
                let _ = partners;
                instances += 1;
                mass += 1.0;
            }),
        };
        return MassUpdate { mass, instances, deg_u, deg_v };
    }
    // Width-1 fast path: a wedge instance's "product" is a single
    // `1/p`, so the lane/scalar machinery below (block fills, cache
    // priming, unit-product chains) is pure overhead — fold the partner
    // IDs directly. Same instances, same emission order, and
    // `1.0 * x == x` bitwise, so both kernels' sums are unchanged.
    if matches!(pattern, Pattern::Wedge) && acc.is_none() {
        let (deg_u, deg_v) = Pattern::for_each_wedge_partner(adj, e, |id| {
            instances += 1;
            mass += meta.inv_p(id);
        });
        return MassUpdate { mass, instances, deg_u, deg_v };
    }
    // Kernel and accumulator are resolved *outside* the enumeration so
    // each arm hands the kernel a closure with no per-instance branching
    // left. `Lanes` needs a blockable pattern; wider patterns share the
    // scalar arms.
    let (deg_u, deg_v) = match (kernel, acc) {
        (MassKernel::Lanes, acc) if pattern.block_width().is_some() => match acc {
            Some((acc, now)) => pattern.for_each_completed_blocks(adj, e, scratch, |block| {
                instances += block.len() as u64;
                if block.len() == BLOCK_LANES {
                    let prod = lane_products(&mut meta, block);
                    for (lane, &p) in prod.iter().enumerate() {
                        acc.begin_instance(now);
                        for j in 0..block.width() {
                            acc.push_partner_time(meta.time(block.id(j, lane)));
                        }
                        acc.commit_instance();
                        mass += p;
                    }
                } else {
                    // Partial tail: per-lane scalar chains — sparse
                    // events pay nothing for empty lanes.
                    for lane in 0..block.len() {
                        let mut prod = 1.0;
                        acc.begin_instance(now);
                        for j in 0..block.width() {
                            let (inv_p, time) = meta.inv_p_time(block.id(j, lane));
                            prod *= inv_p;
                            acc.push_partner_time(time);
                        }
                        acc.commit_instance();
                        mass += prod;
                    }
                }
            }),
            None => pattern.for_each_completed_blocks(adj, e, scratch, |block| {
                instances += block.len() as u64;
                if block.len() == BLOCK_LANES {
                    let prod = lane_products(&mut meta, block);
                    for &p in &prod {
                        mass += p;
                    }
                } else {
                    for lane in 0..block.len() {
                        let mut prod = 1.0;
                        for j in 0..block.width() {
                            prod *= meta.inv_p(block.id(j, lane));
                        }
                        mass += prod;
                    }
                }
            }),
        },
        (_, Some((acc, now))) => pattern.for_each_completed(adj, e, scratch, |partners| {
            let mut prod = 1.0;
            acc.begin_instance(now);
            for &p in partners {
                let (inv_p, time) = meta.inv_p_time(p);
                prod *= inv_p;
                acc.push_partner_time(time);
            }
            acc.commit_instance();
            instances += 1;
            mass += prod;
        }),
        (_, None) => pattern.for_each_completed(adj, e, scratch, |partners| {
            let mut prod = 1.0;
            for &p in partners {
                prod *= meta.inv_p(p);
            }
            instances += 1;
            mass += prod;
        }),
    };
    MassUpdate { mass, instances, deg_u, deg_v }
}

/// The per-event output of [`layered_weighted_mass`]: per-level masses
/// and instance counts (indexed by [`LayeredLevels`] level constants;
/// inactive levels stay 0), plus the endpoint degrees.
pub(crate) struct LayeredMassUpdate {
    /// `Σ_J Π 1/p` per level.
    pub mass: [f64; LayeredLevels::COUNT],
    /// Completed instances per level.
    pub instances: [u64; LayeredLevels::COUNT],
    /// Degree of `e.u()` in the sampled graph.
    pub deg_u: usize,
    /// Degree of `e.v()` in the sampled graph.
    pub deg_v: usize,
}

/// Layered analogue of [`weighted_mass`]: one enumeration pass over the
/// active `levels`, accumulating each level's mass independently — the
/// session's shared mass pass feeding every nested query at its level.
/// When `acc` rides along it records partner times only for instances
/// of its level (`acc.0`), exactly as the fused weight-pattern pass
/// does.
///
/// Bit-identity with per-pattern [`weighted_mass`] calls holds arm by
/// arm: the layered kernel emits each level in the per-pattern order,
/// per-level sums start from 0.0, every lane/partial/scalar chain is
/// the same left-associated product, and the lazy `1/p` cache is
/// idempotent within an event (same τ ⇒ same epoch ⇒ same values no
/// matter which pass fills them).
pub(crate) fn layered_weighted_mass(
    kernel: MassKernel,
    levels: LayeredLevels,
    sample: &mut WeightedSample,
    e: Edge,
    tau: f64,
    scratch: &mut EnumScratch,
    acc: Option<(usize, &mut StateAccumulator, u64)>,
) -> LayeredMassUpdate {
    debug_assert!(!sample.contains(e), "estimator edge must not be sampled");
    let (adj, mut meta) = sample.estimator_view(tau);
    let mut mass = [0.0f64; LayeredLevels::COUNT];
    let mut instances = [0u64; LayeredLevels::COUNT];
    if tau <= 0.0 {
        // Fill-phase fast path, mirrored from `weighted_mass`: every
        // inclusion probability is exactly 1, so each instance
        // contributes 1.0 and the `1/p` reads are skipped; partner
        // times still stream into the accumulator at its level.
        let (deg_u, deg_v) = match acc {
            Some((acc_level, acc, now)) => {
                levels.for_each_completed(adj, e, scratch, |level, partners| {
                    if level == acc_level {
                        acc.begin_instance(now);
                        for &p in partners {
                            acc.push_partner_time(meta.time(p));
                        }
                        acc.commit_instance();
                    }
                    instances[level] += 1;
                    mass[level] += 1.0;
                })
            }
            None => levels.for_each_completed(adj, e, scratch, |level, partners| {
                let _ = partners;
                instances[level] += 1;
                mass[level] += 1.0;
            }),
        };
        return LayeredMassUpdate { mass, instances, deg_u, deg_v };
    }
    // Wedge-level fast path, mirrored from `weighted_mass`: a width-1
    // instance folds its single `1/p` directly, skipping the block
    // machinery. The wedge level is emitted first, so running it ahead
    // of the remaining levels preserves the global emission order — and
    // `1.0 * x == x` bitwise keeps the per-level sums unchanged.
    // Skipped when the accumulator rides at the wedge level: that arm
    // needs the partner times too.
    let mut remaining = levels;
    let mut wedge_degs = None;
    if remaining.wedge && !matches!(&acc, Some((level, _, _)) if *level == LayeredLevels::WEDGE) {
        remaining.wedge = false;
        wedge_degs = Some(Pattern::for_each_wedge_partner(adj, e, |id| {
            instances[LayeredLevels::WEDGE] += 1;
            mass[LayeredLevels::WEDGE] += meta.inv_p(id);
        }));
    }
    if remaining.is_empty() {
        if let Some((deg_u, deg_v)) = wedge_degs {
            return LayeredMassUpdate { mass, instances, deg_u, deg_v };
        }
    }
    // Every layered level is blockable (widths 1/2/5 ≤ MAX_BLOCK_WIDTH),
    // so the Lanes arm needs no width fallback.
    let (deg_u, deg_v) = match (kernel, acc) {
        (MassKernel::Lanes, mut acc) => {
            remaining.for_each_completed_blocks(adj, e, scratch, |level, block| {
                instances[level] += block.len() as u64;
                let acc_here = match &mut acc {
                    Some((acc_level, acc, now)) if *acc_level == level => Some((&mut **acc, *now)),
                    _ => None,
                };
                match acc_here {
                    Some((acc, now)) => {
                        if block.len() == BLOCK_LANES {
                            let prod = lane_products(&mut meta, block);
                            for (lane, &p) in prod.iter().enumerate() {
                                acc.begin_instance(now);
                                for j in 0..block.width() {
                                    acc.push_partner_time(meta.time(block.id(j, lane)));
                                }
                                acc.commit_instance();
                                mass[level] += p;
                            }
                        } else {
                            for lane in 0..block.len() {
                                let mut prod = 1.0;
                                acc.begin_instance(now);
                                for j in 0..block.width() {
                                    let (inv_p, time) = meta.inv_p_time(block.id(j, lane));
                                    prod *= inv_p;
                                    acc.push_partner_time(time);
                                }
                                acc.commit_instance();
                                mass[level] += prod;
                            }
                        }
                    }
                    None => {
                        if block.len() == BLOCK_LANES {
                            let prod = lane_products(&mut meta, block);
                            for &p in &prod {
                                mass[level] += p;
                            }
                        } else {
                            for lane in 0..block.len() {
                                let mut prod = 1.0;
                                for j in 0..block.width() {
                                    prod *= meta.inv_p(block.id(j, lane));
                                }
                                mass[level] += prod;
                            }
                        }
                    }
                }
            })
        }
        (MassKernel::Scalar, Some((acc_level, acc, now))) => {
            remaining.for_each_completed(adj, e, scratch, |level, partners| {
                let mut prod = 1.0;
                if level == acc_level {
                    acc.begin_instance(now);
                    for &p in partners {
                        let (inv_p, time) = meta.inv_p_time(p);
                        prod *= inv_p;
                        acc.push_partner_time(time);
                    }
                    acc.commit_instance();
                } else {
                    for &p in partners {
                        prod *= meta.inv_p(p);
                    }
                }
                instances[level] += 1;
                mass[level] += prod;
            })
        }
        (MassKernel::Scalar, None) => {
            remaining.for_each_completed(adj, e, scratch, |level, partners| {
                let mut prod = 1.0;
                for &p in partners {
                    prod *= meta.inv_p(p);
                }
                instances[level] += 1;
                mass[level] += prod;
            })
        }
    };
    LayeredMassUpdate { mass, instances, deg_u, deg_v }
}

/// The vectorizable heart of [`MassKernel::Lanes`]: the `Π 1/p` products
/// of one **full** block's four instance lanes (callers route partial
/// tail blocks through per-lane scalar chains instead).
///
/// Phase 1 primes the τ-epoch cache for every referenced ID (the only
/// branchy part, hoisted out of the arithmetic); phase 2 multiplies
/// row-by-row — four independent f64 chains updated with contiguous
/// lane loads, which the compiler packs into vector registers. Each
/// lane's chain multiplies its partners in emission order starting from
/// 1.0, exactly the scalar kernel's left-associated product, so lane
/// results are bit-identical to per-instance evaluation.
#[inline]
fn lane_products(meta: &mut MetaView<'_>, block: &InstanceBlock) -> [f64; BLOCK_LANES] {
    debug_assert_eq!(block.len(), BLOCK_LANES);
    for j in 0..block.width() {
        meta.prime(block.lane_ids(j));
    }
    let mut prod = [1.0f64; BLOCK_LANES];
    for j in 0..block.width() {
        let row = block.lane_ids(j);
        for (p, &id) in prod.iter_mut().zip(row) {
            // SAFETY: every lane of a full block holds a live edge ID,
            // primed just above.
            *p *= unsafe { meta.inv_p_primed(id) };
        }
    }
    prod
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled_graph::EdgeMeta;
    use crate::state::{StateAccumulator, TemporalPooling};

    fn sample_with(edges: &[(u64, u64, f64, u64)]) -> WeightedSample {
        let mut s = WeightedSample::new();
        for &(a, b, weight, time) in edges {
            s.insert(Edge::new(a, b), EdgeMeta { weight, time });
        }
        s
    }

    const KERNELS: [MassKernel; 2] = [MassKernel::Scalar, MassKernel::Lanes];

    #[test]
    fn mass_is_product_of_inverse_probabilities() {
        for kernel in KERNELS {
            // Triangle 1-2-3 closing edge (1,3); partners (1,2) w=2, (2,3) w=4.
            let mut s = sample_with(&[(1, 2, 2.0, 0), (2, 3, 4.0, 1)]);
            let mut scratch = EnumScratch::default();
            // τ = 8 → p(1,2) = 2/8 = .25, p(2,3) = 4/8 = .5 → mass = 4 * 2 = 8.
            let m = weighted_mass(
                kernel,
                Pattern::Triangle,
                &mut s,
                Edge::new(1, 3),
                8.0,
                &mut scratch,
                None,
            );
            assert_eq!(m.mass, 8.0, "{kernel:?}");
            assert_eq!(m.instances, 1);
            assert_eq!((m.deg_u, m.deg_v), (1, 1), "degrees ride along with the mass");
            // τ = 0 → all probabilities 1 → mass = 1 per instance.
            let m = weighted_mass(
                kernel,
                Pattern::Triangle,
                &mut s,
                Edge::new(1, 3),
                0.0,
                &mut scratch,
                None,
            );
            assert_eq!(m.mass, 1.0, "{kernel:?}");
            // Back to τ = 8: the epoch moves again, the cache must not serve
            // the τ = 0 values.
            let m = weighted_mass(
                kernel,
                Pattern::Triangle,
                &mut s,
                Edge::new(1, 3),
                8.0,
                &mut scratch,
                None,
            );
            assert_eq!(m.mass, 8.0, "{kernel:?}");
        }
    }

    #[test]
    fn accumulator_sees_every_instance() {
        for kernel in KERNELS {
            // Two triangles closed by (1,2): via 3 and via 4.
            let mut s =
                sample_with(&[(1, 3, 1.0, 10), (2, 3, 1.0, 11), (1, 4, 1.0, 12), (2, 4, 1.0, 13)]);
            let mut scratch = EnumScratch::default();
            let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
            let m = weighted_mass(
                kernel,
                Pattern::Triangle,
                &mut s,
                Edge::new(1, 2),
                0.0,
                &mut scratch,
                Some((&mut acc, 20)),
            );
            assert_eq!(m.mass, 2.0, "{kernel:?}");
            assert_eq!(m.instances, 2);
            assert_eq!((m.deg_u, m.deg_v), (2, 2));
            assert_eq!(acc.instances(), 2);
            let state = acc.finish(2, 2);
            // Sorted times: (10,11,20) and (12,13,20); max per position.
            assert_eq!(state.values(), &[2.0, 2.0, 2.0, 12.0, 13.0, 20.0], "{kernel:?}");
        }
    }

    #[test]
    fn no_instances_no_mass() {
        for kernel in KERNELS {
            let mut s = sample_with(&[(5, 6, 1.0, 0)]);
            let mut scratch = EnumScratch::default();
            let m = weighted_mass(
                kernel,
                Pattern::Triangle,
                &mut s,
                Edge::new(1, 2),
                0.0,
                &mut scratch,
                None,
            );
            assert_eq!(m.mass, 0.0, "{kernel:?}");
            assert_eq!(m.instances, 0);
        }
    }

    /// Enough instances for full + partial blocks, with non-trivial
    /// probabilities: both kernels must agree to the bit, state included.
    #[test]
    fn kernels_agree_bitwise_on_multi_block_events() {
        // Star closure: (1, 20) completes 9 triangles via 11..=19.
        let mut edges = Vec::new();
        for (i, w) in (11..=19u64).enumerate() {
            edges.push((1, w, 1.5 + i as f64, 2 * i as u64));
            edges.push((20, w, 4.0 - 0.3 * i as f64, 2 * i as u64 + 1));
        }
        for tau in [0.0, 2.0, 64.0] {
            let mut results = Vec::new();
            for kernel in KERNELS {
                let mut s = sample_with(&edges);
                let mut scratch = EnumScratch::default();
                let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
                let m = weighted_mass(
                    kernel,
                    Pattern::Triangle,
                    &mut s,
                    Edge::new(1, 20),
                    tau,
                    &mut scratch,
                    Some((&mut acc, 99)),
                );
                results.push((m.mass.to_bits(), m.instances, m.deg_u, m.deg_v, acc.finish(9, 9)));
            }
            assert_eq!(results[0], results[1], "kernel divergence at tau {tau}");
            assert_eq!(results[0].1, 9);
        }
    }

    /// Patterns too wide to block (`block_width() == None`) must run —
    /// the Lanes kernel falls back to the scalar loop.
    #[test]
    fn lanes_kernel_serves_wide_patterns_via_fallback() {
        // K5 minus (1,5): adding it completes one 5-clique (9 partners).
        let mut edges = Vec::new();
        for a in 1..=5u64 {
            for b in (a + 1)..=5 {
                if (a, b) != (1, 5) {
                    edges.push((a, b, 2.0, a + b));
                }
            }
        }
        let mut s = sample_with(&edges);
        let mut scratch = EnumScratch::default();
        let m = weighted_mass(
            MassKernel::Lanes,
            Pattern::Clique(5),
            &mut s,
            Edge::new(1, 5),
            4.0,
            &mut scratch,
            None,
        );
        assert_eq!(m.instances, 1);
        assert_eq!(m.mass, 2.0f64.powi(9)); // p = 1/2 per partner
    }

    /// The layered mass pass must match per-pattern passes to the bit —
    /// per level, per kernel, per τ, with and without the accumulator.
    #[test]
    fn layered_mass_matches_per_pattern_passes_bitwise() {
        // Hub closure (1,20): wedges at both endpoints, 9 triangles via
        // 11..=19, and a few 4-cliques via the chords among 11..13.
        let mut edges = Vec::new();
        for (i, w) in (11..=19u64).enumerate() {
            edges.push((1, w, 1.5 + i as f64, 2 * i as u64));
            edges.push((20, w, 4.0 - 0.3 * i as f64, 2 * i as u64 + 1));
        }
        edges.push((11, 12, 2.5, 40));
        edges.push((11, 13, 3.5, 41));
        edges.push((12, 13, 1.25, 42));
        let e = Edge::new(1, 20);
        let all = LayeredLevels { wedge: true, triangle: true, four_clique: true };
        let patterns = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        for kernel in KERNELS {
            for tau in [0.0, 2.0, 64.0] {
                // Accumulator on the triangle level, as the fused
                // weight pass runs it.
                let mut s = sample_with(&edges);
                let mut scratch = EnumScratch::default();
                let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
                let m = layered_weighted_mass(
                    kernel,
                    all,
                    &mut s,
                    e,
                    tau,
                    &mut scratch,
                    Some((LayeredLevels::TRIANGLE, &mut acc, 99)),
                );
                for (level, &p) in patterns.iter().enumerate() {
                    let mut s_ref = sample_with(&edges);
                    let mut acc_ref = StateAccumulator::new(3, TemporalPooling::Max);
                    let acc_arg =
                        (level == LayeredLevels::TRIANGLE).then_some((&mut acc_ref, 99u64));
                    let r = weighted_mass(kernel, p, &mut s_ref, e, tau, &mut scratch, acc_arg);
                    assert_eq!(
                        m.mass[level].to_bits(),
                        r.mass.to_bits(),
                        "{kernel:?} τ={tau} level {level}: layered mass diverged"
                    );
                    assert_eq!(m.instances[level], r.instances, "{kernel:?} τ={tau} level {level}");
                    assert_eq!((m.deg_u, m.deg_v), (r.deg_u, r.deg_v), "{kernel:?} τ={tau}");
                    if level == LayeredLevels::TRIANGLE {
                        assert_eq!(
                            acc.finish(m.deg_u, m.deg_v).values(),
                            acc_ref.finish(r.deg_u, r.deg_v).values(),
                            "{kernel:?} τ={tau}: accumulator diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_default_follows_feature() {
        let expect = if cfg!(feature = "simd") { MassKernel::Lanes } else { MassKernel::Scalar };
        assert_eq!(MassKernel::build_default(), expect);
        assert_eq!(MassKernel::default(), expect);
    }
}
