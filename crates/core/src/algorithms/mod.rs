//! The sampling algorithms: the paper's WSD framework, its GPS/GPS-A
//! precursors, and the uniform baselines it compares against.

pub mod gps;
pub mod gps_a;
pub mod thinkd;
pub mod triest;
pub mod wrs;
pub mod wsd;

pub use gps::GpsSampler;
pub use gps_a::GpsASampler;
pub use thinkd::ThinkDSampler;
pub use triest::TriestSampler;
pub use wrs::WrsSampler;
pub use wsd::WsdSampler;

/// How a weighted sampler observes the state on an insertion — resolved
/// once per configuration change (construction / observer install), so
/// the per-event path branches on a plain enum instead of re-querying
/// the boxed weight function.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum WeightMode {
    /// `w = a·|H_k| + b` computed inline — no state buffer, no dynamic
    /// call (the uniform and heuristic weights).
    Affine(f64, f64),
    /// Truncated observation `[|H_k|]` through the dynamic call (custom
    /// functions that read only the instance count, non-affinely).
    Truncated,
    /// Full `|H|+3` state with temporal accumulation (the learned
    /// policy, and any configuration with an insertion observer).
    Full,
}

impl WeightMode {
    /// Resolves the mode for a weight function; an installed observer
    /// forces [`WeightMode::Full`] so observed states are never
    /// truncated.
    pub(crate) fn resolve(weight_fn: &dyn crate::weight::WeightFn, has_observer: bool) -> Self {
        if has_observer || weight_fn.needs_full_state() {
            WeightMode::Full
        } else if let Some((a, b)) = weight_fn.instances_affine() {
            WeightMode::Affine(a, b)
        } else {
            WeightMode::Truncated
        }
    }
}

/// The insertion-observer callback shape shared by
/// [`observe_insertion`] and [`wsd::InsertionObserver`].
pub(crate) type ObserverFn =
    dyn FnMut(wsd_graph::Edge, &crate::state::StateVector, f64) + Send + 'static;

/// The shared insertion-path estimator + weight observation of the
/// weighted samplers (WSD, GPS, GPS-A): runs the mass pass against the
/// pre-update sample under the resolved observation mode, adds the
/// completed mass to `estimate`, and returns the arriving edge's
/// weight. Callers resolve `mode` on configuration changes; an
/// installed `observer` (WSD only) must have forced
/// [`WeightMode::Full`], so a truncated state is never observed.
#[allow(clippy::too_many_arguments)]
// inline(always): this is the first half of every weighted sampler's
// per-insertion path — as a standalone call (it is large, so the plain
// hint was not taken) it measurably cost ~5% on the triangle grid.
#[inline(always)]
pub(crate) fn observe_insertion(
    mode: WeightMode,
    kernel: crate::estimator::MassKernel,
    pattern: wsd_graph::Pattern,
    sample: &mut crate::sampled_graph::WeightedSample,
    e: wsd_graph::Edge,
    tau: f64,
    scratch: &mut wsd_graph::patterns::EnumScratch,
    acc: &mut crate::state::StateAccumulator,
    state_buf: &mut crate::state::StateVector,
    weight_fn: &mut dyn crate::weight::WeightFn,
    now: u64,
    estimate: &mut f64,
    observer: Option<&mut ObserverFn>,
) -> f64 {
    use crate::estimator::weighted_mass;
    if mode == WeightMode::Full {
        acc.reset();
        let m = weighted_mass(kernel, pattern, sample, e, tau, scratch, Some((acc, now)));
        *estimate += m.mass;
        acc.finish_into(m.deg_u, m.deg_v, state_buf);
        let w = weight_fn.weight(state_buf);
        if let Some(obs) = observer {
            obs(e, state_buf, w);
        }
        w
    } else {
        // The weight reads at most |H_k| (a free by-product of the mass
        // pass), so the whole temporal-state accumulation is skipped on
        // the hot path.
        let m = weighted_mass(kernel, pattern, sample, e, tau, scratch, None);
        *estimate += m.mass;
        match mode {
            WeightMode::Affine(a, b) => a * (m.instances as f64) + b,
            _ => {
                state_buf.set_instances_only(m.instances);
                weight_fn.weight(state_buf)
            }
        }
    }
}

/// The insertion-path estimator + weight observation of a weighted
/// sampler serving **N attached queries** from one shared sample.
///
/// The sampler's edge weight is observed on its fixed *weight pattern*:
/// when an attached query counts that same pattern (`fused`), the
/// weight observation rides the query's own mass pass — exactly the
/// single-query path of [`observe_insertion`], which is what keeps
/// one-query sessions on the golden values.
/// Otherwise the weight runs on a sampler-owned pass (or, for weights
/// that ignore the instance count entirely, on no pass at all — the
/// trajectory is the same either way). Every remaining query then adds
/// the mass of the instances the arriving edge completes against the
/// shared pre-update sample.
// inline(always): this wraps the first half of every weighted
// sampler's per-insertion path; as with `observe_insertion` below, a
// standalone call here measurably cost ~5% across the weighted grid
// (BENCH_PR5 pre-fix rounds — the plain hint is not taken, the
// function is large).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn observe_queries(
    mode: WeightMode,
    own_kernel: crate::estimator::MassKernel,
    weight_pattern: wsd_graph::Pattern,
    sample: &mut crate::sampled_graph::WeightedSample,
    e: wsd_graph::Edge,
    tau: f64,
    scratch: &mut wsd_graph::patterns::EnumScratch,
    acc: &mut crate::state::StateAccumulator,
    state_buf: &mut crate::state::StateVector,
    weight_fn: &mut dyn crate::weight::WeightFn,
    now: u64,
    observer: Option<&mut ObserverFn>,
    queries: &mut [crate::session::PatternQuery],
) -> f64 {
    use crate::estimator::weighted_mass;
    let fused = queries.iter().position(|q| q.pattern == weight_pattern);
    let w = match fused {
        Some(i) => {
            let q = &mut queries[i];
            let kernel = q.mass_kernel;
            let pattern = q.pattern;
            observe_insertion(
                mode,
                kernel,
                pattern,
                sample,
                e,
                tau,
                scratch,
                acc,
                state_buf,
                weight_fn,
                now,
                &mut q.estimate,
                observer,
            )
        }
        // `Affine(0, b)` (the uniform weight) ignores the instance count:
        // no query consumes the weight pattern, so no enumeration is
        // needed at all — `w` is the same constant either way.
        None => match mode {
            WeightMode::Affine(0.0, b) => b,
            _ => {
                let mut discard = 0.0;
                observe_insertion(
                    mode,
                    own_kernel,
                    weight_pattern,
                    sample,
                    e,
                    tau,
                    scratch,
                    acc,
                    state_buf,
                    weight_fn,
                    now,
                    &mut discard,
                    observer,
                )
            }
        },
    };
    for (j, q) in queries.iter_mut().enumerate() {
        if Some(j) == fused {
            continue;
        }
        let m = weighted_mass(q.mass_kernel, q.pattern, sample, e, tau, scratch, None);
        q.estimate += m.mass;
    }
    w
}

/// The layered analogue of [`observe_queries`]: when a session's
/// [`LayeredPlan`](crate::session::LayeredPlan) covers every attached
/// query, one wedge→triangle→4-clique pass over the shared pre-update
/// sample produces every level's mass at once, and each query simply
/// adds the mass at its plan level. Per-level emission order is exactly
/// the per-pattern kernels' order and the per-instance inverse-
/// probability products are query-independent, so each query's estimate
/// trajectory stays bit-for-bit the per-query-pass trajectory.
///
/// Callers must only take this path when the weight observation rides a
/// plan level: either a fused query counts the weight pattern, or the
/// weight ignores the instance count entirely (`Affine(0, b)`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn observe_queries_layered(
    mode: WeightMode,
    weight_pattern: wsd_graph::Pattern,
    sample: &mut crate::sampled_graph::WeightedSample,
    e: wsd_graph::Edge,
    tau: f64,
    acc: &mut crate::state::StateAccumulator,
    state_buf: &mut crate::state::StateVector,
    weight_fn: &mut dyn crate::weight::WeightFn,
    now: u64,
    observer: Option<&mut ObserverFn>,
    plan: &crate::session::LayeredPlan,
    queries: &mut [crate::session::PatternQuery],
    scratch: &mut wsd_graph::patterns::EnumScratch,
) -> f64 {
    use crate::estimator::layered_weighted_mass;
    use wsd_graph::LayeredLevels;
    let kernel = queries[0].mass_kernel;
    if mode == WeightMode::Full {
        let wl = LayeredLevels::level_of(weight_pattern)
            .expect("layered observation requires a leveled weight pattern");
        acc.reset();
        let m = layered_weighted_mass(
            kernel,
            plan.levels(),
            sample,
            e,
            tau,
            scratch,
            Some((wl, acc, now)),
        );
        for (j, q) in queries.iter_mut().enumerate() {
            q.estimate += m.mass[plan.level_of(j)];
        }
        acc.finish_into(m.deg_u, m.deg_v, state_buf);
        let w = weight_fn.weight(state_buf);
        if let Some(obs) = observer {
            obs(e, state_buf, w);
        }
        w
    } else {
        let m = layered_weighted_mass(kernel, plan.levels(), sample, e, tau, scratch, None);
        for (j, q) in queries.iter_mut().enumerate() {
            q.estimate += m.mass[plan.level_of(j)];
        }
        match mode {
            WeightMode::Affine(0.0, b) => b,
            WeightMode::Affine(a, b) => {
                let wl = LayeredLevels::level_of(weight_pattern)
                    .expect("layered observation requires a leveled weight pattern");
                a * (m.instances[wl] as f64) + b
            }
            _ => {
                let wl = LayeredLevels::level_of(weight_pattern)
                    .expect("layered observation requires a leveled weight pattern");
                state_buf.set_instances_only(m.instances[wl]);
                weight_fn.weight(state_buf)
            }
        }
    }
}

/// Shared batched-loop skeleton of the weighted samplers (WSD, GPS-A):
/// exactly one `u ∈ (0, 1]` is consumed per insertion and none per
/// deletion, so all variates for the batch are pre-drawn in one RNG
/// loop — same stream as sequential processing, bit-for-bit. The batch
/// is then partitioned into same-op **runs** resolved against a per-run
/// *admission plan*: the sampler's `guaranteed_admissions()` reports
/// how many upcoming insertions are admitted regardless of their rank
/// (WSD while `τp == 0`, GPS-A while non-full), and that prefix of each
/// insertion run executes the branch-free `insert_admit_unconditional`
/// (observe → rank → admit, no threshold compare, no capacity branch);
/// deletion runs loop `delete` without re-testing the op per event.
/// Everything outside a plan falls through to the full `insert_with_u`
/// cascade, keeping estimates, reservoir contents and RNG stream
/// bit-identical to sequential processing.
///
/// A macro rather than a function because the fast path and the
/// dispatch both need disjoint `&mut self` access (rng + scratch buffer
/// + sampler state), which closures cannot express.
macro_rules! predrawn_batch {
    ($self:ident, $batch:ident, $ctx:ident) => {{
        let insertions = $batch.iter().filter(|ev| ev.is_insert()).count();
        $self.u_buf.clear();
        $self.u_buf.reserve(insertions);
        for _ in 0..insertions {
            $self.u_buf.push($crate::rank::draw_u(&mut $self.rng));
        }
        let mut next_u = 0;
        let mut i = 0;
        while i < $batch.len() {
            if $batch[i].is_insert() {
                let guaranteed = $self.guaranteed_admissions();
                let run_len =
                    $batch[i..].iter().take(guaranteed).take_while(|ev| ev.is_insert()).count();
                if run_len > 0 {
                    for &ev in &$batch[i..i + run_len] {
                        let u = $self.u_buf[next_u];
                        next_u += 1;
                        $self.insert_admit_unconditional(ev.edge, u, $ctx.reborrow());
                        $self.t += 1;
                    }
                    i += run_len;
                } else {
                    let u = $self.u_buf[next_u];
                    next_u += 1;
                    $self.insert_with_u($batch[i].edge, u, $ctx.reborrow());
                    $self.t += 1;
                    i += 1;
                }
            } else {
                let run_len = $batch[i..].iter().take_while(|ev| !ev.is_insert()).count();
                for &ev in &$batch[i..i + run_len] {
                    $self.delete(ev.edge, $ctx.reborrow());
                    $self.t += 1;
                }
                i += run_len;
            }
        }
    }};
}

/// Shared batched-loop skeleton of the random-pairing samplers (Triest,
/// ThinkD): insertion runs inside the reservoir's RNG-free fill phase
/// (`guaranteed_admissions() > 0`) are resolved as one run up front —
/// `$fast` handles each edge's estimator/adjacency side in a tight loop
/// with no per-event op or capacity test, then one
/// [`RpReservoir::admit_run`](crate::reservoir::RpReservoir::admit_run)
/// admits the whole run into the reservoir (which nothing inside the
/// run reads, so deferring its bookkeeping is exact). Everything else
/// falls through to the sequential `process`, keeping estimates and RNG
/// stream bit-identical.
macro_rules! rp_fill_batch {
    ($self:ident, $batch:ident, $ctx:ident, |$e:ident| $fast:block) => {{
        let mut i = 0;
        while i < $batch.len() {
            if $batch[i].is_insert() {
                let fill = $self.reservoir.guaranteed_admissions();
                let run_len = $batch[i..].iter().take(fill).take_while(|ev| ev.is_insert()).count();
                if run_len > 0 {
                    for &ev in &$batch[i..i + run_len] {
                        let $e = ev.edge;
                        $fast
                    }
                    $self.reservoir.admit_run($batch[i..i + run_len].iter().map(|ev| ev.edge));
                    i += run_len;
                    continue;
                }
            }
            $self.process($batch[i], $ctx.reborrow());
            i += 1;
        }
    }};
}

pub(crate) use {predrawn_batch, rp_fill_batch};

/// Test harness: a concrete sampler driven with one attached query, the
/// way a one-query [`crate::StreamSession`] drives it, with the sampler
/// left reachable (through `Deref`) for white-box assertions.
#[cfg(test)]
pub(crate) struct SingleQuery<S> {
    pub(crate) sampler: S,
    pub(crate) query: crate::session::PatternQuery,
    scratch: wsd_graph::patterns::EnumScratch,
}

#[cfg(test)]
impl<S: crate::session::EdgeSampler> SingleQuery<S> {
    /// Attaches a `pattern` query to `sampler`, with the checks
    /// [`crate::StreamSession::attach`] makes.
    pub(crate) fn new(pattern: wsd_graph::Pattern, sampler: S) -> Self {
        sampler.assert_capacity_for(pattern);
        let query = crate::session::PatternQuery::new(
            pattern,
            crate::estimator::MassKernel::build_default(),
        );
        Self { sampler, query, scratch: Default::default() }
    }

    pub(crate) fn process(&mut self, ev: wsd_graph::EdgeEvent) {
        let ctx =
            crate::session::QueryCtx::new(std::slice::from_mut(&mut self.query), &mut self.scratch);
        self.sampler.process(ev, ctx);
    }

    pub(crate) fn estimate(&self) -> f64 {
        self.sampler.query_estimate(&self.query)
    }
}

#[cfg(test)]
impl<S> std::ops::Deref for SingleQuery<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.sampler
    }
}
