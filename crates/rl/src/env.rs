//! The weight-assignment MDP environment (paper §IV-A).
//!
//! The environment drives a real [`WsdSampler`] through a one-query
//! [`StreamSession`] (so training exercises exactly the code path used
//! at inference) plus an [`ExactCounter`]
//! that supplies the ground truth behind the reward
//! `r_k = ε(t_k) − ε(t_{k+1})` (Eq. 25), where `ε(t) = |c(t) − |J(t)||`
//! (Eq. 24).
//!
//! Action selection is injected into the sampler through a
//! [`wsd_core::WeightFn`] implementation that defers to the shared DDPG
//! agent ([`ActorWeightFn`]); the per-insertion `(state, action)` pair
//! is captured through the same bridge, so the environment never
//! re-implements any sampling logic.
//!
//! Reward scaling: raw errors grow with the count magnitude (10⁴–10⁶ on
//! realistic streams), which destabilises critic regression. By default
//! rewards are divided by `max(1, |J(t_{k+1})|)` — a per-step positive
//! scaling that preserves the sign structure of Eq. 25 while aligning
//! magnitudes with the (relative) ARE metric the paper optimises for.
//! Set [`RewardScale::Raw`] for the verbatim Eq. 25.

use crate::ddpg::Ddpg;
use crate::replay::Transition;
use std::sync::{Arc, Mutex};
use wsd_core::algorithms::WsdSampler;
use wsd_core::{MassKernel, QueryId, StateVector, StreamSession, TemporalPooling, WeightFn};
use wsd_graph::{ExactCounter, Op, Pattern};
use wsd_stream::EventStream;

/// Reward scaling mode.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub enum RewardScale {
    /// `r_k = (ε(t_k) − ε(t_{k+1})) / max(1, |J(t_{k+1})|)` (default).
    #[default]
    Relative,
    /// Verbatim Eq. 25: `r_k = ε(t_k) − ε(t_{k+1})`.
    Raw,
}

/// Shared handle to the learning agent plus the capture slot for the
/// most recent `(state, action)` decision.
pub(crate) struct ActorBridge {
    pub agent: Ddpg,
    pub last: Option<(Vec<f64>, f64)>,
    /// When false the bridge acts deterministically (evaluation mode).
    pub explore: bool,
}

/// `WeightFn` adapter that routes weight decisions to the DDPG actor.
pub struct ActorWeightFn {
    bridge: Arc<Mutex<ActorBridge>>,
}

impl WeightFn for ActorWeightFn {
    fn weight(&mut self, state: &StateVector) -> f64 {
        let mut b = self.bridge.lock().expect("actor bridge poisoned");
        let a = if b.explore {
            b.agent.act_explore(state.values())
        } else {
            b.agent.act_deterministic(state.values())
        };
        b.last = Some((state.values().to_vec(), a));
        a
    }
    fn name(&self) -> &'static str {
        "WSD-L (training)"
    }
}

/// One training episode over one event stream.
pub struct WsdEnv {
    stream: EventStream,
    pos: usize,
    session: StreamSession,
    query: QueryId,
    exact: ExactCounter,
    bridge: Arc<Mutex<ActorBridge>>,
    pending: Option<(Vec<f64>, f64, f64)>,
    scale: RewardScale,
    first_eps: Option<f64>,
}

impl WsdEnv {
    /// Creates an episode over `stream` driven by the shared `bridge`.
    pub(crate) fn new(
        stream: EventStream,
        pattern: Pattern,
        capacity: usize,
        pooling: TemporalPooling,
        bridge: Arc<Mutex<ActorBridge>>,
        scale: RewardScale,
        seed: u64,
    ) -> Self {
        let weight_fn = ActorWeightFn { bridge: bridge.clone() };
        let sampler = WsdSampler::new(pattern, capacity, Box::new(weight_fn), pooling, seed);
        let session =
            StreamSession::from_parts(Box::new(sampler), &[pattern], MassKernel::build_default());
        let (query, _) = session.queries().next().expect("one query attached");
        Self {
            stream,
            pos: 0,
            session,
            query,
            exact: ExactCounter::new(pattern),
            bridge,
            pending: None,
            scale,
            first_eps: None,
        }
    }

    /// Advances the episode until the next transition is available,
    /// returning `None` at stream end.
    pub fn next_transition(&mut self) -> Option<Transition> {
        while self.pos < self.stream.len() {
            let ev = self.stream[self.pos];
            self.pos += 1;
            self.session.process(ev);
            self.exact.apply(ev).expect("training streams must be feasible");
            if ev.op != Op::Insert {
                continue;
            }
            let (state, action) = self
                .bridge
                .lock()
                .expect("actor bridge poisoned")
                .last
                .take()
                .expect("WsdSampler must consult the weight function on every insertion");
            let truth = self.exact.count() as f64;
            let eps = (self.session.estimate(self.query) - truth).abs();
            if self.first_eps.is_none() {
                self.first_eps = Some(eps);
            }
            let transition = self.pending.take().map(|(ps, pa, p_eps)| {
                let mut reward = p_eps - eps;
                if self.scale == RewardScale::Relative {
                    reward /= truth.max(1.0);
                }
                Transition { state: ps, action: pa, reward, next_state: state.clone() }
            });
            self.pending = Some((state, action, eps));
            if let Some(t) = transition {
                return Some(t);
            }
        }
        None
    }

    /// Final absolute error of the episode so far (ε at the last
    /// processed insertion), for monitoring.
    pub fn current_error(&self) -> Option<f64> {
        self.pending.as_ref().map(|&(_, _, eps)| eps)
    }

    /// ε at the very first insertion (`ε(t_1)` of Eq. 26) — 0 whenever
    /// the reservoir starts below capacity.
    pub fn first_error(&self) -> Option<f64> {
        self.first_eps
    }

    /// Fraction of the stream consumed.
    pub fn progress(&self) -> f64 {
        if self.stream.is_empty() {
            1.0
        } else {
            self.pos as f64 / self.stream.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpg::DdpgConfig;
    use wsd_graph::{Edge, EdgeEvent};

    fn bridge(dim: usize) -> Arc<Mutex<ActorBridge>> {
        Arc::new(Mutex::new(ActorBridge {
            agent: Ddpg::new(dim, DdpgConfig::default(), 11),
            last: None,
            explore: true,
        }))
    }

    fn tiny_stream() -> EventStream {
        let mut evs: EventStream = Vec::new();
        // A growing clique on 8 vertices plus one deletion.
        for a in 0..8u64 {
            for b in (a + 1)..8 {
                evs.push(EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        evs.push(EdgeEvent::delete(Edge::new(0, 1)));
        evs
    }

    #[test]
    fn transitions_cover_insertions() {
        let b = bridge(6);
        let mut env = WsdEnv::new(
            tiny_stream(),
            Pattern::Triangle,
            64,
            TemporalPooling::Max,
            b,
            RewardScale::Relative,
            3,
        );
        let mut n = 0;
        while let Some(t) = env.next_transition() {
            assert_eq!(t.state.len(), 6);
            assert_eq!(t.next_state.len(), 6);
            assert!(t.action >= 0.1);
            n += 1;
        }
        // 28 insertions → 27 transitions (one pending start).
        assert_eq!(n, 27);
        assert_eq!(env.progress(), 1.0);
    }

    #[test]
    fn rewards_are_zero_when_sampler_is_exact() {
        // Capacity ≥ stream: the session is exact, ε ≡ 0 → rewards ≡ 0.
        let b = bridge(6);
        let mut env = WsdEnv::new(
            tiny_stream(),
            Pattern::Triangle,
            1000,
            TemporalPooling::Max,
            b,
            RewardScale::Raw,
            4,
        );
        while let Some(t) = env.next_transition() {
            assert_eq!(t.reward, 0.0);
        }
        assert_eq!(env.current_error(), Some(0.0));
    }
}
