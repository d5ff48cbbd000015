//! Batched stream ingestion.

use crate::session::StreamSession;
use wsd_graph::EdgeEvent;

/// Default ingestion batch size.
///
/// Large enough to amortise per-batch costs (RNG pre-draws, dispatch),
/// small enough that pre-drawn variate buffers stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Drives a [`StreamSession`] over a stream in fixed-size batches.
///
/// Each batch goes through
/// [`StreamSession::process_batch`], which is
/// **bit-identical** to per-event processing (the equivalence is
/// asserted by the `admission_equivalence` differential suite for every
/// algorithm) but resolves admission at run granularity: variates are
/// pre-drawn per batch, and each sampler's admission plan admits whole
/// insertion runs through a branch-free reservoir write path.
#[derive(Copy, Clone, Debug)]
pub struct BatchDriver {
    batch_size: usize,
}

impl Default for BatchDriver {
    fn default() -> Self {
        Self { batch_size: DEFAULT_BATCH_SIZE }
    }
}

impl BatchDriver {
    /// A driver with the default batch size.
    pub fn new() -> Self {
        Self::default()
    }

    /// A driver with an explicit batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { batch_size }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Feeds the whole stream to a [`StreamSession`], batch by batch —
    /// every attached query advances together on the one sampler pass.
    pub fn run_session(&self, session: &mut StreamSession, stream: &[EdgeEvent]) {
        for chunk in stream.chunks(self.batch_size) {
            session.process_batch(chunk);
        }
    }

    /// As [`BatchDriver::run_session`], invoking `checkpoint` with the
    /// number of events consumed so far after every batch — the hook the
    /// evaluation harness uses for MARE checkpoints without abandoning
    /// batched ingestion.
    pub fn run_session_with_checkpoints(
        &self,
        session: &mut StreamSession,
        stream: &[EdgeEvent],
        checkpoint: &mut dyn FnMut(usize, &StreamSession),
    ) {
        let mut consumed = 0;
        for chunk in stream.chunks(self.batch_size) {
            session.process_batch(chunk);
            consumed += chunk.len();
            checkpoint(consumed, session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::session::SessionBuilder;
    use wsd_graph::{Edge, Pattern};

    fn stream(n: u64) -> Vec<EdgeEvent> {
        (0..n).map(|i| EdgeEvent::insert(Edge::new(i, i + 1))).collect()
    }

    fn session(alg: Algorithm) -> StreamSession {
        SessionBuilder::new(alg, 32, 1).query(Pattern::Triangle).build()
    }

    #[test]
    fn drives_full_stream() {
        let events = stream(100);
        let mut a = session(Algorithm::Triest);
        let mut b = session(Algorithm::Triest);
        BatchDriver::with_batch_size(7).run_session(&mut a, &events);
        for &ev in &events {
            b.process(ev);
        }
        let estimate = |s: &StreamSession| s.estimate(s.queries().next().unwrap().0);
        assert_eq!(estimate(&a), estimate(&b));
        assert_eq!(a.stored_edges(), b.stored_edges());
    }

    #[test]
    fn checkpoints_cover_stream_once() {
        let events = stream(50);
        let mut c = session(Algorithm::ThinkD);
        let (q, _) = c.queries().next().unwrap();
        let mut seen = Vec::new();
        BatchDriver::with_batch_size(16).run_session_with_checkpoints(
            &mut c,
            &events,
            &mut |consumed, session| {
                seen.push(consumed);
                let _ = session.estimate(q);
            },
        );
        assert_eq!(seen, vec![16, 32, 48, 50]);
    }

    #[test]
    fn session_checkpoints_match_counter_checkpoints() {
        // The counter side is a one-query session fed event by event:
        // batched checkpoints must see its estimates at the same positions.
        let events = stream(50);
        let mut counter = session(Algorithm::ThinkD);
        let (counter_q, _) = counter.queries().next().unwrap();
        let mut session = session(Algorithm::ThinkD);
        let (qid, _) = session.queries().next().unwrap();
        let mut counter_cps = Vec::new();
        for (i, &ev) in events.iter().enumerate() {
            counter.process(ev);
            if (i + 1) % 16 == 0 || i + 1 == events.len() {
                counter_cps.push((i + 1, counter.estimate(counter_q).to_bits()));
            }
        }
        let mut session_cps = Vec::new();
        BatchDriver::with_batch_size(16).run_session_with_checkpoints(
            &mut session,
            &events,
            &mut |consumed, s| {
                session_cps.push((consumed, s.estimate(qid).to_bits()));
            },
        );
        assert_eq!(counter_cps, session_cps);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let _ = BatchDriver::with_batch_size(0);
    }
}
