//! The benchmark's own statistics: percentiles with a tail-support
//! rule, due-time latency accounting for the open-loop generator,
//! backlog-growth detection, and average relative error.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `q` percentile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= p)
}

/// The `q` percentile, but only when at least `min_beyond` samples lie
/// strictly above it — a tail percentile resting on fewer samples
/// than that is one outlier, not a distribution, and is not reported.
/// No samples at all support no percentile.
pub fn supported_percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    (beyond(sorted, q) >= min_beyond).then(|| percentile(sorted, q))
}

/// The highest of `ladder` (ascending percentile ranks) whose value
/// rests on at least `min_beyond` samples beyond it, with that value.
pub fn highest_supported(sorted: &[f64], ladder: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    ladder.iter().rev().find_map(|&q| supported_percentile(sorted, q, min_beyond).map(|v| (q, v)))
}

/// A timing summarised for reporting: its median, the highest
/// percentile of {90, 99, 99.9} with at least ten samples beyond it,
/// and the sample count. `scale` converts seconds to `unit`.
pub fn describe(sorted: &[f64], scale: f64, unit: &str) -> String {
    if sorted.is_empty() {
        return "no samples".to_string();
    }
    let tail = match highest_supported(sorted, &[0.9, 0.99, 0.999], 10) {
        Some((q, v)) => format!(", p{} {:.3} {unit}", q * 100.0, v * scale),
        None => String::new(),
    };
    format!("p50 {:.3} {unit}{tail} (n = {})", percentile(sorted, 0.5) * scale, sorted.len())
}

/// Sorts samples ascending.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs
}

/// An open-loop send schedule: frame `k` of a step is *due* at
/// `start + k · interval`, whenever the sender actually gets to it.
///
/// Latency is charged from the due time, not the send time, so a
/// sender that stalls cannot hide the stall: every frame it sends late
/// carries the lateness in its latency sample.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Due time of the step's first frame.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// A schedule offering `rate` events per second in frames of
    /// `frame_events` events.
    pub fn at_rate(start: Instant, rate: f64, frame_events: usize) -> Self {
        Schedule { start, interval: Duration::from_secs_f64(frame_events as f64 / rate) }
    }

    /// When frame `k` of the step is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval.mul_f64(k as f64)
    }

    /// Latency of a response to frame `k` received at `received`, in
    /// seconds from the frame's due time.
    pub fn latency(&self, k: u64, received: Instant) -> f64 {
        received.saturating_duration_since(self.due(k)).as_secs_f64()
    }

    /// How late frame `k` went out when sent at `sent`, in seconds.
    pub fn lag(&self, k: u64, sent: Instant) -> f64 {
        sent.saturating_duration_since(self.due(k)).as_secs_f64()
    }
}

/// Whether an open-loop step's backlog (events sent but not yet
/// applied) kept growing, from `(seconds into the step, backlog)`
/// samples.
///
/// The least-squares slope over the step, times the step's length, is
/// the backlog the step added on trend. The step is over capacity when
/// that exceeds `slack` events — `slack` absorbs the in-flight
/// pipeline a keeping-up server always carries — so a server that
/// keeps up shows a flat trend however large its standing queue.
pub fn backlog_grows(samples: &[(f64, f64)], slack: f64) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let n = samples.len() as f64;
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mb = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(t, b) in samples {
        sxy += (t - mt) * (b - mb);
        sxx += (t - mt) * (t - mt);
    }
    if sxx == 0.0 {
        return false;
    }
    let span = samples.last().expect("non-empty").0 - samples[0].0;
    sxy / sxx * span > slack
}

/// Average relative error `mean(|estimate − truth| / truth)` over
/// `(estimate, truth)` pairs.
///
/// # Panics
///
/// Panics on no pairs or a non-positive truth: a relative error
/// against a zero count is undefined, and a workload whose truth is
/// zero measures nothing.
pub fn are(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "ARE of no estimates");
    pairs
        .iter()
        .map(|&(est, truth)| {
            assert!(truth > 0.0, "ARE against a zero ground truth");
            (est - truth).abs() / truth
        })
        .sum::<f64>()
        / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th, with exactly 10 above it.
        let xs = ramp(1000);
        assert_eq!(beyond(&xs, 0.99), 10);
        assert_eq!(supported_percentile(&xs, 0.99, 10), Some(990.0));
        // 999 samples: only 9 lie beyond p99, so it is withheld.
        let xs = ramp(999);
        assert_eq!(beyond(&xs, 0.99), 9);
        assert_eq!(supported_percentile(&xs, 0.99, 10), None);
        // No samples (a ladder rung that got no frames): none.
        assert_eq!(supported_percentile(&[], 0.99, 10), None);
        assert_eq!(supported_percentile(&[], 0.99, 0), None);
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 995 equal samples then 5 larger ones: p99 sits inside the
        // tie, and only the 5 strictly larger samples lie beyond it.
        let mut xs = vec![1.0; 995];
        xs.extend([2.0; 5]);
        assert_eq!(percentile(&xs, 0.99), 1.0);
        assert_eq!(beyond(&xs, 0.99), 5);
        assert_eq!(supported_percentile(&xs, 0.99, 10), None);
    }

    #[test]
    fn highest_supported_percentile_walks_down_the_ladder() {
        let ladder = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(&ramp(10_000), &ladder, 10), Some((0.999, 9990.0)));
        assert_eq!(highest_supported(&ramp(1000), &ladder, 10), Some((0.99, 990.0)));
        assert_eq!(highest_supported(&ramp(500), &ladder, 10), Some((0.9, 450.0)));
        assert_eq!(highest_supported(&ramp(15), &ladder, 10), None);
    }

    #[test]
    fn stalled_sender_inflates_later_samples() {
        // 1 ms frames; every response arrives 0.1 ms after its frame is
        // sent. The sender stalls 10 ms before frame 5 and then sends
        // the backlog back to back.
        let t0 = Instant::now();
        let sched = Schedule { start: t0, interval: Duration::from_millis(1) };
        let stall = Duration::from_millis(10);
        let service = Duration::from_micros(100);
        let mut due_lat = Vec::new();
        let mut send_lat = Vec::new();
        for k in 0..10u64 {
            let sent = if k < 5 { sched.due(k) } else { sched.due(4) + stall };
            let received = sent + service;
            due_lat.push(sched.latency(k, received));
            send_lat.push(received.duration_since(sent).as_secs_f64());
        }
        // Send-time accounting hides the stall entirely...
        assert!(send_lat.iter().all(|&l| (l - 1e-4).abs() < 1e-9));
        // ...due-time accounting charges it to every late frame, most
        // to the first one after the stall.
        assert!(due_lat[..5].iter().all(|&l| (l - 1e-4).abs() < 1e-9));
        for (k, &lat) in due_lat.iter().enumerate().skip(5) {
            let expected = (4.0 + 10.0 - k as f64) * 1e-3 + 1e-4;
            assert!((lat - expected).abs() < 1e-9, "frame {k}: {lat}");
        }
        assert!((sched.lag(5, sched.due(4) + stall) - 9e-3).abs() < 1e-9);
        // A frame sent early is never credited negative lag.
        assert_eq!(sched.lag(3, t0), 0.0);
    }

    #[test]
    fn schedule_at_rate_spaces_frames_by_frame_size() {
        let sched = Schedule::at_rate(Instant::now(), 1_000_000.0, 256);
        assert_eq!(sched.interval, Duration::from_micros(256));
        assert_eq!(sched.due(4) - sched.due(0), Duration::from_micros(1024));
    }

    #[test]
    fn backlog_growth_detection() {
        let step = |f: &dyn Fn(f64) -> f64| -> Vec<(f64, f64)> {
            (0..50).map(|i| i as f64 * 0.1).map(|t| (t, f(t))).collect()
        };
        // A standing queue, however deep, is not growth.
        assert!(!backlog_grows(&step(&|_| 50_000.0), 4096.0));
        // Jitter around a standing queue is not growth.
        let jitter =
            step(&|t| 2000.0 + if ((t * 10.0) as u64).is_multiple_of(2) { 900.0 } else { -900.0 });
        assert!(!backlog_grows(&jitter, 4096.0));
        // A steady climb of 10k events/s over 4.9 s is.
        assert!(backlog_grows(&step(&|t| 1000.0 + 10_000.0 * t), 4096.0));
        // A climb that stays inside the slack is not.
        assert!(!backlog_grows(&step(&|t| 500.0 * t), 4096.0));
        // A draining queue is not.
        assert!(!backlog_grows(&step(&|t| 50_000.0 - 10_000.0 * t), 4096.0));
        // Too few samples to call.
        assert!(!backlog_grows(&[(0.0, 1e9)], 1.0));
    }

    #[test]
    fn are_is_mean_relative_error() {
        assert_eq!(are(&[(110.0, 100.0)]), 0.1);
        assert!(
            (are(&[(90.0, 100.0), (130.0, 100.0), (50.0, 50.0)]) - (0.1 + 0.3) / 3.0).abs() < 1e-15
        );
        // Over- and under-estimates count alike.
        assert_eq!(are(&[(80.0, 100.0)]), are(&[(120.0, 100.0)]));
    }

    #[test]
    #[should_panic(expected = "zero ground truth")]
    fn are_rejects_zero_truth() {
        are(&[(1.0, 0.0)]);
    }
}
