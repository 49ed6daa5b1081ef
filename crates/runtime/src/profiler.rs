//! The online resource-profiling service (Section 3.1, assumption:
//! "profiling or monitoring services are available to automatically
//! measure the resource requirements for all application services";
//! cf. Abdelzaher's automated profiling and QualProbes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ubiqos_model::ResourceVector;

/// Measures component resource requirements with bounded multiplicative
/// noise, modeling an online profiling subsystem.
///
/// Profiles are deterministic per `(seed, sample index)` so experiments
/// are reproducible.
#[derive(Debug, Clone)]
pub struct Profiler {
    rng: StdRng,
    /// Maximum relative measurement error, e.g. 0.1 = ±10%.
    noise: f64,
}

impl Profiler {
    /// Creates a profiler with the given seed and relative noise bound.
    ///
    /// # Panics
    ///
    /// Panics when `noise` is negative or ≥ 1 (a measurement can never be
    /// negative).
    pub fn new(seed: u64, noise: f64) -> Self {
        assert!((0.0..1.0).contains(&noise), "noise must be in [0, 1)");
        Profiler {
            rng: StdRng::seed_from_u64(seed),
            noise,
        }
    }

    /// A noise-free profiler (measurements equal ground truth).
    pub fn exact(seed: u64) -> Self {
        Profiler::new(seed, 0.0)
    }

    /// Measures a component's true requirement vector, returning the
    /// observed (noisy) vector.
    pub fn measure(&mut self, truth: &ResourceVector) -> ResourceVector {
        let observed: Vec<f64> = truth
            .amounts()
            .iter()
            .map(|&v| {
                let factor = if self.noise == 0.0 {
                    1.0
                } else {
                    1.0 + self.rng.gen_range(-self.noise..self.noise)
                };
                (v * factor).max(0.0)
            })
            .collect();
        ResourceVector::new(observed).expect("non-negative by construction")
    }
}

/// A power-of-two bucketed histogram of non-negative integer samples.
///
/// Bucket `0` counts exact zeros; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. The bucket vector grows lazily to the largest
/// sample seen, so an empty histogram serializes as `[]` and artifacts
/// stay compact. Used for the federation's per-shard message queue-wait
/// (µs) and retransmission distributions in [`StageTimes`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowHistogram {
    /// `counts[i]` = samples in bucket `i` (see type docs).
    pub counts: Vec<u64>,
}

impl PowHistogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Inclusive upper bound of bucket `i` (`0` for the zero bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Folds another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &PowHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// The smallest bucket upper bound covering at least `q` (in
    /// `[0, 1]`) of the samples — a coarse quantile for rendering.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= need {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(self.counts.len().saturating_sub(1))
    }
}

/// Wall-clock totals per configuration-pipeline stage, accumulated by
/// the domain server across every `configure` call.
///
/// These are *real* (wall-clock) milliseconds for `BENCH_configure.json`
/// and performance work — unlike the [`crate::cost_model::CostModel`]'s
/// virtual overheads, they never feed deterministic logs, digests, or
/// the simulated clock, so profiling cannot perturb reproducibility.
///
/// The same struct is the shared stage-accounting type of
/// `BENCH_federation.json`: a federation folds its per-shard message
/// queue waits and retransmission counts into the histograms, which
/// stay empty for a single-server campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Time inside `ServiceRegistry::discover_all` (memo hits included).
    pub discover_ms: f64,
    /// Composition-tier time minus discovery (OC checks, transcoder
    /// insertion, cache bookkeeping).
    pub compose_ms: f64,
    /// Distribution-tier time (problem construction + solver).
    pub place_ms: f64,
    /// Component download bookkeeping time.
    pub download_ms: f64,
    /// `configure` invocations measured.
    pub configures: u64,
    /// Virtual µs each federation message spent between send and
    /// delivery, over every shard. Empty for a single-server campaign.
    pub queue_wait_us: PowHistogram,
    /// Queue waits split by the admission queue (shard) that absorbed
    /// them. Slot `s` is shard `s`'s own wait distribution; the merged
    /// view above remains the union.
    pub shard_queue_wait_us: Vec<PowHistogram>,
    /// Per-payload retransmission counts of the federation's reliable
    /// transport sublayer, split by sending shard: when a payload is
    /// fully acknowledged, the number of retransmissions it needed
    /// (`0` on a perfect link) is recorded into the sender's slot.
    /// Empty everywhere outside the federated runtime.
    #[serde(default)]
    pub shard_retransmits: Vec<PowHistogram>,
}

/// Grows `slots` to cover `shard` and returns that slot — the shared
/// growth step behind every shard-indexed histogram vector.
fn ensure_shard_slot(slots: &mut Vec<PowHistogram>, shard: usize) -> &mut PowHistogram {
    if slots.len() <= shard {
        slots.resize_with(shard + 1, PowHistogram::default);
    }
    &mut slots[shard]
}

impl StageTimes {
    /// The summed configuration-pipeline time (all four stages).
    pub fn total_ms(&self) -> f64 {
        self.discover_ms + self.compose_ms + self.place_ms + self.download_ms
    }

    /// `discover + compose + place` — the pipeline span a composition
    /// cache can shorten; downloads excluded.
    pub fn pipeline_ms(&self) -> f64 {
        self.discover_ms + self.compose_ms + self.place_ms
    }

    /// Records one queue wait attributed to shard `shard`, growing the
    /// per-shard slot vector as needed. Keeps the merged histogram and
    /// the shard slot in sync.
    pub fn record_shard_queue_wait(&mut self, shard: usize, wait_us: u64) {
        self.queue_wait_us.record(wait_us);
        ensure_shard_slot(&mut self.shard_queue_wait_us, shard).record(wait_us);
    }

    /// Records one fully-acknowledged payload's retransmission count
    /// into sending shard `shard`'s slot.
    pub fn record_shard_retransmit(&mut self, shard: usize, retransmits: u64) {
        ensure_shard_slot(&mut self.shard_retransmits, shard).record(retransmits);
    }

    /// Folds another server's stage profile into this one, attributing
    /// its queue waits to shard `shard` — how a federation aggregates N
    /// per-shard servers into one campaign-wide profile.
    pub fn absorb_shard(&mut self, shard: usize, other: &StageTimes) {
        self.discover_ms += other.discover_ms;
        self.compose_ms += other.compose_ms;
        self.place_ms += other.place_ms;
        self.download_ms += other.download_ms;
        self.configures += other.configures;
        self.queue_wait_us.merge(&other.queue_wait_us);
        if other.shard_queue_wait_us.is_empty() {
            // A single-queue profile: every wait it saw belongs to the
            // shard it ran as.
            ensure_shard_slot(&mut self.shard_queue_wait_us, shard).merge(&other.queue_wait_us);
        } else {
            // Already shard-aware: slot indices are global, fold verbatim.
            for (s, h) in other.shard_queue_wait_us.iter().enumerate() {
                ensure_shard_slot(&mut self.shard_queue_wait_us, s).merge(h);
            }
        }
        for (s, h) in other.shard_retransmits.iter().enumerate() {
            ensure_shard_slot(&mut self.shard_retransmits, s).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_sum() {
        let t = StageTimes {
            discover_ms: 1.0,
            compose_ms: 2.0,
            place_ms: 3.0,
            download_ms: 4.0,
            configures: 2,
            ..StageTimes::default()
        };
        assert!((t.total_ms() - 10.0).abs() < 1e-12);
        assert!((t.pipeline_ms() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn pow_histogram_buckets_by_bit_width() {
        let mut h = PowHistogram::default();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        // zeros -> bucket 0; 1 -> bucket 1; {2,3} -> bucket 2;
        // {4,7} -> bucket 3; 8 -> bucket 4; 1024 -> bucket 11.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[11], 1);
        assert_eq!(h.total(), 9);
        assert_eq!(PowHistogram::bucket_upper(0), 0);
        assert_eq!(PowHistogram::bucket_upper(3), 7);
        assert_eq!(h.quantile_upper(1.0), 2047);
        assert!(h.quantile_upper(0.5) <= 7);
        assert_eq!(PowHistogram::default().quantile_upper(0.5), 0);
    }

    #[test]
    fn shard_slots_grow_on_demand_and_absorb() {
        let mut t = StageTimes::default();
        t.record_shard_queue_wait(2, 5);
        t.record_shard_retransmit(1, 3);
        assert_eq!(t.shard_queue_wait_us.len(), 3);
        assert_eq!(t.shard_queue_wait_us[2].total(), 1);
        assert_eq!(t.queue_wait_us.total(), 1);
        assert_eq!(t.shard_retransmits.len(), 2);
        assert_eq!(t.shard_retransmits[1].total(), 1);
        let mut sum = StageTimes::default();
        sum.absorb_shard(0, &t);
        assert_eq!(sum.shard_queue_wait_us[2].total(), 1);
        assert_eq!(sum.shard_retransmits[1].total(), 1);
    }

    #[test]
    fn exact_profiler_is_identity() {
        let mut p = Profiler::exact(1);
        let truth = ResourceVector::mem_cpu(16.0, 25.0);
        assert_eq!(p.measure(&truth), truth);
    }

    #[test]
    fn noise_is_bounded() {
        let mut p = Profiler::new(2, 0.1);
        let truth = ResourceVector::mem_cpu(100.0, 50.0);
        for _ in 0..100 {
            let m = p.measure(&truth);
            assert!(m[0] >= 90.0 - 1e-9 && m[0] <= 110.0 + 1e-9, "mem {m:?}");
            assert!(m[1] >= 45.0 - 1e-9 && m[1] <= 55.0 + 1e-9, "cpu {m:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let truth = ResourceVector::mem_cpu(10.0, 10.0);
        let a = Profiler::new(7, 0.2).measure(&truth);
        let b = Profiler::new(7, 0.2).measure(&truth);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "noise must be in")]
    fn rejects_out_of_range_noise() {
        let _ = Profiler::new(0, 1.5);
    }
}
