//! The Figure 5 request workload.
//!
//! "We randomly create 5000 application requests over 1000 hours period.
//! Each request randomly selects a service graph from 5 predefined ones.
//! … The length of each application is exponentially distributed from 5
//! minutes to 1 hours."

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One application request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time in hours from simulation start.
    pub arrival_h: f64,
    /// Application lifetime in hours.
    pub duration_h: f64,
    /// Index of the predefined service graph this request runs.
    pub graph_index: usize,
}

impl Request {
    /// The departure time, in hours.
    pub fn departure_h(&self) -> f64 {
        self.arrival_h + self.duration_h
    }
}

/// Workload generation parameters (defaults = the paper's Figure 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Total number of requests (paper: 5000).
    pub requests: usize,
    /// Horizon over which arrivals spread (paper: 1000 h).
    pub horizon_h: f64,
    /// Minimum application lifetime (paper: 5 min).
    pub min_duration_h: f64,
    /// Maximum application lifetime (paper: 1 h).
    pub max_duration_h: f64,
    /// Number of predefined graphs to draw from (paper: 5).
    pub graph_count: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            requests: 5000,
            horizon_h: 1000.0,
            min_duration_h: 5.0 / 60.0,
            max_duration_h: 1.0,
            graph_count: 5,
        }
    }
}

impl WorkloadConfig {
    /// An overload workload for throughput benchmarking: `requests`
    /// arrivals packed into a short `horizon_h` (lifetimes and graph
    /// selection keep the Figure 5 shape, over the fault harness's two
    /// templates). With arrivals vastly outnumbering what the space can
    /// carry, the admission path — not the schedule — is the
    /// bottleneck, which is what the benchmark's `overload` workload
    /// measures.
    pub fn overload(requests: usize, horizon_h: f64) -> Self {
        WorkloadConfig {
            requests,
            horizon_h,
            graph_count: 2,
            ..WorkloadConfig::default()
        }
    }

    /// Generates the request trace, sorted by arrival time.
    ///
    /// Arrivals are uniform over the horizon; lifetimes are exponential
    /// (mean = half the duration window above the minimum) truncated to
    /// `[min_duration_h, max_duration_h]`, the standard reading of
    /// "exponentially distributed from 5 minutes to 1 hours".
    pub fn generate(&self, rng: &mut StdRng) -> Vec<Request> {
        let mean = (self.max_duration_h - self.min_duration_h) / 2.0;
        let mut trace: Vec<Request> = (0..self.requests)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let exp_sample = -mean * u.ln();
                Request {
                    arrival_h: rng.gen_range(0.0..self.horizon_h),
                    duration_h: (self.min_duration_h + exp_sample).min(self.max_duration_h),
                    graph_index: rng.gen_range(0..self.graph_count),
                }
            })
            .collect();
        trace.sort_by(|a, b| {
            a.arrival_h
                .partial_cmp(&b.arrival_h)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = WorkloadConfig::default();
        assert_eq!(cfg.requests, 5000);
        assert_eq!(cfg.horizon_h, 1000.0);
        assert_eq!(cfg.graph_count, 5);
    }

    #[test]
    fn trace_is_sorted_and_in_bounds() {
        let cfg = WorkloadConfig::default();
        let trace = cfg.generate(&mut StdRng::seed_from_u64(3));
        assert_eq!(trace.len(), 5000);
        for pair in trace.windows(2) {
            assert!(pair[0].arrival_h <= pair[1].arrival_h);
        }
        for r in &trace {
            assert!(r.arrival_h >= 0.0 && r.arrival_h < 1000.0);
            assert!(r.duration_h >= cfg.min_duration_h - 1e-12);
            assert!(r.duration_h <= cfg.max_duration_h + 1e-12);
            assert!(r.graph_index < 5);
            assert!(r.departure_h() > r.arrival_h);
        }
    }

    #[test]
    fn lifetimes_look_exponential() {
        // More short lifetimes than long ones.
        let cfg = WorkloadConfig::default();
        let trace = cfg.generate(&mut StdRng::seed_from_u64(5));
        let short = trace.iter().filter(|r| r.duration_h < 0.5).count();
        let long = trace.iter().filter(|r| r.duration_h >= 0.5).count();
        assert!(short > long, "short {short} vs long {long}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::default();
        let t1 = cfg.generate(&mut StdRng::seed_from_u64(9));
        let t2 = cfg.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(t1, t2);
    }

    #[test]
    fn all_graph_indices_used() {
        let cfg = WorkloadConfig::default();
        let trace = cfg.generate(&mut StdRng::seed_from_u64(1));
        for g in 0..5 {
            assert!(trace.iter().any(|r| r.graph_index == g));
        }
    }
}
