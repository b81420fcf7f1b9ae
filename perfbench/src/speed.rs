//! Host-speed reference.
//!
//! On a shared host the same work can run 25% slower for minutes at a
//! time. So a run times a fixed reference job before its first repetition
//! and then between repetitions, at most once a second, and scales its
//! wall times by how fast the host ran that job: a time `t` is reported
//! as `t * REFERENCE_S / median(job times)`, and a rate is divided by the
//! same factor. The job is
//! benchmark code, independent of the program under test. It runs in a
//! child process (this executable, invoked with [`REFERENCE_FLAG`]), so
//! the state the program leaves in this process's heap cannot perturb it.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::stats::median;

/// Nominal duration of the reference job: its median time on a quiet
/// 2-core host of the kind the benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.025;

/// The flag that makes this executable time the reference job and print
/// the seconds it took.
pub const REFERENCE_FLAG: &str = "--reference-job";

/// Run the reference job: ordered-map inserts, lookups and removals over
/// pseudo-random keys, which allocate and miss cache much like the
/// simulator's own maps. Returns its wall time in seconds.
pub fn reference_job() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..80_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
        acc = acc.wrapping_add(map.get(&(x % 50_000)).copied().unwrap_or(0));
        if i % 3 == 0 {
            map.remove(&((x >> 5) % 100_000));
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Timed jobs per sample; the sample is their median.
const JOBS_PER_SAMPLE: usize = 5;

/// The child process's side: warm up, then time the job
/// [`JOBS_PER_SAMPLE`] times and return the median.
pub fn reference_child() -> f64 {
    reference_job();
    let times: Vec<f64> = (0..JOBS_PER_SAMPLE).map(|_| reference_job()).collect();
    median(&times)
}

/// Time the reference job in a child process, waiting for it to end.
/// Falls back to this process when the child cannot be run.
fn sample_in_child() -> f64 {
    std::env::current_exe()
        .and_then(|exe| Command::new(exe).arg(REFERENCE_FLAG).output())
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok()?.trim().parse().ok())
        .unwrap_or_else(reference_child)
}

/// Least time between two reference samples.
const CADENCE_S: f64 = 1.0;

/// Reference-job timings taken around a run's repetitions.
pub struct Host {
    samples: Vec<f64>,
    last: Instant,
}

impl Host {
    /// Time the job once before the first repetition.
    pub fn new() -> Self {
        Host {
            samples: vec![sample_in_child()],
            last: Instant::now(),
        }
    }

    /// Between repetitions: time the job again if a second has passed
    /// since the last sample.
    pub fn sample(&mut self) {
        if self.last.elapsed().as_secs_f64() >= CADENCE_S {
            self.samples.push(sample_in_child());
            self.last = Instant::now();
        }
    }

    /// The factor that scales this run's wall times to reference speed.
    pub fn factor(&self) -> f64 {
        factor(&self.samples)
    }

    /// Every reference-job time taken, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// `REFERENCE_S` over the median reference-job time.
pub fn factor(samples: &[f64]) -> f64 {
    REFERENCE_S / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_undoes_a_uniform_slowdown() {
        assert_eq!(factor(&[REFERENCE_S]), 1.0);
        // A host running the job at 1.25x its nominal time ran everything
        // 25% slow: times shrink by that much, rates grow.
        let f = factor(&[1.25 * REFERENCE_S, 1.25 * REFERENCE_S, 9.0]);
        assert!((f - 0.8).abs() < 1e-12, "the median ignores one outlier");
    }

    #[test]
    fn reference_job_takes_time() {
        assert!(reference_child() > 0.0);
    }
}
