//! Host wall-clock, the benchmark's one source of host time, and the
//! order statistics every reported timing goes through.
//!
//! Host time is what the simulator costs to run; simulated time (cycles)
//! is an output of the program and is only ever checked, never reported
//! as speed.

// edea-lint: allow(wall-clock-in-sim): host-time benchmark of the simulator itself; simulated time is never read from here
use std::time::Instant;

/// Host nanoseconds since a fixed epoch, for span timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    // edea-lint: allow(wall-clock-in-sim): host-time benchmark of the simulator itself; simulated time is never read from here
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            // edea-lint: allow(wall-clock-in-sim): host-time benchmark of the simulator itself; simulated time is never read from here
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the epoch.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Runs `f` once and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let clock = Clock::start();
    let r = f();
    (r, clock.elapsed_s())
}

/// The median of `samples` (mean of the two middle values for an even
/// count); `NaN` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 0 {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
