//! Host-time benchmark of the EDEA simulator.
//!
//! Two seeded workloads run through the public API of the `edea` crate.
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run ([`probes`]) times calls into each module's public
//! functions from this crate and reports the per-layer metrics
//! ([`per_layer_metrics`]). Modeled numbers — cycles, bytes,
//! outputs — are outputs of the program: the benchmark checks them for
//! correctness and never reports them as speed. See `README.md`.

#![forbid(unsafe_code)]

pub mod affinity;
pub mod clock;
pub mod meta;
pub mod probes;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

/// The benchmark's error type: any program or I/O error ends the run.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Shorthand for results of the benchmark.
pub type Result<T> = std::result::Result<T, Error>;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MobileNetV1 width 1.0, one serial `Deployment::run` per request.
    V1Forward,
    /// v1 width 0.5 + v2 width 0.25 served by `Deployment::serve_pool`.
    MixedStream,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Self; 2] = [Self::V1Forward, Self::MixedStream];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::V1Forward => "v1_forward",
            Self::MixedStream => "mixed_stream",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does. [`Size::full`] is the benchmark;
/// [`Size::smoke`] is the tiny size of the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Width multiplier of the `v1_forward` network.
    pub v1_width: f64,
    /// Distinct images `v1_forward` cycles through.
    pub v1_images: usize,
    /// Requests per `mixed_stream` serve call.
    pub mixed_requests: usize,
    /// Distinct streams `mixed_stream` cycles through.
    pub mixed_streams: usize,
    /// Stream prefixes of the traced pool probe (`pool.ns_per_req_*`).
    pub pool_prefixes: [usize; 3],
    /// Session builds per untraced run, spread over it; `setup_s` is
    /// their median.
    pub setup_reps: usize,
    /// Images of the traced layer walk.
    pub trace_images: usize,
    /// Repetitions of each traced probe.
    pub trace_reps: usize,
    /// Interleaved recorder/disabled serve pairs of the telemetry probe.
    pub telemetry_pairs: usize,
    /// Fewest measured calls of an untraced run, however short `--seconds`.
    pub min_calls: usize,
}

impl Size {
    /// The benchmark's size.
    #[must_use]
    pub fn full() -> Self {
        Self {
            v1_width: 1.0,
            v1_images: 8,
            mixed_requests: 8,
            mixed_streams: 4,
            pool_prefixes: [1_000, 10_000, 50_000],
            setup_reps: 15,
            trace_images: 4,
            trace_reps: 3,
            telemetry_pairs: 51,
            min_calls: 5,
        }
    }

    /// Tiny sizes for the benchmark's own tests: every code path, little
    /// work, no meaningful timings.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            v1_width: 0.25,
            v1_images: 2,
            mixed_requests: 6,
            mixed_streams: 2,
            pool_prefixes: [50, 100, 300],
            setup_reps: 2,
            trace_images: 1,
            trace_reps: 1,
            telemetry_pairs: 5,
            min_calls: 2,
        }
    }
}

/// Derives an independent sub-seed (model weights, calibration images,
/// inputs, arrivals) from the workload seed: every input of a run is a
/// pure function of `--seed`.
#[must_use]
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    // splitmix64 over the combined value.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Accelerator layers of MobileNetV1 (`accelerator.Lxx.*` metrics).
pub const V1_LAYERS: usize = 13;

/// Per-layer metrics `(name, unit)`, reported by every traced run.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("nn.calibrate_s".into(), "s"),
        ("plan.build_ms".into(), "ms"),
        ("plan.check_layer_us".into(), "us"),
    ];
    for l in 0..V1_LAYERS {
        m.push((format!("accelerator.L{l:02}.host_us"), "us"));
    }
    for l in 0..V1_LAYERS {
        m.push((format!("accelerator.L{l:02}.ns_per_cycle"), "ns/cycle"));
    }
    m.extend([
        ("serve.v1.us_per_img".into(), "us/img"),
        ("serve.v2.us_per_img".into(), "us/img"),
        ("serve.backend_frac".into(), "ratio"),
        ("par.speedup".into(), "ratio"),
        ("pool.ns_per_req_1k".into(), "ns/req"),
        ("pool.ns_per_req_10k".into(), "ns/req"),
        ("pool.ns_per_req_50k".into(), "ns/req"),
        ("pool.backend_frac".into(), "ratio"),
        ("telemetry.overhead_frac".into(), "ratio"),
        ("trace.traced_wall_s".into(), "s"),
        ("trace.untraced_wall_s".into(), "s"),
    ]);
    m
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// What one run did: operations attempted, operations that failed a
/// correctness check, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, forwards, report comparisons).
    pub attempted: u64,
    /// Attempted operations whose outputs were wrong.
    pub failed: u64,
    /// Metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Host threads the workload ran on.
    pub threads: usize,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` operations of which `failed` were wrong.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }

    /// Appends a metric that is a difference or ratio of host times and
    /// is only meaningful when positive.
    ///
    /// # Errors
    ///
    /// `value` is not positive: host noise was larger than the effect, so
    /// the figure is refused rather than reported.
    pub fn push_positive(&mut self, name: impl Into<String>, unit: &str, value: f64) -> Result<()> {
        let name = name.into();
        if value.is_nan() || value <= 0.0 {
            return Err(format!("{name} is {value}, not positive: host noise exceeded it").into());
        }
        self.push(name, unit, value);
        Ok(())
    }

    /// Whether every attempted operation was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    ///
    /// # Errors
    ///
    /// A metric that is not a finite number.
    pub fn to_json(&self) -> Result<String> {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value).into());
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )?;
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// The peak cannot be read (the benchmark needs Linux `/proc`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload untraced for about `seconds` of measurement and
/// returns its end-to-end metrics.
///
/// # Errors
///
/// Any error the program returns.
pub fn run(workload: Workload, size: &Size, seed: u64, seconds: f64) -> Result<Outcome> {
    match workload {
        Workload::V1Forward => workloads::v1_forward(size, seed, seconds),
        Workload::MixedStream => workloads::mixed_stream(size, seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true);
        o.push("req_per_s", "req/s", 12.5);
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"req_per_s\": {\"value\": 12.5, \"unit\": \"req/s\"}}}"
        );
        assert!(o.push_positive("d", "ratio", -0.01).is_err());
        assert!(o.push_positive("d", "ratio", 0.0).is_err());
        assert!(o.push_positive("d", "ratio", 0.2).is_ok());
        o.push("x", "s", f64::NAN);
        assert!(o.to_json().is_err());
    }
}
