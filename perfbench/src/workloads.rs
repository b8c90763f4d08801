//! The two untraced workloads and the seeded cases they share with the
//! traced probes.
//!
//! Every workload is offline: one caller makes one call at a time, and
//! request arrivals are a seeded schedule on the *simulated* clock that
//! the host runs as fast as it can. `req_per_s` is requests per host
//! second of the fastest calls (see [`throughput`]); `setup_s` is the
//! median of several session builds spread over the run (see
//! [`measure`]).

use edea::core::par::Parallelism;
use edea::core::serve::AnalyticBackend;
use edea::nn::executor;
use edea::nn::mobilenet::{MobileNetV1, MobileNetV2};
use edea::nn::workload::{mobilenet_v1_cifar10, scale_width, LayerShape, NetworkId};
use edea::pool::{DispatchPolicy, Dispatcher, Pool, PoolReport};
use edea::serve::{arrivals, Backend, Policy, Request, SimulatorBackend};
use edea::tensor::{rng, Tensor3};
use edea::{Deployment, DeploymentBuilder, EdeaConfig};

use crate::affinity::Rotation;
use crate::clock::{median, timed, Clock};
use crate::meta::nproc;
use crate::{peak_rss_mb, sub_seed, Outcome, Result, Size};

/// Calibration images per deployment.
const CALIBRATION_IMAGES: usize = 2;
/// Width of the `mixed_stream` v1 (primary) network.
const MIXED_V1_WIDTH: f64 = 0.5;
/// Width of the `mixed_stream` v2 network; v1@0.5 and v2@0.25 share the
/// (16, 32, 32) stem output, the mixed-model precondition.
const MIXED_V2_WIDTH: f64 = 0.25;
/// `mixed_stream` arrival rate, as a multiple of the v1 service rate.
const MIXED_LOAD: f64 = 1.5;
/// `mixed_stream` batch bound.
const MIXED_MAX_BATCH: usize = 4;
/// Width of the shapes the overload case's analytic backend paces.
const OVERLOAD_WIDTH: f64 = 0.25;
/// Workers of the overload pool.
const OVERLOAD_WORKERS: usize = 8;
/// Overload batch bound.
const OVERLOAD_MAX_BATCH: usize = 8;
/// Overload arrival rate, as a multiple of pool capacity.
const OVERLOAD_LOAD: f64 = 2.0;

fn images(n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    rng::synthetic_batch(n, 3, 32, 32, seed)
}

/// The `v1_forward` case: MobileNetV1 with the paper's Fig.-11 sparsity
/// (the builder's default profile), served serially.
#[derive(Debug, Clone)]
pub struct V1Case {
    model: MobileNetV1,
    calibration: Vec<Tensor3<f32>>,
    images: Vec<Tensor3<f32>>,
}

impl V1Case {
    /// The seeded case at `width` with `n_images` distinct images.
    #[must_use]
    pub fn new(width: f64, n_images: usize, seed: u64) -> Self {
        Self {
            model: MobileNetV1::synthetic(width, sub_seed(seed, 1)),
            calibration: images(CALIBRATION_IMAGES, sub_seed(seed, 2)),
            images: images(n_images, sub_seed(seed, 3)),
        }
    }

    /// The float model (for timing calibration on its own).
    #[must_use]
    pub fn model(&self) -> &MobileNetV1 {
        &self.model
    }

    /// The calibration images.
    #[must_use]
    pub fn calibration(&self) -> &[Tensor3<f32>] {
        &self.calibration
    }

    /// A serial builder holding copies of the inputs, so that timing
    /// `build()` excludes input generation.
    #[must_use]
    pub fn builder(&self) -> DeploymentBuilder {
        Deployment::builder()
            .model(self.model.clone())
            .calibration(self.calibration.clone())
            .threads(1)
    }

    /// The prepared inputs and their golden-executor outputs.
    #[must_use]
    pub fn inputs(&self, d: &Deployment) -> (Vec<Tensor3<i8>>, Vec<Tensor3<i8>>) {
        primary_inputs(d, &self.images)
    }
}

/// `images` prepared for the deployment's primary network, and their
/// golden-executor outputs.
fn primary_inputs(d: &Deployment, images: &[Tensor3<f32>]) -> (Vec<Tensor3<i8>>, Vec<Tensor3<i8>>) {
    let inputs: Vec<Tensor3<i8>> = images.iter().map(|im| d.prepare(im)).collect();
    let golden = inputs
        .iter()
        .map(|x| executor::run_network(d.qnet(), x).output)
        .collect();
    (inputs, golden)
}

/// Builds a session from `builder`, which is made before timing starts
/// so that the time excludes copying the inputs into it.
fn timed_build(builder: DeploymentBuilder) -> Result<(Deployment, f64)> {
    let (d, s) = timed(|| builder.build());
    Ok((d?, s))
}

/// The timed part of an untraced run.
struct Measured {
    /// Host seconds of each call; call `k` used input `k % inputs`.
    calls: Vec<f64>,
    /// Host seconds of each session build, the first included.
    builds: Vec<f64>,
}

/// Calls `call` until `seconds` have passed and at least `min_calls`
/// calls were made. Call `k` uses input `k % inputs`.
///
/// The thread takes turns on the allowed CPUs (see [`Rotation`]) and
/// moves every `inputs + 1` calls, so that the first call after a move,
/// which starts with cold caches, falls on each input in turn.
///
/// The run's session was built once before, in `first_build` seconds;
/// `build` builds and drops another, and is called at moves until there
/// are `builds` builds, spread evenly over the run. A run's builds thus
/// sample its whole length on every CPU rather than one moment of one CPU.
fn measure(
    seconds: f64,
    min_calls: usize,
    inputs: usize,
    (builds, first_build): (usize, f64),
    mut build: impl FnMut() -> Result<f64>,
    mut call: impl FnMut(usize) -> Result<f64>,
) -> Result<Measured> {
    let rotation = Rotation::of_this_thread();
    let clock = Clock::start();
    let mut m = Measured {
        calls: Vec::new(),
        builds: vec![first_build],
    };
    while m.calls.len() < min_calls || clock.elapsed_s() < seconds {
        let k = m.calls.len();
        if k % (inputs + 1) == 0 {
            if let Some(r) = &rotation {
                r.pin(k / (inputs + 1));
            }
            let due = seconds * m.builds.len() as f64 / builds as f64;
            if m.builds.len() < builds && clock.elapsed_s() >= due {
                m.builds.push(build()?);
            }
        }
        m.calls.push(call(k)?);
    }
    let slowest = m.calls.iter().fold(0.0f64, |a, &b| a.max(b));
    let fastest = m.calls.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    eprintln!(
        "perfbench: {} calls{}, host s per call: fastest {fastest:.6}, median {:.6}, slowest {slowest:.6}; \
         {} builds, median {:.6} s",
        m.calls.len(),
        if rotation.is_some() { " rotated over the allowed CPUs" } else { "" },
        median(&m.calls),
        m.builds.len(),
        median(&m.builds),
    );
    Ok(m)
}

/// Requests per host second of a run's calls, where call `k` used input
/// `k % inputs`: each input's fastest call, summed over the inputs. On a
/// shared host, other tenants slow whole stretches of calls; the fastest
/// call is the one least disturbed, and it moved far less from run to run
/// than the median call did.
fn throughput(requests_per_call: usize, calls: &[f64], inputs: usize) -> f64 {
    let fastest: f64 = (0..inputs)
        .map(|i| {
            calls
                .iter()
                .skip(i)
                .step_by(inputs)
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .sum();
    (requests_per_call * inputs) as f64 / fastest
}

fn end_to_end(
    out: &mut Outcome,
    requests_per_call: usize,
    m: &Measured,
    inputs: usize,
) -> Result<()> {
    out.push(
        "req_per_s",
        "req/s",
        throughput(requests_per_call, &m.calls, inputs),
    );
    out.push("setup_s", "s", median(&m.builds));
    out.push("peak_rss_mb", "MiB", peak_rss_mb()?);
    Ok(())
}

/// `v1_forward`: one serial `Deployment::run` per request over distinct
/// seeded images. Each output must equal the golden executor's and each
/// run's modeled cycles the cost model's per-image cycles.
///
/// # Errors
///
/// Any error the program returns.
pub fn v1_forward(size: &Size, seed: u64, seconds: f64) -> Result<Outcome> {
    let case = V1Case::new(size.v1_width, size.v1_images, seed);
    let (d, first_build) = timed_build(case.builder())?;
    let (inputs, golden) = case.inputs(&d);
    let expected_cycles = d.simulator_backend().cost().per_image_cycles();
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let n = inputs.len();
    let measured = measure(
        seconds,
        size.min_calls.max(n),
        n,
        (size.setup_reps, first_build),
        || Ok(timed_build(case.builder())?.1),
        |k| {
            let i = k % n;
            let (run, s) = timed(|| d.run(&inputs[i]));
            let run = run?;
            out.check(run.output == golden[i] && run.stats.total_cycles() == expected_cycles);
            Ok(s)
        },
    )?;
    end_to_end(&mut out, 1, &measured, n)?;
    Ok(out)
}

/// The `mixed_stream` case: v1 width 0.5 as the primary network plus v2
/// width 0.25 as `NetworkId(1)`, one replica.
#[derive(Debug, Clone)]
pub struct MixedCase {
    v1: MobileNetV1,
    v2: MobileNetV2,
    calibration: Vec<Tensor3<f32>>,
    images: Vec<Tensor3<f32>>,
    arrival_seed: u64,
}

/// A served stream with everything needed to check its report.
#[derive(Debug, Clone)]
pub struct MixedStream {
    /// The requests (cloned for every serve call).
    pub requests: Vec<Request>,
    /// The batch-forming policy.
    pub policy: Policy,
    /// Golden-executor output of each request, indexed by request id.
    pub golden: Vec<Tensor3<i8>>,
}

impl MixedCase {
    /// The seeded case with `n_requests` distinct images.
    #[must_use]
    pub fn new(n_requests: usize, seed: u64) -> Self {
        Self {
            v1: MobileNetV1::synthetic(MIXED_V1_WIDTH, sub_seed(seed, 11)),
            v2: MobileNetV2::synthetic(MIXED_V2_WIDTH, sub_seed(seed, 12)),
            calibration: images(CALIBRATION_IMAGES, sub_seed(seed, 13)),
            images: images(n_requests, sub_seed(seed, 14)),
            arrival_seed: sub_seed(seed, 15),
        }
    }

    /// The v1 model.
    #[must_use]
    pub fn v1(&self) -> &MobileNetV1 {
        &self.v1
    }

    /// The v2 model.
    #[must_use]
    pub fn v2(&self) -> &MobileNetV2 {
        &self.v2
    }

    /// The calibration images.
    #[must_use]
    pub fn calibration(&self) -> &[Tensor3<f32>] {
        &self.calibration
    }

    /// The request images prepared for the primary (v1) network, and
    /// their golden-executor outputs.
    #[must_use]
    pub fn v1_inputs(&self, d: &Deployment) -> (Vec<Tensor3<i8>>, Vec<Tensor3<i8>>) {
        primary_inputs(d, &self.images)
    }

    /// A builder at `threads` host threads holding copies of the inputs,
    /// so that timing `build()` excludes input generation.
    #[must_use]
    pub fn builder(&self, threads: usize) -> DeploymentBuilder {
        Deployment::builder()
            .model(self.v1.clone())
            .model_v2(self.v2.clone())
            .calibration(self.calibration.clone())
            .threads(threads)
    }

    /// One stream over all the case's images: seeded Poisson arrivals at
    /// 1.5× the v1 service rate, every third request for v2,
    /// `Policy::new(4, v1_service)`.
    ///
    /// # Errors
    ///
    /// Any error the program returns.
    pub fn stream(&self, d: &Deployment) -> Result<MixedStream> {
        mixed_stream_of(d, &self.images, self.arrival_seed)
    }

    /// The case's images cut into streams of `requests` each, every stream
    /// like [`MixedCase::stream`] with arrivals of its own seed.
    ///
    /// # Errors
    ///
    /// Any error the program returns.
    pub fn streams(&self, d: &Deployment, requests: usize) -> Result<Vec<MixedStream>> {
        self.images
            .chunks(requests)
            .enumerate()
            .map(|(j, images)| mixed_stream_of(d, images, sub_seed(self.arrival_seed, j as u64)))
            .collect()
    }
}

fn mixed_stream_of(
    d: &Deployment,
    images: &[Tensor3<f32>],
    arrival_seed: u64,
) -> Result<MixedStream> {
    let v1_service = d
        .simulator_backend()
        .dispatch_cycles(1)
        .ok_or("the simulator backend predicts its cycles")?;
    let n = images.len();
    let ticks = arrivals::poisson(n, v1_service as f64 / MIXED_LOAD, arrival_seed);
    let nets: Vec<NetworkId> = (0..n)
        .map(|i| {
            if i % 3 == 2 {
                NetworkId(1)
            } else {
                NetworkId::PRIMARY
            }
        })
        .collect();
    let mut inputs = Vec::with_capacity(n);
    let mut golden = Vec::with_capacity(n);
    for (image, &net) in images.iter().zip(&nets) {
        let x = d.prepare_for(net, image).ok_or("registered network")?;
        let qnet = d.qnet_of(net).unwrap_or_else(|| d.qnet());
        golden.push(executor::try_run_network(qnet, &x)?.output);
        inputs.push(x);
    }
    Ok(MixedStream {
        requests: Request::stream_mixed(&ticks, &nets, inputs)?,
        policy: Policy::new(MIXED_MAX_BATCH, v1_service)?,
        golden,
    })
}

/// Host threads of the traced `par` probe: two lanes where the host has
/// them. The untraced workloads run serially: on a shared two-core host a
/// two-lane fork-join stalls whenever either core is taken, which made
/// `mixed_stream` run-to-run spread about three times wider.
#[must_use]
pub fn parallel_threads() -> usize {
    nproc().min(2)
}

/// Failed requests of a mixed serve: a request fails unless it is
/// answered exactly once, bit-identical to the golden executor of its
/// network, by a batch of that network whose modeled cycles equal the
/// backend's `dispatch_cycles_for` prediction. A response to an id that
/// was never sent counts as one more failure (capped at the stream size).
#[must_use]
pub fn mixed_failures(
    report: &PoolReport,
    stream: &MixedStream,
    backend: &SimulatorBackend,
) -> u64 {
    let serve = &report.serve;
    let mut answers = vec![0u32; stream.golden.len()];
    let mut unknown = 0usize;
    for r in &serve.responses {
        let Some(golden) = usize::try_from(r.id)
            .ok()
            .and_then(|i| stream.golden.get(i))
        else {
            unknown += 1;
            continue;
        };
        let batch_ok = serve.batches.get(r.batch).is_some_and(|b| {
            b.index == r.batch
                && b.network == r.network
                && Some(b.cycles) == backend.dispatch_cycles_for(b.network, b.size)
        });
        if batch_ok && r.output == *golden {
            answers[r.id as usize] += 1;
        }
    }
    let wrong = answers.iter().filter(|&&a| a != 1).count();
    (wrong + unknown).min(answers.len()) as u64
}

/// `mixed_stream`: each call serves one of the run's streams, in turn,
/// through `Deployment::serve_pool` with least-loaded dispatch.
///
/// # Errors
///
/// Any error the program returns.
pub fn mixed_stream(size: &Size, seed: u64, seconds: f64) -> Result<Outcome> {
    let case = MixedCase::new(size.mixed_requests * size.mixed_streams, seed);
    let (d, first_build) = timed_build(case.builder(1))?;
    let streams = case.streams(&d, size.mixed_requests)?;
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let measured = measure(
        seconds,
        size.min_calls.max(streams.len()),
        streams.len(),
        (size.setup_reps, first_build),
        || Ok(timed_build(case.builder(1))?.1),
        |k| {
            let stream = &streams[k % streams.len()];
            let requests = stream.requests.clone();
            let (report, s) =
                timed(|| d.serve_pool(stream.policy, DispatchPolicy::LeastLoaded, requests));
            let failed = mixed_failures(&report?, stream, d.simulator_backend());
            out.count(stream.requests.len() as u64, failed);
            Ok(s)
        },
    )?;
    end_to_end(&mut out, size.mixed_requests, &measured, streams.len())?;
    Ok(out)
}

/// The overload case of the traced `pool` and `telemetry` probes:
/// MobileNetV1 width-0.25 shapes paced by the analytic cost model on 8
/// workers, seeded Poisson arrivals at 2× pool capacity. Execution costs
/// almost nothing, so nearly all host time is the pool event loop.
#[derive(Debug, Clone)]
pub struct OverloadCase {
    shapes: Vec<LayerShape>,
    ticks: Vec<u64>,
    input_shape: (usize, usize, usize),
    policy: Policy,
}

impl OverloadCase {
    /// The seeded case with an `n_requests` arrival schedule.
    ///
    /// # Errors
    ///
    /// Any error the program returns.
    pub fn new(n_requests: usize, seed: u64) -> Result<Self> {
        let shapes = scale_width(&mobilenet_v1_cifar10(), OVERLOAD_WIDTH, 8)?;
        let backend = AnalyticBackend::new(&shapes, &EdeaConfig::paper())?;
        let cost = backend.cost();
        // Capacity: every worker completes a full batch per batch time.
        let mean_gap = cost.batch_cycles(OVERLOAD_MAX_BATCH) as f64
            / (OVERLOAD_MAX_BATCH * OVERLOAD_WORKERS) as f64
            / OVERLOAD_LOAD;
        Ok(Self {
            ticks: arrivals::poisson(n_requests, mean_gap, sub_seed(seed, 21)),
            input_shape: backend.input_shape(),
            policy: Policy::new(OVERLOAD_MAX_BATCH, cost.per_image_cycles())?,
            shapes,
        })
    }

    /// The analytic backend.
    ///
    /// # Errors
    ///
    /// Any error the program returns.
    pub fn backend(&self) -> Result<AnalyticBackend> {
        Ok(AnalyticBackend::new(&self.shapes, &EdeaConfig::paper())?)
    }

    /// The dispatcher every call uses.
    #[must_use]
    pub fn dispatcher(&self) -> Dispatcher {
        Dispatcher::new(self.policy, DispatchPolicy::LeastLoaded)
    }

    /// The first `n` requests of the stream, with all-zero inputs (the
    /// analytic backend never reads them).
    ///
    /// # Errors
    ///
    /// Any error the program returns.
    pub fn requests(&self, n: usize) -> Result<Vec<Request>> {
        let (c, h, w) = self.input_shape;
        let ticks = &self.ticks[..n.min(self.ticks.len())];
        let inputs = ticks
            .iter()
            .map(|_| Tensor3::<i8>::zeros(c, h, w))
            .collect();
        Ok(Request::stream(ticks, inputs)?)
    }
}

/// The single-threaded pool of the overload case.
///
/// # Errors
///
/// Any error the program returns.
pub fn overload_pool<B: Backend + Clone>(backend: B) -> Result<Pool<B>> {
    Ok(Pool::replicate(backend, OVERLOAD_WORKERS)?.with_parallelism(Parallelism::new(1)?))
}

/// Requests of an `n`-request serve not answered exactly once, plus
/// responses to ids that were never sent (capped at `n`).
#[must_use]
pub fn unanswered(report: &PoolReport, n: usize) -> u64 {
    let mut answers = vec![0u32; n];
    let mut unknown = 0usize;
    for r in &report.serve.responses {
        match usize::try_from(r.id).ok().and_then(|i| answers.get_mut(i)) {
            Some(a) => *a += 1,
            None => unknown += 1,
        }
    }
    let wrong = answers.iter().filter(|&&a| a != 1).count();
    (wrong + unknown).min(n) as u64
}
