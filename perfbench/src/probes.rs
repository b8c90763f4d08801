//! The traced run: per-layer host time, measured by timing calls into
//! each module's public functions from this crate.
//!
//! Every traced run reports every per-layer metric. `nn`, `plan` and
//! `accelerator` are measured on the named workload's own session: the
//! width-1.0 v1 of `v1_forward`, or the v1 + v2 pair of `mixed_stream`
//! (whose layer walk is its v1). `serve`, `par`, `telemetry` and `pool`
//! have no counterpart in `v1_forward`, so every traced run measures them
//! on the `mixed_stream` stream and on the overload case. Each probe also
//! runs its untraced counterpart, so the run reports its traced wall time
//! next to the untraced one and checks that tracing changed nothing —
//! outputs against the golden executor, `PoolReport`s of the wrapped
//! pools against the plain ones.

use std::sync::Arc;

use edea::core::plan::NetworkPlan;
use edea::core::schedule::WeightResidency;
use edea::core::scratch::TileScratch;
use edea::nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea::nn::sparsity::SparsityProfile;
use edea::pool::{DispatchPolicy, Dispatcher, Pool, PoolReport};
use edea::telemetry::{Disabled, Recorder};
use edea::tensor::Tensor3;
use edea::{Deployment, Edea};

use crate::clock::{median, timed};
use crate::trace::{SpanId, Traced, Tracer};
use crate::workloads::{
    mixed_failures, overload_pool, parallel_threads, unanswered, MixedCase, OverloadCase, V1Case,
};
use crate::{Outcome, Result, Size, Workload, V1_LAYERS};

/// Whether two pool reports agree on every field they share.
#[must_use]
pub fn same_report(a: &PoolReport, b: &PoolReport) -> bool {
    a.serve.backend == b.serve.backend
        && a.serve.policy == b.serve.policy
        && a.serve.responses == b.serve.responses
        && a.serve.batches == b.serve.batches
        && a.dispatch == b.dispatch
        && a.workers == b.workers
        && a.assignments == b.assignments
}

/// Host wall seconds of the traced probes and of their untraced
/// counterparts.
#[derive(Debug, Default)]
struct Walls {
    traced: f64,
    untraced: f64,
}

/// Runs every probe, with `nn`, `plan` and `accelerator` on `workload`'s
/// session, and returns the per-layer metrics; the spans are left in
/// `tracer`.
///
/// # Errors
///
/// Any error the program returns, or a difference of host times that
/// host noise made non-positive.
pub fn traced(workload: Workload, size: &Size, seed: u64, tracer: &Arc<Tracer>) -> Result<Outcome> {
    let mut out = Outcome {
        threads: parallel_threads(),
        ..Outcome::default()
    };
    let mut walls = Walls::default();
    let root = tracer.begin(
        format!("perfbench.traced_run.{}", workload.name()),
        None,
        vec![("seed", seed)],
    );
    let session = setup(workload, size, seed, tracer, root, &mut out)?;
    accelerator(&session, size, tracer, root, &mut out, &mut walls)?;
    serve(size, seed, tracer, root, &mut out, &mut walls)?;
    pool(size, seed, tracer, root, &mut out, &mut walls)?;
    tracer.end(root);
    out.push("trace.traced_wall_s", "s", walls.traced);
    out.push("trace.untraced_wall_s", "s", walls.untraced);
    Ok(out)
}

/// A workload's session: its deployment, and the images of the layer
/// walk prepared for its primary network with their golden outputs.
struct Session {
    d: Deployment,
    inputs: Vec<Tensor3<i8>>,
    golden: Vec<Tensor3<i8>>,
}

/// `nn` and `plan` on `workload`'s networks: `calibrate_shaped` (plus
/// `calibrate_v2` on `mixed_stream`), then `plan_network` of every
/// network the session serves.
fn setup(
    workload: Workload,
    size: &Size,
    seed: u64,
    tracer: &Tracer,
    root: SpanId,
    out: &mut Outcome,
) -> Result<Session> {
    let mut calibrate = Vec::new();
    let session = match workload {
        Workload::V1Forward => {
            let case = V1Case::new(size.v1_width, size.trace_images, seed);
            for _ in 0..size.trace_reps {
                let mut model = case.model().clone();
                let (r, _, ns) = tracer.scope("nn.calibrate", Some(root), vec![], |_| {
                    QuantizedDscNetwork::calibrate_shaped(
                        &mut model,
                        case.calibration(),
                        &SparsityProfile::paper(),
                        QuantStrategy::paper(),
                    )
                });
                r?;
                calibrate.push(ns as f64 / 1e9);
            }
            let d = case.builder().build()?;
            let (inputs, golden) = case.inputs(&d);
            Session { d, inputs, golden }
        }
        Workload::MixedStream => {
            let case = MixedCase::new(size.trace_images, seed);
            for _ in 0..size.trace_reps {
                let mut v1 = case.v1().clone();
                let (r, _, ns) = tracer.scope("nn.calibrate", Some(root), vec![], |_| {
                    QuantizedDscNetwork::calibrate_shaped(
                        &mut v1,
                        case.calibration(),
                        &SparsityProfile::paper(),
                        QuantStrategy::paper(),
                    )?;
                    QuantizedDscNetwork::calibrate_v2(
                        case.v2(),
                        case.calibration(),
                        QuantStrategy::paper(),
                    )
                });
                r?;
                calibrate.push(ns as f64 / 1e9);
            }
            let d = case.builder(1).build()?;
            let (inputs, golden) = case.v1_inputs(&d);
            Session { d, inputs, golden }
        }
    };
    let d = &session.d;
    let mut plan = Vec::new();
    for _ in 0..size.trace_reps {
        let (r, _, ns) = tracer.scope("plan.plan_network", Some(root), vec![], |_| {
            d.networks()
                .into_iter()
                .filter_map(|net| d.qnet_of(net))
                .try_for_each(|q| d.accelerator().plan_network(q).map(drop))
        });
        r?;
        plan.push(ns as f64 / 1e6);
    }
    out.push("nn.calibrate_s", "s", median(&calibrate));
    out.push("plan.build_ms", "ms", median(&plan));
    Ok(session)
}

/// `accelerator` on the session's primary network: every image walked
/// layer by layer, next to an untraced `Deployment::run` of it.
fn accelerator(
    session: &Session,
    size: &Size,
    tracer: &Tracer,
    root: SpanId,
    out: &mut Outcome,
    walls: &mut Walls,
) -> Result<()> {
    let Session { d, inputs, golden } = session;
    let expected_cycles = d.simulator_backend().cost().per_image_cycles();
    let mut layer_us: Vec<Vec<f64>> = vec![Vec::new(); V1_LAYERS];
    let mut layer_cycles = [0u64; V1_LAYERS];
    let mut check_us = Vec::new();
    let mut scratch = TileScratch::new();
    for _ in 0..size.trace_reps {
        for (i, x) in inputs.iter().enumerate() {
            let (run, forward_s) = timed(|| d.run(x));
            let run = run?;
            out.check(run.output == golden[i] && run.stats.total_cycles() == expected_cycles);
            walls.untraced += forward_s;

            let (walk, _, ns) = tracer.scope(
                "accelerator.forward",
                Some(root),
                vec![("request", i as u64)],
                |span| walk(tracer, span, i, d, x, &mut scratch),
            );
            let walk = walk?;
            walls.traced += ns as f64 / 1e9;
            let cycles: u64 = walk.layers.iter().map(|l| l.cycles).sum();
            out.check(walk.output == golden[i] && cycles == expected_cycles);
            if walk.layers.len() != V1_LAYERS {
                return Err(
                    format!("expected {V1_LAYERS} layers, walked {}", walk.layers.len()).into(),
                );
            }
            for (l, t) in walk.layers.iter().enumerate() {
                layer_us[l].push(t.host_ns as f64 / 1e3);
                layer_cycles[l] = t.cycles;
            }
            check_us.push(walk.layers.iter().map(|l| l.check_ns).sum::<u64>() as f64 / 1e3);
        }
    }

    out.push("plan.check_layer_us", "us", median(&check_us));
    let host_us: Vec<f64> = layer_us.iter().map(|s| median(s)).collect();
    for (l, us) in host_us.iter().enumerate() {
        out.push(format!("accelerator.L{l:02}.host_us"), "us", *us);
    }
    for (l, us) in host_us.iter().enumerate() {
        let per_cycle = us * 1e3 / layer_cycles[l].max(1) as f64;
        out.push(
            format!("accelerator.L{l:02}.ns_per_cycle"),
            "ns/cycle",
            per_cycle,
        );
    }
    Ok(())
}

/// One forward walked layer by layer through `Edea::run_layer_planned`.
struct Walk {
    output: Tensor3<i8>,
    layers: Vec<LayerTime>,
}

struct LayerTime {
    /// Host time of `Edea::run_layer_planned`.
    host_ns: u64,
    /// Host time of the `LayerPlan::check_layer` that call starts with.
    check_ns: u64,
    /// Modeled cycles (checked, never reported as speed).
    cycles: u64,
}

fn walk(
    tracer: &Tracer,
    forward: SpanId,
    request: usize,
    d: &Deployment,
    input: &Tensor3<i8>,
    scratch: &mut TileScratch,
) -> Result<Walk> {
    let edea: &Edea = d.accelerator();
    let plan: &NetworkPlan = d.plan();
    let mut x = input.clone();
    let mut layers = Vec::with_capacity(V1_LAYERS);
    for (l, (layer, lp)) in d.qnet().layers().iter().zip(plan.layers()).enumerate() {
        let s = layer.shape();
        if s.residual_save || s.residual_add {
            return Err("the layer walk covers MobileNetV1 (no residual stages)".into());
        }
        let (checked, _, check_ns) = tracer.scope(
            "plan.check_layer",
            Some(forward),
            vec![("request", request as u64), ("layer", l as u64)],
            |_| lp.check_layer(layer),
        );
        checked?;
        let (run, _, host_ns) = tracer.scope(
            format!("accelerator.L{l:02}"),
            Some(forward),
            vec![("request", request as u64)],
            |_| {
                edea.run_layer_planned(
                    layer,
                    lp,
                    std::slice::from_ref(&x),
                    WeightResidency::PerImage,
                    scratch,
                )
            },
        );
        let mut run = run?;
        layers.push(LayerTime {
            host_ns,
            check_ns,
            cycles: run.stats.cycles,
        });
        x = run.outputs.pop().ok_or("one image in, one image out")?;
    }
    Ok(Walk { output: x, layers })
}

/// Runs `a` and `b`, `a` first when `a_first`: probes alternate which
/// side of a traced/untraced pair runs first, so warm caches and freed
/// memory favour neither.
fn pair<A, B>(
    a_first: bool,
    a: impl FnOnce() -> Result<A>,
    b: impl FnOnce() -> Result<B>,
) -> Result<(A, B)> {
    if a_first {
        let a = a()?;
        Ok((a, b()?))
    } else {
        let b = b()?;
        Ok((a()?, b))
    }
}

/// Runs one serve inside a span named `name` that parents the spans of
/// the [`Traced`] backends it calls; returns the report, the span and its
/// host nanoseconds.
fn traced_serve(
    tracer: &Tracer,
    root: SpanId,
    name: &str,
    requests: usize,
    serve: impl FnOnce() -> std::result::Result<PoolReport, edea::core::CoreError>,
) -> Result<(PoolReport, SpanId, u64)> {
    let span = tracer.begin(name, Some(root), vec![("requests", requests as u64)]);
    tracer.set_root(Some(span));
    let report = serve();
    let ns = tracer.end(span);
    tracer.set_root(None);
    Ok((report?, span, ns))
}

/// `serve` and `par` on the `mixed_stream` stream.
fn serve(
    size: &Size,
    seed: u64,
    tracer: &Arc<Tracer>,
    root: SpanId,
    out: &mut Outcome,
    walls: &mut Walls,
) -> Result<()> {
    let case = MixedCase::new(size.mixed_requests, seed);
    let d = case.builder(1).build()?;
    let parallel = case.builder(parallel_threads()).build()?;
    let stream = case.stream(&d)?;
    let n = stream.requests.len();
    let backend = d.simulator_backend();
    let wrapped = Pool::replicate(Traced::new(backend.clone(), tracer.clone()), d.replicas())?
        .with_parallelism(d.parallelism());
    let dispatcher = Dispatcher::new(stream.policy, DispatchPolicy::LeastLoaded);

    let (mut v1, mut v2) = ((0u64, 0u64), (0u64, 0u64));
    let (mut backend_frac, mut speedup) = (Vec::new(), Vec::new());
    for rep in 0..size.trace_reps {
        let ((plain, plain_s), (report, span, ns)) = pair(
            rep % 2 == 0,
            || {
                let requests = stream.requests.clone();
                let (plain, s) =
                    timed(|| d.serve_pool(stream.policy, DispatchPolicy::LeastLoaded, requests));
                Ok((plain?, s))
            },
            || {
                let requests = stream.requests.clone();
                traced_serve(tracer, root, "serve.stream", n, || {
                    dispatcher.serve(&wrapped, requests)
                })
            },
        )?;
        out.count(n as u64, mixed_failures(&plain, &stream, backend));
        out.check(same_report(&report, &plain));
        walls.untraced += plain_s;
        walls.traced += ns as f64 / 1e9;
        let mut busy = 0u64;
        for s in tracer.children(span, "serve.backend") {
            let arg = |k: &str| s.args.iter().find(|a| a.0 == k).map_or(0, |a| a.1);
            let acc = if arg("network") == 0 {
                &mut v1
            } else {
                &mut v2
            };
            acc.0 += s.dur_ns();
            acc.1 += arg("images");
            busy += s.dur_ns();
        }
        backend_frac.push(busy as f64 / ns.max(1) as f64);

        let requests = stream.requests.clone();
        let (lanes, lanes_s) =
            timed(|| parallel.serve_pool(stream.policy, DispatchPolicy::LeastLoaded, requests));
        out.check(same_report(&lanes?, &plain));
        speedup.push(plain_s / lanes_s);
    }
    let per_img = |(ns, images): (u64, u64)| ns as f64 / 1e3 / images.max(1) as f64;
    out.push("serve.v1.us_per_img", "us/img", per_img(v1));
    out.push("serve.v2.us_per_img", "us/img", per_img(v2));
    out.push("serve.backend_frac", "ratio", median(&backend_frac));
    out.push("par.speedup", "ratio", median(&speedup));
    Ok(())
}

/// `pool` on the overload case, over three stream prefixes, and
/// `telemetry` on its shortest prefix. The loop dominates host time
/// there, so a sink's cost shows above host noise; next to simulator
/// execution (`mixed_stream`) the same cost is about 1 % of the wall.
/// The recorder and disabled serves alternate in many short pairs and
/// the median pair ratio is reported.
fn pool(
    size: &Size,
    seed: u64,
    tracer: &Arc<Tracer>,
    root: SpanId,
    out: &mut Outcome,
    walls: &mut Walls,
) -> Result<()> {
    let longest = size.pool_prefixes.iter().copied().max().unwrap_or(0);
    let case = OverloadCase::new(longest, seed)?;
    let plain = overload_pool(case.backend()?)?;
    let wrapped = overload_pool(Traced::new(case.backend()?, tracer.clone()))?;
    let dispatcher = case.dispatcher();
    let mut backend_frac = Vec::new();
    for (&n, label) in size.pool_prefixes.iter().zip(["1k", "10k", "50k"]) {
        let mut self_ns = Vec::new();
        for rep in 0..size.trace_reps {
            let ((report, plain_s), (traced, span, ns)) = pair(
                rep % 2 == 0,
                || {
                    let requests = case.requests(n)?;
                    let (report, s) = timed(|| dispatcher.serve(&plain, requests));
                    Ok((report?, s))
                },
                || {
                    let requests = case.requests(n)?;
                    traced_serve(tracer, root, "pool.serve", n, || {
                        dispatcher.serve(&wrapped, requests)
                    })
                },
            )?;
            out.count(n as u64, unanswered(&report, n));
            out.check(same_report(&traced, &report));
            walls.untraced += plain_s;
            walls.traced += ns as f64 / 1e9;
            let busy: u64 = tracer
                .children(span, "serve.backend")
                .iter()
                .map(|s| s.dur_ns())
                .sum();
            self_ns.push(ns.saturating_sub(busy) as f64 / n.max(1) as f64);
            if n == longest {
                backend_frac.push(busy as f64 / ns.max(1) as f64);
            }
        }
        out.push_positive(
            format!("pool.ns_per_req_{label}"),
            "ns/req",
            median(&self_ns),
        )?;
    }
    out.push("pool.backend_frac", "ratio", median(&backend_frac));

    let shortest = size.pool_prefixes[0];
    let reference = dispatcher.serve(&plain, case.requests(shortest)?)?;
    let mut ratios = Vec::with_capacity(size.telemetry_pairs);
    for rep in 0..size.telemetry_pairs {
        let recorder = Recorder::new();
        let (observed, disabled) = pair(
            rep % 2 == 0,
            || {
                let requests = case.requests(shortest)?;
                let (r, s) = timed(|| dispatcher.serve_with(&plain, requests, &recorder));
                Ok((r?, s))
            },
            || {
                let requests = case.requests(shortest)?;
                let (r, s) = timed(|| dispatcher.serve_with(&plain, requests, &Disabled));
                Ok((r?, s))
            },
        )?;
        out.check(same_report(&observed.0, &reference) && !recorder.is_empty());
        out.check(same_report(&disabled.0, &reference));
        ratios.push(observed.1 / disabled.1);
    }
    out.push_positive("telemetry.overhead_frac", "ratio", median(&ratios) - 1.0)
}
