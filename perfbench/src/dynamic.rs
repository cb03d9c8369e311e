//! The two simulated workloads: `paper_dynamic` (the Fig 7.10 sweep
//! through `ExperimentSpec::run_sweep`) and `stream_cube16` (a
//! message-bounded `run_dynamic_stream` on a 16-cube).
//!
//! The traced run replays each runner's loop through the same public
//! calls, with a span around every call into a layer, and checks that
//! the replay reproduces the runner's result bit for bit.

use std::hint::black_box;
use std::time::Instant;

use mcast_obs::Histogram;
use mcast_sim::engine::{CompletedMessage, Engine};
use mcast_sim::network::Network;
use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
use mcast_sim::routers::MulticastRouter;
use mcast_sim::{DeliveryPlan, PlanArena};
use mcast_topology::Topology;
use mcast_workload::{
    check_scenario, run_dynamic_stream, sweep_points, Accumulator, BatchMeans, DynamicConfig,
    DynamicResult, ExperimentSpec, MulticastGen, PatternSpec, StreamConfig, VerifyScenario,
};

use crate::report::{batched_s, Report, Timeline};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// The Fig 7.10 load grid (mean interarrival per node, µs) down to the
/// heaviest load at which neither scheme saturates; 280 µs saturates.
const PAPER_LOADS_US: [f64; 5] = [2000.0, 1200.0, 800.0, 600.0, 450.0];
const PAPER_SCHEMES: [&str; 2] = ["dual-path", "multi-path"];

/// The streaming workload: a 16-cube under light per-node load, far
/// below the backpressure cap, bounded by a message count.
const STREAM_TOPOLOGY: &str = "cube:16";
const STREAM_SCHEME: &str = "dual-path";
const STREAM_K: usize = 8;
const STREAM_INTERARRIVAL_NS: f64 = 100_000_000.0;
const STREAM_MESSAGES: u64 = 4_000;
const STREAM_CAP: usize = 4096;

/// Messages per conformance scenario (optimized engine vs reference).
const CONFORM_MESSAGES: usize = 200;

pub fn paper_spec(seed: u64) -> ExperimentSpec {
    let topo = TopoSpec::parse("mesh:8x8").expect("mesh:8x8 parses");
    let mut spec = ExperimentSpec::new("perfbench-paper-dynamic", topo);
    spec.schemes = PAPER_SCHEMES.iter().map(|s| SchemeId::named(s)).collect();
    spec.loads_us = PAPER_LOADS_US.to_vec();
    spec.destinations = 10;
    spec.replications = 1;
    spec.seed = seed;
    // A fixed 20 batches per point: a CI rule that may stop a point
    // early would make the work per sweep, and so its host time,
    // depend on the seed.
    spec.stopping.min_batches = 20;
    spec.stopping.max_batches = 20;
    spec
}

fn stream_config(seed: u64) -> (DynamicConfig, StreamConfig) {
    let cfg = DynamicConfig {
        destinations: STREAM_K,
        mean_interarrival_ns: STREAM_INTERARRIVAL_NS,
        seed,
        ..DynamicConfig::default()
    };
    let stream = StreamConfig {
        messages: Some(STREAM_MESSAGES),
        duration_ns: None,
        max_in_flight: STREAM_CAP,
    };
    (cfg, stream)
}

/// Every field of a [`DynamicResult`] the replay must reproduce, with
/// floats compared by their bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    completed: usize,
    measured: usize,
    batches: usize,
    engine_steps: u64,
    flit_hops: u64,
    sim_time_ns: u64,
    mean_latency_bits: u64,
    ci_bits: u64,
    traffic_bits: u64,
    latency_sum_bits: u64,
    hist: (u64, u64, u64, u64),
    saturated: bool,
    converged: bool,
    budget_exhausted: bool,
    peak_live_worms: usize,
    peak_in_flight: usize,
}

fn fingerprint(r: &DynamicResult) -> Fingerprint {
    let hist = &r.latency_hist_ns;
    Fingerprint {
        completed: r.completed,
        measured: r.measured,
        batches: r.batches,
        engine_steps: r.engine_steps,
        flit_hops: r.flit_hops,
        sim_time_ns: r.sim_time_ns,
        mean_latency_bits: r.mean_latency_us.to_bits(),
        ci_bits: r.ci_us.to_bits(),
        traffic_bits: r.mean_traffic.to_bits(),
        latency_sum_bits: r.latency_stats.mean().to_bits(),
        hist: (hist.count(), hist.p50(), hist.p99(), hist.max()),
        saturated: r.saturated,
        converged: r.converged,
        budget_exhausted: r.budget_exhausted,
        peak_live_worms: r.peak_live_worms,
        peak_in_flight: r.peak_in_flight,
    }
}

/// The runners' statistics fold over completed messages.
struct Fold {
    warmup: usize,
    completions: usize,
    latencies: BatchMeans,
    hist: Histogram,
    stats: Accumulator,
    traffic: Accumulator,
}

impl Fold {
    fn push(&mut self, done: &CompletedMessage) {
        self.completions += 1;
        if self.completions <= self.warmup {
            return;
        }
        let us = (done.completed_at - done.injected_at) as f64 / 1000.0;
        self.latencies.push(us);
        self.stats.push(us);
        self.hist.record(done.completed_at - done.injected_at);
        self.traffic.push(done.traffic as f64);
    }
}

/// What one replay measured beyond the runner's own result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    injected: u64,
    plan_worms: u64,
    plan_channels: u64,
    engine_steps: u64,
    flit_hops: u64,
}

struct Replayed {
    fingerprint: Fingerprint,
    counts: Counts,
    message_slots: usize,
    peak_live_worms: usize,
    peak_in_flight: usize,
    latency: Accumulator,
}

/// Replays `run_dynamic` (`stream == None`) or `run_dynamic_stream`
/// statement by statement, with a span around every call into a layer.
/// Whatever is not inside a child span — chiefly the scan for the next
/// generator to fire — is the root span's self time.
fn replay<T: Topology + ?Sized>(
    topo: &T,
    router: &dyn MulticastRouter,
    cfg: &DynamicConfig,
    stream: Option<&StreamConfig>,
    tr: &mut Tracer,
) -> Replayed {
    let mut engine = tr.span(Layer::SetupNetwork, 0, || {
        let network = Network::new(topo, router.required_classes());
        let mut engine = Engine::new(network, cfg.sim);
        if stream.is_some() {
            engine.set_stream_mode(true);
        }
        engine
    });
    engine.set_engine_jobs(cfg.engine_jobs);
    let n = topo.num_nodes();
    let mean = cfg.mean_interarrival_ns;
    let mut gen = tr.span(Layer::Gen, 0, || MulticastGen::new(n, cfg.seed));
    let mut next_gen: Vec<(u64, usize)> = tr.span(Layer::Gen, 0, || {
        (0..n)
            .map(|node| (gen.exponential_ns(mean), node))
            .collect()
    });
    let mut fold = Fold {
        warmup: cfg.warmup,
        completions: 0,
        latencies: BatchMeans::new(cfg.batch_size),
        hist: Histogram::new(),
        stats: Accumulator::new(),
        traffic: Accumulator::new(),
    };
    let mut saturated = false;
    let mut injected = 0u64;
    let mut counts = Counts::default();
    let mut arena = PlanArena::new();
    let mut plan = DeliveryPlan {
        source: 0,
        destinations: Vec::new(),
        worms: Vec::new(),
    };

    'source: loop {
        let (&(t, node), _) = next_gen
            .iter()
            .zip(0..)
            .min_by_key(|((t, node), _)| (*t, *node))
            .expect("generators exist");
        if let Some(stream) = stream {
            if stream.duration_ns.is_some_and(|d| t > d) {
                break;
            }
            while engine.in_flight() >= stream.max_in_flight {
                tr.span(Layer::Stats, injected, || {
                    engine.drain_completed(|done| fold.push(done))
                });
                if engine.in_flight() < stream.max_in_flight {
                    break;
                }
                match engine.next_event_time() {
                    Some(te) => {
                        tr.span(Layer::EngineRun, injected, || engine.run_until(te));
                    }
                    None => {
                        saturated = true;
                        break 'source;
                    }
                }
                if engine.budget_exhausted() {
                    break 'source;
                }
            }
        }
        tr.span(Layer::EngineRun, injected, || engine.run_until(t));
        let mc = tr.span(Layer::Gen, injected, || {
            cfg.pattern.apply(
                injected,
                gen.multicast_distinct(node, cfg.destinations.min(n - 1)),
            )
        });
        if stream.is_some() {
            tr.span(Layer::Plan, injected, || {
                router.plan_into(&mc, &mut arena, &mut plan)
            });
        } else {
            plan = tr.span(Layer::Plan, injected, || router.plan(&mc));
        }
        counts.plan_worms += plan.worms.len() as u64;
        counts.plan_channels += plan.traffic() as u64;
        tr.span(Layer::Inject, injected, || engine.inject(&plan));
        injected += 1;
        tr.span(Layer::Gen, injected - 1, || {
            next_gen[node].0 = t + gen.exponential_ns(mean)
        });
        tr.span(Layer::Stats, injected - 1, || {
            if stream.is_some() {
                engine.drain_completed(|done| fold.push(done));
            } else {
                for done in engine.take_completed() {
                    fold.push(&done);
                }
            }
        });

        match stream {
            Some(s) if s.messages.is_some() => {
                if s.messages.is_some_and(|m| injected >= m) {
                    break;
                }
            }
            Some(s) if s.duration_ns.is_some() => {}
            _ => {
                if fold.latencies.batches() >= cfg.max_batches
                    || fold.latencies.converged(cfg.min_batches, cfg.ci_ratio)
                {
                    break;
                }
                if engine.in_flight() > cfg.max_in_flight_per_node * n {
                    saturated = true;
                    break;
                }
            }
        }
        if engine.budget_exhausted() {
            break;
        }
    }

    let drain_tail = stream.is_some_and(|s| s.messages.is_some() || s.duration_ns.is_some());
    if drain_tail && !saturated && !engine.budget_exhausted() {
        tr.span(Layer::EngineRun, injected, || engine.run_to_quiescence());
        tr.span(Layer::Stats, injected, || {
            engine.drain_completed(|done| fold.push(done))
        });
    }

    counts.injected = injected;
    counts.engine_steps = engine.steps();
    counts.flit_hops = engine.flit_hops();
    let result = DynamicResult {
        mean_latency_us: fold.latencies.mean(),
        ci_us: fold.latencies.ci_half_width_95(),
        batches: fold.latencies.batches(),
        measured: fold.latencies.observations(),
        mean_traffic: fold.traffic.mean(),
        saturated,
        converged: fold.latencies.converged(cfg.min_batches, cfg.ci_ratio),
        sim_time_ns: engine.now(),
        latency_hist_ns: fold.hist,
        latency_stats: fold.stats,
        completed: fold.completions,
        flit_hops: engine.flit_hops(),
        engine_steps: engine.steps(),
        budget_exhausted: engine.budget_exhausted(),
        peak_live_worms: engine.peak_live_worms(),
        peak_in_flight: engine.peak_in_flight(),
    };
    Replayed {
        fingerprint: fingerprint(&result),
        counts,
        message_slots: engine.message_slots(),
        peak_live_worms: result.peak_live_worms,
        peak_in_flight: result.peak_in_flight,
        latency: result.latency_stats,
    }
}

fn conform(rep: &mut Report, topology: &str, scheme: &str, load_us: f64, k: usize, seed: u64) {
    let scenario = VerifyScenario {
        topology: TopoSpec::parse(topology).expect("benchmark topology parses"),
        scheme: SchemeId::named(scheme),
        pattern: PatternSpec::Uniform,
        load_us,
        destinations: k,
        messages: CONFORM_MESSAGES,
        seed,
        fault_rate: 0.0,
        engine_jobs: 1,
        stream: false,
    };
    match check_scenario(&scenario, false) {
        Ok(problems) => rep.check(problems.is_empty(), || {
            format!("{topology} {scheme}: optimized engine differs from reference: {problems:?}")
        }),
        Err(e) => rep.check(false, || format!("{topology} {scheme}: {e}")),
    }
}

/// Conformance scenarios at each dynamic workload's offered load. The
/// reference engine draws one Poisson stream for the whole network, so
/// its mean interarrival is the per-node mean divided by the node count.
pub fn gate_paper(args: &Args, rep: &mut Report) {
    let nodes = 64.0;
    let heaviest = PAPER_LOADS_US[PAPER_LOADS_US.len() - 1];
    for scheme in PAPER_SCHEMES {
        conform(rep, "mesh:8x8", scheme, heaviest / nodes, 10, args.seed);
    }
}

pub fn gate_stream(args: &Args, rep: &mut Report) {
    let nodes = (1u64 << 16) as f64;
    let load_us = STREAM_INTERARRIVAL_NS / 1000.0 / nodes;
    conform(
        rep,
        STREAM_TOPOLOGY,
        STREAM_SCHEME,
        load_us,
        STREAM_K,
        args.seed,
    );
}

fn check_paper_rows(rep: &mut Report, rows: &[mcast_workload::SweepRow]) {
    for row in rows {
        rep.check(!row.result.saturated, || {
            format!(
                "{} at {} ns saturated",
                row.point.scheme, row.point.mean_interarrival_ns
            )
        });
        rep.check(!row.result.budget_exhausted, || {
            format!(
                "{} at {} ns hit its step budget",
                row.point.scheme, row.point.mean_interarrival_ns
            )
        });
    }
}

fn check_stream(rep: &mut Report, r: &DynamicResult) {
    rep.check(!r.saturated, || "stream run saturated".to_string());
    rep.check(r.completed as u64 == STREAM_MESSAGES, || {
        format!("{} of {STREAM_MESSAGES} multicasts delivered", r.completed)
    });
    rep.check(r.peak_in_flight < STREAM_CAP, || {
        format!(
            "peak in flight {} reached the cap {STREAM_CAP}",
            r.peak_in_flight
        )
    });
}

fn sweep_fingerprints(rows: &[mcast_workload::SweepRow]) -> Vec<Fingerprint> {
    rows.iter().map(|r| fingerprint(&r.result)).collect()
}

pub fn measure_paper(args: &Args, rep: &mut Report) {
    let spec = paper_spec(args.seed);
    let text = spec.to_json();
    // Everything `run_sweep` does before it simulates: parse and
    // validate the spec, build the topology and routers, and one
    // network and engine per sweep point.
    let setup = || {
        let spec = ExperimentSpec::from_json(&text).expect("spec round-trips");
        spec.validate().expect("spec is valid");
        let built = spec.topology.build();
        let routers = spec.build_routers().expect("routers build");
        let cfg = spec.base_config();
        for (_, router) in &routers {
            for _ in &spec.loads_us {
                let network = Network::new(built.as_dyn(), router.required_classes());
                black_box(Engine::new(network, cfg.sim));
            }
        }
    };
    let mut timeline = Timeline::new();
    let mut first: Option<Vec<Fingerprint>> = None;
    while timeline.jobs.is_empty() || timeline.now() < args.seconds {
        timeline.maybe_setup(1, || batched_s(0.05, setup));
        let t = Instant::now();
        let rows = spec.run_sweep(1).expect("sweep runs");
        let mcasts = rows.iter().map(|r| r.result.completed as u64).sum();
        timeline.job(t.elapsed().as_secs_f64(), mcasts);
        rep.ops(rows.len() as u64);
        check_paper_rows(rep, &rows);
        let fp = sweep_fingerprints(&rows);
        match &first {
            None => first = Some(fp),
            Some(f) => rep.check(*f == fp, || "repeated sweep differs".to_string()),
        }
    }
    timeline.report(rep);
}

pub fn measure_stream(args: &Args, rep: &mut Report) {
    let (cfg, stream) = stream_config(args.seed);
    let setup = || {
        let t = Instant::now();
        let topo = TopoSpec::parse(STREAM_TOPOLOGY).expect("topology parses");
        let built = topo.build();
        let router = build_router(&topo, &SchemeId::named(STREAM_SCHEME)).expect("router");
        let network = Network::new(built.as_dyn(), router.required_classes());
        let mut engine = Engine::new(network, cfg.sim);
        engine.set_stream_mode(true);
        black_box(&engine);
        t.elapsed().as_secs_f64()
    };
    let topo = TopoSpec::parse(STREAM_TOPOLOGY).expect("topology parses");
    let built = topo.build();
    let router = build_router(&topo, &SchemeId::named(STREAM_SCHEME)).expect("router");
    let mut timeline = Timeline::new();
    let mut first: Option<Fingerprint> = None;
    while timeline.jobs.is_empty() || timeline.now() < args.seconds {
        timeline.maybe_setup(1, setup);
        let t = Instant::now();
        let r = run_dynamic_stream(built.as_dyn(), router.as_ref(), &cfg, &stream);
        timeline.job(t.elapsed().as_secs_f64(), STREAM_MESSAGES);
        rep.ops(STREAM_MESSAGES);
        check_stream(rep, &r);
        let fp = fingerprint(&r);
        match &first {
            None => first = Some(fp),
            Some(f) => rep.check(*f == fp, || "repeated stream run differs".to_string()),
        }
    }
    timeline.report(rep);
}

/// Exact totals of one traced repetition, compared across repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobCounts {
    counts: Counts,
    /// Allocations in all layers, then in plan, inject and engine run.
    allocs: [u64; 4],
}

struct TraceRun {
    untraced_s: f64,
    traced_s: f64,
    jobs: u64,
    first: Option<JobCounts>,
    injected: u64,
    engine_steps: u64,
    gauges: (usize, usize, usize),
    latency: Accumulator,
}

impl TraceRun {
    fn new() -> TraceRun {
        TraceRun {
            untraced_s: 0.0,
            traced_s: 0.0,
            jobs: 0,
            first: None,
            injected: 0,
            engine_steps: 0,
            gauges: (0, 0, 0),
            latency: Accumulator::new(),
        }
    }

    /// Closes one repetition: folds in its replays and checks its exact
    /// counts against the first repetition's. `allocs_before` is
    /// [`alloc_totals`] from before the repetition.
    fn end_job(
        &mut self,
        rep: &mut Report,
        tr: &Tracer,
        replays: &[Replayed],
        allocs_before: [u64; 4],
    ) {
        let mut counts = Counts::default();
        for r in replays {
            counts.injected += r.counts.injected;
            counts.plan_worms += r.counts.plan_worms;
            counts.plan_channels += r.counts.plan_channels;
            counts.engine_steps += r.counts.engine_steps;
            counts.flit_hops += r.counts.flit_hops;
            self.gauges.0 = self.gauges.0.max(r.peak_live_worms);
            self.gauges.1 = self.gauges.1.max(r.peak_in_flight);
            self.gauges.2 = self.gauges.2.max(r.message_slots);
            self.latency.merge(&r.latency);
        }
        self.injected += counts.injected;
        self.engine_steps += counts.engine_steps;
        let now = alloc_totals(tr);
        let job = JobCounts {
            counts,
            allocs: std::array::from_fn(|i| now[i] - allocs_before[i]),
        };
        self.jobs += 1;
        match &self.first {
            None => self.first = Some(job),
            Some(f) => rep.check(*f == job, || {
                format!("exact counts differ between traced repetitions: {f:?} vs {job:?}")
            }),
        }
    }

    fn report(&self, rep: &mut Report, tr: &Tracer) {
        let per_job = self.first.clone().expect("at least one traced job");
        let inj = self.injected as f64;
        let ns = |l: Layer| tr.total(l).self_ns as f64;
        let per_mcast = |l: Layer| ns(l) / inj;
        let jobs = self.jobs as f64;
        rep.metric("setup.topology_ms", ns(Layer::SetupTopology) / jobs / 1e6);
        rep.metric("setup.router_ms", ns(Layer::SetupRouter) / jobs / 1e6);
        rep.metric("setup.network_ms", ns(Layer::SetupNetwork) / jobs / 1e6);
        rep.metric("dynamic.select_ns_per_mcast", per_mcast(Layer::Root));
        rep.metric("gen.ns_per_mcast", per_mcast(Layer::Gen));
        rep.metric("plan.ns_per_mcast", per_mcast(Layer::Plan));
        let pc = per_job.counts;
        let pinj = pc.injected as f64;
        rep.metric("plan.allocs_per_mcast", per_job.allocs[1] as f64 / pinj);
        rep.metric("plan.worms_per_mcast", pc.plan_worms as f64 / pinj);
        rep.metric("plan.channels_per_mcast", pc.plan_channels as f64 / pinj);
        rep.metric("inject.ns_per_mcast", per_mcast(Layer::Inject));
        rep.metric("inject.allocs_per_mcast", per_job.allocs[2] as f64 / pinj);
        rep.metric("engine.run_ns_per_mcast", per_mcast(Layer::EngineRun));
        rep.metric(
            "engine.run_allocs_per_mcast",
            per_job.allocs[3] as f64 / pinj,
        );
        rep.metric(
            "engine.ns_per_step",
            ns(Layer::EngineRun) / self.engine_steps as f64,
        );
        rep.metric("engine.steps_per_mcast", pc.engine_steps as f64 / pinj);
        rep.metric("engine.flit_hops_per_mcast", pc.flit_hops as f64 / pinj);
        rep.metric("engine.peak_live_worms", self.gauges.0 as f64);
        rep.metric("engine.peak_in_flight", self.gauges.1 as f64);
        rep.metric("engine.message_slots", self.gauges.2 as f64);
        rep.metric("stats.ns_per_mcast", per_mcast(Layer::Stats));
        rep.metric("sim.latency_us", self.latency.mean());
        rep.metric("count.mcasts", pinj);
        rep.metric("count.engine_steps", pc.engine_steps as f64);
        rep.metric("count.flit_hops", pc.flit_hops as f64);
        rep.metric("count.allocs", per_job.allocs[0] as f64);
        rep.metric("count.plan_worms", pc.plan_worms as f64);
        rep.metric("count.plan_channels", pc.plan_channels as f64);
        report_overhead(rep, tr, self.untraced_s, self.traced_s, jobs);
    }
}

/// Allocation totals: all layers, then plan, inject and engine run.
fn alloc_totals(tr: &Tracer) -> [u64; 4] {
    [
        tr.allocs_sum(),
        tr.total(Layer::Plan).self_allocs,
        tr.total(Layer::Inject).self_allocs,
        tr.total(Layer::EngineRun).self_allocs,
    ]
}

/// Reports the tracing overhead and checks that the layers' self times
/// account for the traced host time.
pub fn report_overhead(rep: &mut Report, tr: &Tracer, untraced_s: f64, traced_s: f64, jobs: f64) {
    rep.metric("trace.overhead_frac", traced_s / untraced_s - 1.0);
    rep.metric("trace.host_ms", traced_s / jobs * 1e3);
    let covered = tr.self_ns_sum() as f64 / 1e9;
    rep.check((covered - traced_s).abs() <= 1e-3 * traced_s + 1e-4, || {
        format!("layer self times sum to {covered} s, traced host time is {traced_s} s")
    });
}

pub fn trace_paper(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let spec = paper_spec(args.seed);
    let sweep = spec.sweep_config();
    let names: Vec<&str> = PAPER_SCHEMES.to_vec();
    let points = sweep_points(&names, &sweep);
    let mut run = TraceRun::new();
    let start = Instant::now();
    while run.jobs < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let rows = spec.run_sweep(1).expect("sweep runs");
        run.untraced_s += t.elapsed().as_secs_f64();
        rep.ops(rows.len() as u64);
        check_paper_rows(rep, &rows);

        let allocs_before = alloc_totals(tr);
        let t = Instant::now();
        tr.enter(Layer::Root, run.jobs);
        let built = tr.span(Layer::SetupTopology, 0, || spec.topology.build());
        let routers = tr.span(Layer::SetupRouter, 0, || {
            spec.build_routers().expect("routers")
        });
        let mut replays = Vec::with_capacity(points.len());
        for point in &points {
            let (_, router) = routers
                .iter()
                .find(|(name, _)| *name == point.scheme)
                .expect("point scheme is in the spec");
            let mut cfg = sweep.base.clone();
            cfg.mean_interarrival_ns = point.mean_interarrival_ns;
            cfg.seed = point.seed;
            replays.push(replay(built.as_dyn(), router.as_ref(), &cfg, None, tr));
        }
        tr.exit();
        run.traced_s += t.elapsed().as_secs_f64();
        tr.record = false;

        for (row, r) in rows.iter().zip(&replays) {
            let fp = fingerprint(&row.result);
            rep.check(fp == r.fingerprint, || {
                format!(
                    "replay of {} at {} ns differs from run_sweep: {:?} vs {:?}",
                    row.point.scheme, row.point.mean_interarrival_ns, r.fingerprint, fp
                )
            });
        }
        run.end_job(rep, tr, &replays, allocs_before);
    }
    run.report(rep, tr);
}

pub fn trace_stream(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let (cfg, stream) = stream_config(args.seed);
    let scheme = SchemeId::named(STREAM_SCHEME);
    let mut run = TraceRun::new();
    let start = Instant::now();
    while run.jobs < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // The untraced job builds the topology and router too, as the
        // traced replay does, so the two host times cover the same work.
        let t = Instant::now();
        let topo = TopoSpec::parse(STREAM_TOPOLOGY).expect("topology parses");
        let built = topo.build();
        let router = build_router(&topo, &scheme).expect("router");
        let real = run_dynamic_stream(built.as_dyn(), router.as_ref(), &cfg, &stream);
        run.untraced_s += t.elapsed().as_secs_f64();
        rep.ops(STREAM_MESSAGES);
        check_stream(rep, &real);

        let allocs_before = alloc_totals(tr);
        let t = Instant::now();
        tr.enter(Layer::Root, run.jobs);
        let (topo, built) = tr.span(Layer::SetupTopology, 0, || {
            let topo = TopoSpec::parse(STREAM_TOPOLOGY).expect("topology parses");
            let built = topo.build();
            (topo, built)
        });
        let router = tr.span(Layer::SetupRouter, 0, || {
            build_router(&topo, &scheme).expect("router")
        });
        let r = replay(built.as_dyn(), router.as_ref(), &cfg, Some(&stream), tr);
        tr.exit();
        run.traced_s += t.elapsed().as_secs_f64();
        tr.record = false;

        let fp = fingerprint(&real);
        rep.check(fp == r.fingerprint, || {
            format!(
                "replay differs from run_dynamic_stream: {:?} vs {fp:?}",
                r.fingerprint
            )
        });
        run.end_job(rep, tr, &[r], allocs_before);
    }
    run.report(rep, tr);
}
