//! The `serve_mix` workload: a closed loop of clients against a
//! one-worker `JobServer` journaling to disk. Two jobs in five repeat
//! a spec that already has a result (cache hits answered inside
//! `submit_text`); the rest are small new specs that run a sweep.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mcast_obs::{Json, MetricValue};
use mcast_sim::registry::{SchemeId, TopoSpec};
use mcast_sim::{Engine, Network};
use mcast_workload::{
    render_result, replication_seed, ExperimentSpec, JobServer, ServeConfig, StoppingRule,
    SubmitStatus,
};

use crate::dynamic::report_overhead;
use crate::report::{quantile, Report, Timeline};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// Clients in the closed loop. Each has at most one job outstanding.
const CLIENTS: u64 = 4;
/// Jobs in one traced session (and in the journal replayed at set-up).
const SESSION_JOBS: u64 = 500;
/// Untraced job latencies the traced run pools before it reports a
/// p99, so that more than ten samples lie beyond it.
const P99_SAMPLES: usize = 1_100;
/// New jobs re-run from scratch to check their results byte for byte.
const SAMPLED: usize = 5;

/// Jobs 1 and 3 of every 5 repeat an earlier spec: a 40% hit share
/// keeps the median job a cache miss instead of sitting on the
/// boundary between the two latency clusters.
fn is_hit(job: u64) -> bool {
    matches!(job % 5, 1 | 3)
}

/// A small new spec: one scheme, one load, a fixed stopping rule.
fn new_spec(seed: u64, job: u64) -> ExperimentSpec {
    const TOPOLOGIES: [&str; 4] = ["mesh:4x4", "mesh:6x6", "cube:4", "cube:5"];
    const SCHEMES: [&str; 2] = ["dual-path", "multi-path"];
    const LOADS_US: [f64; 2] = [1000.0, 2000.0];
    let h = replication_seed(seed, job);
    let topo = TopoSpec::parse(TOPOLOGIES[(h % 4) as usize]).expect("topology parses");
    let mut spec = ExperimentSpec::new("perfbench-serve", topo);
    spec.schemes = vec![SchemeId::named(SCHEMES[((h >> 8) % 2) as usize])];
    spec.loads_us = vec![LOADS_US[((h >> 16) % 2) as usize]];
    spec.destinations = 2 + ((h >> 24) % 3) as usize;
    spec.replications = 1;
    // Unique per (seed, job), and below 2^53 so the JSON number is exact.
    spec.seed = ((h >> 11) & !0xfffff) | (job & 0xfffff);
    spec.stopping = StoppingRule {
        warmup: 50,
        batch_size: 20,
        min_batches: 3,
        max_batches: 3,
        ..StoppingRule::default()
    };
    spec
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Multicasts delivered and the pooled mean latency of a result.
fn result_totals(result: &str) -> (u64, f64) {
    let json = Json::parse(result).expect("results are JSON");
    let rows = json.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_num).unwrap_or(0.0);
    let completed = rows.iter().map(|r| num(r, "completed")).sum::<f64>();
    let weighted = rows
        .iter()
        .map(|r| num(r, "mean_latency_us") * num(r, "measured"))
        .sum::<f64>();
    let measured = rows.iter().map(|r| num(r, "measured")).sum::<f64>();
    (completed as u64, weighted / measured.max(1.0))
}

/// What one session left behind, for the checks after timing.
struct Session {
    /// (spec, first result, index in the timeline) of every new job.
    done: Vec<(ExperimentSpec, String, usize)>,
    /// (index into `done`, result returned) of every cache hit.
    hits: Vec<(usize, String)>,
    jobs: u64,
    mcasts: u64,
    latency_weighted: f64,
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the closed loop on a fresh server in `dir` until `stop` says
/// so. Each round every client submits one job; then each client in
/// turn waits for its result and reads it. A job's latency runs from
/// its submission to the moment its client holds the result.
fn session(
    dir: &Path,
    seed: u64,
    rep: &mut Report,
    mut tr: Option<&mut Tracer>,
    timeline: &mut Timeline,
    mut stop: impl FnMut(u64, &mut Timeline) -> bool,
) -> Session {
    let server = match tr.as_deref_mut() {
        Some(tr) => tr.span(Layer::ServeOpen, 0, || JobServer::open(dir, config())),
        None => JobServer::open(dir, config()),
    }
    .expect("server opens");
    let mut s = Session {
        done: Vec::new(),
        hits: Vec::new(),
        jobs: 0,
        mcasts: 0,
        latency_weighted: 0.0,
    };
    while !stop(s.jobs, timeline) {
        let mut round = Vec::with_capacity(CLIENTS as usize);
        for _ in 0..CLIENTS {
            let job = s.jobs;
            s.jobs += 1;
            let hit = if is_hit(job) && !s.done.is_empty() {
                Some((replication_seed(seed ^ 0x5e7e, job) % s.done.len() as u64) as usize)
            } else {
                None
            };
            let spec = match hit {
                Some(i) => s.done[i].0.clone(),
                None => new_spec(seed, job),
            };
            let text = spec.to_json();
            let t0 = Instant::now();
            let status = match tr.as_deref_mut() {
                Some(tr) => {
                    let parsed =
                        tr.span(Layer::SpecParse, job, || ExperimentSpec::from_json(&text));
                    let parsed = parsed.expect("benchmark specs parse");
                    tr.span(Layer::SpecToJson, job, || parsed.to_json());
                    if hit.is_none() {
                        setup_probe(tr, &parsed, job);
                    }
                    tr.span(Layer::ServeSubmit, job, || server.submit_text(&text))
                }
                None => server.submit_text(&text),
            };
            let status = match status {
                Ok((_, status)) => status,
                Err(e) => {
                    rep.fail(format!("submit failed: {e}"));
                    continue;
                }
            };
            if status == SubmitStatus::Shed {
                rep.fail(format!("job {job} was shed"));
            }
            round.push((t0, spec, text, hit));
        }
        for (t0, spec, text, hit) in round {
            // A client whose result is not there yet drains the queue;
            // the first such call runs every job queued this round.
            if server.cached_result(&text).is_none() {
                match tr.as_deref_mut() {
                    Some(tr) => tr.span(Layer::ServeDrain, s.jobs, || server.run_until_drained()),
                    None => server.run_until_drained(),
                }
            }
            let Some(result) = server.cached_result(&text) else {
                rep.fail(format!("no result for spec {}", spec.seed));
                continue;
            };
            timeline.job(t0.elapsed().as_secs_f64(), 0);
            match hit {
                Some(i) => s.hits.push((i, result)),
                None => s.done.push((spec, result, timeline.jobs.len() - 1)),
            }
        }
    }
    let checks = Instant::now();
    rep.ops(s.jobs);
    let ledger = server.ledger();
    rep.check(
        ledger.balanced() && ledger.failed == 0 && ledger.shed == 0 && ledger.accepted == s.jobs,
        || format!("ledger {ledger} after {} jobs", s.jobs),
    );
    for (_, result, job) in &s.done {
        let (mcasts, latency) = result_totals(result);
        timeline.jobs[*job].2 = mcasts;
        s.mcasts += mcasts;
        s.latency_weighted += latency;
    }
    for (i, result) in &s.hits {
        rep.check(*result == s.done[*i].1, || {
            format!(
                "cache hit on spec {} returned other bytes",
                s.done[*i].0.seed
            )
        });
    }
    let cache_hits = match server.metrics_registry().get("service.jobs.cache_hits") {
        Some(MetricValue::Counter(c)) => c.get(),
        _ => 0,
    };
    rep.check(cache_hits == s.hits.len() as u64, || {
        format!(
            "server counted {cache_hits} cache hits, clients saw {}",
            s.hits.len()
        )
    });
    timeline.exclude(checks);
    s
}

/// Times the set-up a new job's sweep performs, outside the server:
/// topology, routers, and one network and engine.
fn setup_probe(tr: &mut Tracer, spec: &ExperimentSpec, job: u64) {
    let built = tr.span(Layer::SetupTopology, job, || spec.topology.build());
    let routers = tr.span(Layer::SetupRouter, job, || {
        spec.build_routers().expect("routers")
    });
    let sim = spec.base_config().sim;
    tr.span(Layer::SetupNetwork, job, || {
        for (_, router) in &routers {
            let network = Network::new(built.as_dyn(), router.required_classes());
            drop(Engine::new(network, sim));
        }
    });
}

/// Re-runs a sample of new jobs from scratch and compares bytes.
fn check_sample(rep: &mut Report, s: &Session) {
    let step = (s.done.len() / SAMPLED).max(1);
    for (spec, result, _) in s.done.iter().step_by(step).take(SAMPLED) {
        let rows = spec.run_sweep(1).expect("sampled spec runs");
        rep.check(render_result(spec, &rows) == *result, || {
            format!("result of spec {} differs from a fresh run", spec.seed)
        });
    }
}

/// Writes a journal of `SESSION_JOBS` jobs with specs no timed session
/// uses, for the replay at set-up.
fn prepare_journal(args: &Args, rep: &mut Report) -> PathBuf {
    let dir = fresh_dir(&args.work_dir, "replay");
    let mut timeline = Timeline::new();
    session(
        &dir,
        args.seed ^ 0x0123_4567_89ab,
        rep,
        None,
        &mut timeline,
        |jobs, _| jobs >= SESSION_JOBS,
    );
    dir
}

pub fn gate(args: &Args, rep: &mut Report) {
    let dir = fresh_dir(&args.work_dir, "gate");
    let s = session(
        &dir,
        args.seed,
        rep,
        None,
        &mut Timeline::new(),
        |jobs, _| jobs >= 60,
    );
    check_sample(rep, &s);
}

pub fn measure(args: &Args, rep: &mut Report) {
    let replay_dir = prepare_journal(args, rep);
    let replay = || {
        let t = Instant::now();
        drop(JobServer::open(&replay_dir, config()).expect("journal replays"));
        t.elapsed().as_secs_f64()
    };
    // Fresh servers of `SESSION_JOBS` jobs each, so that the result
    // cache, and with it the peak memory, does not grow with the run.
    let mut timeline = Timeline::new();
    let mut first = None;
    let mut sessions = 0;
    while timeline.jobs.is_empty() || timeline.now() < args.seconds {
        let dir = fresh_dir(&args.work_dir, "measure");
        let seed = replication_seed(args.seed, sessions);
        let s = session(&dir, seed, rep, None, &mut timeline, |jobs, timeline| {
            timeline.maybe_setup(200, replay);
            jobs >= SESSION_JOBS || timeline.now() >= args.seconds
        });
        first.get_or_insert(s);
        sessions += 1;
    }
    timeline.report(rep);
    check_sample(rep, &first.expect("at least one session"));
}

fn journal_size(dir: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(dir.join("journal.log")).unwrap_or_default();
    (text.lines().count() as u64, text.len() as u64)
}

pub fn trace(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let replay_dir = prepare_journal(args, rep);
    let t = Instant::now();
    drop(JobServer::open(&replay_dir, config()).expect("journal replays"));
    rep.metric("serve.replay_ms", t.elapsed().as_secs_f64() * 1e3);

    let (mut untraced_s, mut traced_s, mut reps) = (0.0, 0.0, 0u64);
    let mut latencies = Vec::new();
    let mut first: Option<(u64, u64, u64, u64)> = None;
    let (mut misses, mut hits, mut latency) = (0u64, 0u64, 0.0);
    let start = Instant::now();
    while reps < 2 || latencies.len() < P99_SAMPLES || start.elapsed().as_secs_f64() < args.seconds
    {
        let dir = fresh_dir(&args.work_dir, "untraced");
        let mut timeline = Timeline::new();
        let t = Instant::now();
        session(&dir, args.seed, rep, None, &mut timeline, |jobs, _| {
            jobs >= SESSION_JOBS
        });
        untraced_s += t.elapsed().as_secs_f64();
        latencies.extend(timeline.jobs.iter().map(|j| j.1));

        let dir = fresh_dir(&args.work_dir, "traced");
        let allocs_before = tr.allocs_sum();
        let t = Instant::now();
        tr.enter(Layer::Root, reps);
        let s = session(
            &dir,
            args.seed,
            rep,
            Some(tr),
            &mut Timeline::new(),
            |jobs, _| jobs >= SESSION_JOBS,
        );
        tr.exit();
        traced_s += t.elapsed().as_secs_f64();
        tr.record = false;
        reps += 1;

        let (records, bytes) = journal_size(&dir);
        let counts = (records, bytes, s.mcasts, tr.allocs_sum() - allocs_before);
        match first {
            None => first = Some(counts),
            Some(f) => rep.check(f == counts, || {
                format!("exact counts differ between sessions: {f:?} vs {counts:?}")
            }),
        }
        misses += s.done.len() as u64;
        hits += s.hits.len() as u64;
        latency += s.latency_weighted;
    }

    let per_call = |l: Layer| {
        let t = tr.total(l);
        t.self_ns as f64 / t.calls.max(1) as f64
    };
    let probes = tr.total(Layer::SetupTopology).calls.max(1) as f64;
    let per_probe = |l: Layer| tr.total(l).self_ns as f64 / probes / 1e6;
    rep.metric("setup.topology_ms", per_probe(Layer::SetupTopology));
    rep.metric("setup.router_ms", per_probe(Layer::SetupRouter));
    rep.metric("setup.network_ms", per_probe(Layer::SetupNetwork));
    rep.metric("spec.parse_us", per_call(Layer::SpecParse) / 1e3);
    rep.metric("spec.to_json_us", per_call(Layer::SpecToJson) / 1e3);
    rep.metric("serve.submit_ms", per_call(Layer::ServeSubmit) / 1e6);
    rep.metric(
        "serve.drain_ms_per_job",
        tr.total(Layer::ServeDrain).self_ns as f64 / misses.max(1) as f64 / 1e6,
    );
    let (records, bytes, session_mcasts, allocs) = first.expect("at least one session");
    rep.metric(
        "serve.journal_records_per_job",
        records as f64 / SESSION_JOBS as f64,
    );
    rep.metric(
        "serve.journal_bytes_per_job",
        bytes as f64 / SESSION_JOBS as f64,
    );
    rep.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (SESSION_JOBS * reps) as f64,
    );
    let (p99, beyond) = quantile(&latencies, 0.99);
    rep.metric("serve.job_p99_ms", p99 * 1e3);
    rep.metric("serve.jobs_beyond_p99", beyond as f64);
    rep.check(beyond >= 10, || {
        format!("only {beyond} job latencies beyond the p99")
    });
    rep.metric("sim.latency_us", latency / misses.max(1) as f64);
    rep.metric("count.mcasts", session_mcasts as f64);
    rep.metric("count.journal_records", records as f64);
    rep.metric("count.journal_bytes", bytes as f64);
    rep.metric("count.allocs", allocs as f64);
    // The traced sessions also re-parse each spec and probe each new
    // job's set-up, so the overhead includes those calls.
    report_overhead(rep, tr, untraced_s, traced_s, reps as f64);
}
