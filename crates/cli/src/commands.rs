//! Subcommand implementations for the `mcast` CLI.
//!
//! Every subcommand resolves topologies and routing schemes through
//! `mcast_sim::registry` ([`TopoSpec`] + [`SchemeId`]) and expresses its
//! run as an [`ExperimentSpec`] where one applies — the CLI owns flag
//! parsing and table formatting, nothing else. `mcast run --spec` skips
//! the flags entirely and executes a spec file.

use mcast_core::model::{MulticastRoute, MulticastSet};
use mcast_obs::{
    chrome_trace, latency_csv, utilization_csv, Metrics, MetricsSnapshot, Recording, Sink, Tee,
    TraceMeta, TraceOptions,
};
use mcast_sim::deadlock::{
    fig_6_1_broadcasts, fig_6_4_multicasts, run_closed_scenario, run_closed_scenario_recovering,
};
use mcast_sim::engine::{Engine, SimConfig};
use mcast_sim::network::Network;
use mcast_sim::recovery::{ObliviousRouter, RecoveryPolicy};
use mcast_sim::registry::{
    build_route, build_router, channel_names, RegistryError, RoutePlan, SchemeId, TopoSpec,
};
use mcast_sim::routers::MulticastRouter;
use mcast_sim::topograph::load_custom;
use mcast_topology::{synthesize, Mesh2D, RoutingKind, Topology};
use mcast_workload::fault_sweep::{FaultSweepConfig, FaultSweepRow};
use mcast_workload::gen::MulticastGen;
use mcast_workload::{
    aggregate_sweep, chaos_self_test, check_scenario, inbox_dir, resolve_jobs, run_dynamic,
    run_verify, spec_inbox_filename, DynamicConfig, ExperimentSpec, FaultSpec, JobServer,
    PatternSpec, RetryPolicy, ServeConfig, SweepRow, TrafficPattern, VerifyScenario,
};

use crate::args::{parse_dims, parse_nodes, ArgError, Args, CliError};

/// The help text.
pub const USAGE: &str = "\
mcast — multicast routing for multicomputer networks

USAGE:
  mcast route    --topology <T> --algorithm <A> --source <N> --dests <N,N,...>
  mcast simulate --topology <T> --algorithm <A> [--interarrival-us <F>]
                 [--dests <K>] [--seed <S>]
  mcast sweep    [--topology <T>] [--algorithms <A,A,...>] [--loads-us <F,F,...>]
                 [--replications <R>] [--dests <K>] [--seed <S>]
                 [--jobs <N>] [--compare-serial true|false]
  mcast run      --spec <file.json> [--dry-run true] [--jobs <N>]
                 [--stream true] [--messages <N>] [--duration-ms <MS>]
  mcast deadlock --scenario fig6_1|fig6_4 [--algorithm <A>] [--recover true]
  mcast fault-sweep --topology <T> [--algorithm <A>] [--fault-rates 0,0.02,0.05,0.1]
                 [--messages <N>] [--dests <K>] [--seed <S>]
                 [--format table|csv|json] [--keep-connected true|false]
  mcast trace    [--topology <T>] [--algorithm <A>] [--pattern hotspot|uniform]
                 [--messages <N>] [--dests <K>] [--interarrival-us <F>] [--seed <S>]
                 [--out trace.json] [--metrics-out <F>] [--util-csv <F>]
                 [--latency-csv <F>] [--flits true]
  mcast metrics  [--topology <T>] [--algorithm <A>] [--pattern hotspot|uniform]
                 [--messages <N>] [--dests <K>] [--interarrival-us <F>] [--seed <S>]
                 [--out <F>] [--json true]
  mcast verify   [--seed <S>] [--cases <K>] [--quick] [--spec <file.json>]
                 [--chaos swap-class] [--out <dir>]
  mcast topo     validate|synthesize|route|deadlock --graph <SRC>
                 [--source <N> --dests <N,N,...>]
  mcast serve    --journal <dir> [--jobs <N>] [--batch]
                 [--poll-ms <MS>] [--queue-cap <N>] [--retries <N>]
                 [--deadline-ms <MS>] [--step-budget <N>] [--metrics-out <F>]
                 [--chaos [--seed <S>]]
  mcast submit   --journal <dir> --spec <file.json> [--force]
  mcast help

TOPOLOGIES:   mesh:WxH  mesh:WxHxD  cube:N  kary:KxN  torus:KxN
              custom:<graph.json|graph.dot>  custom:rand:NxSEED
              custom:lmesh:WxHxSEED  custom:ftree:KxSEED
ALGORITHMS:   dual-path  multi-path  fixed-path  vc-multi-path:<lanes>
              circuit-dual-path  dc-tree (2D mesh)  octant-tree (3D mesh)
              xfirst-tree (2D mesh)  ecube-tree (cube)
MODERN:       dpm  binomial  recursive-doubling  binomial-reliable
              (every topology; DESIGN.md 17)
ROUTE-ONLY:   sorted-mp  greedy-st  divided-greedy (mesh)
RUN:          executes a declarative ExperimentSpec JSON file — the
              load sweep, plus the fault sweep when the spec has a
              fault section; --dry-run validates without running;
              --stream true runs every point through the bounded-memory
              streaming engine (DESIGN.md §16, O(in-flight) memory);
              --messages <N> bounds each point at N injected multicasts
              instead of the batch-means stopping rule, and
              --duration-ms <MS> bounds it by simulated wall time
              (combined, whichever bound trips first ends injection)
FAULT-SWEEP:  dual-path and multi-path plan around faults; any other
              algorithm runs fault-oblivious under abort-and-retry
TRACE:        trace.json is Chrome trace-event JSON — open it at
              ui.perfetto.dev (or chrome://tracing)
VERIFY:       differential conformance of the optimized engine against
              the reference simulator (DESIGN.md §12) across the full
              (topology, scheme) registry; --quick is the 64-case CI
              profile, --spec replays one reproducer, failures shrink
              to minimal reproducer specs written under --out
SWEEP:        fans load x algorithm x replication across --jobs threads
              (default: all cores, or MCAST_JOBS / RAYON_NUM_THREADS);
              --compare-serial also runs the serial reference (1 job)
              and checks the parallel results are bit-identical
TOPO:         custom-topology toolkit — <SRC> is a graph file (JSON or
              a DOT subset) or a generator form (rand:/lmesh:/ftree:);
              synthesize certifies the up*/down* (duplex) or
              shortest-path (directed) routing function deadlock-free
              via channel-dependency-graph acyclicity, deadlock prints
              the verdict (exit 1 names the cycle when uncertifiable),
              route prints synthesized paths; custom graphs route and
              simulate via the updown-mc / updown-tree schemes
SERVE:        supervised job-execution service over a crash-safe journal
              (DESIGN.md §13): submissions land in <dir>/inbox, results
              are cached by canonical spec bytes, panics / deadlines /
              step budgets are retried with capped backoff, overload is
              shed, and a kill+restart resumes incomplete jobs from the
              journal; --batch drains once and exits, --chaos runs the
              built-in fault-injection self-test
SUBMIT:       validates a spec file and drops its canonical bytes into
              the serve inbox (--force submits unvalidated bytes, e.g.
              to exercise the server's poisoned-spec path)
NODES:        decimal ids, or 0b... binary addresses on cubes
FLAGS:        each subcommand accepts exactly the flags listed above for
              it; any other flag is a usage error";

/// Rejects any flag the subcommand does not accept, naming it: a
/// typo'd or retired flag must not run silently with its default.
pub fn check_flags(a: &Args) -> Result<(), CliError> {
    let Some(accepted) = accepted_flags(&a.command) else {
        return Ok(());
    };
    match a.options.keys().find(|k| !accepted.contains(&k.as_str())) {
        Some(k) => Err(CliError::Usage(format!(
            "unknown flag --{k} for `mcast {}`",
            a.command
        ))),
        None => Ok(()),
    }
}

/// The flags `mcast <command>` accepts: exactly those its entry in
/// [`USAGE`] lists, so the help text and the parser cannot disagree.
/// `None` for a subcommand USAGE does not document.
pub fn accepted_flags(command: &str) -> Option<Vec<&'static str>> {
    let mut flags: Option<Vec<&'static str>> = None;
    let entries = USAGE
        .lines()
        .skip_while(|l| *l != "USAGE:")
        .skip(1)
        .take_while(|l| !l.is_empty());
    for line in entries {
        if let Some(rest) = line.trim_start().strip_prefix("mcast ") {
            if flags.is_some() {
                break;
            }
            if rest.split_whitespace().next() != Some(command) {
                continue;
            }
            flags = Some(Vec::new());
        }
        if let Some(f) = flags.as_mut() {
            f.extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|t| t.strip_prefix("--")),
            );
        }
    }
    flags
}

fn to_arg(e: RegistryError) -> ArgError {
    ArgError(e.0)
}

/// Parses `--topology`: meshes go through [`parse_dims`] (2D or 3D),
/// everything else through [`TopoSpec::parse`]. A bad flag value is a
/// usage error, but a custom graph *file* that is missing or malformed
/// is the work failing, not the invocation — that maps to a runtime
/// error (exit 1, path and reason, no usage dump), mirroring how spec
/// files are handled.
fn parse_topology(spec: &str) -> Result<TopoSpec, CliError> {
    if let Some(rest) = spec.strip_prefix("mesh:") {
        return match *parse_dims(rest)?.as_slice() {
            [w, h] => Ok(TopoSpec::Mesh2D { w, h }),
            [w, h, d] => Ok(TopoSpec::Mesh3D { w, h, d }),
            _ => unreachable!("parse_dims yields 2 or 3 dims"),
        };
    }
    let file_form = spec
        .strip_prefix("custom:")
        .is_some_and(|r| [".json", ".dot", ".gv"].iter().any(|ext| r.ends_with(ext)));
    TopoSpec::parse(spec).map_err(|e| {
        if file_form {
            CliError::Runtime(e.0)
        } else {
            CliError::Usage(e.0)
        }
    })
}

fn parse_scheme(algorithm: &str) -> Result<SchemeId, ArgError> {
    SchemeId::parse(algorithm).map_err(to_arg)
}

fn make_router(
    topo: &TopoSpec,
    algorithm: &str,
) -> Result<Box<dyn MulticastRouter + Send + Sync>, ArgError> {
    build_router(topo, &parse_scheme(algorithm)?).map_err(to_arg)
}

fn format_node(topo: &TopoSpec, n: usize) -> String {
    format!("{n}={}", topo.node_name(n))
}

/// `mcast route …`
pub fn route(a: &Args) -> Result<(), CliError> {
    let topo = parse_topology(a.require("topology")?)?;
    let scheme = parse_scheme(a.get_or("algorithm", "dual-path"))?;
    let source = parse_nodes(a.require("source")?)?
        .first()
        .copied()
        .ok_or_else(|| ArgError("empty --source".into()))?;
    let dests = parse_nodes(a.require("dests")?)?;
    let num_nodes = topo.num_nodes();
    for &n in dests.iter().chain([&source]) {
        if n >= num_nodes {
            return Err(ArgError(format!("node {n} out of range (N={num_nodes})")).into());
        }
    }
    let mc = MulticastSet::new(source, dests);
    let mc_route = match build_route(&topo, &scheme, &mc).map_err(to_arg)? {
        RoutePlan::Steiner { edges, traffic } => {
            println!("greedy Steiner tree, virtual edges:");
            for (s, t) in edges {
                println!("  {} -- {}", format_node(&topo, s), format_node(&topo, t));
            }
            println!("traffic: {traffic}");
            return Ok(());
        }
        RoutePlan::Route(route) => route,
    };
    print_route(&topo, &mc_route);
    println!("traffic: {} channels", mc_route.traffic());
    if let Some(h) = mc_route.max_dest_hops(&mc) {
        println!("max destination distance: {h} hops");
    }
    for &d in &mc.destinations {
        println!(
            "  {}: {} hops",
            format_node(&topo, d),
            mc_route.hops_to(d).expect("validated")
        );
    }
    Ok(())
}

fn print_route(topo: &TopoSpec, route: &MulticastRoute) {
    match route {
        MulticastRoute::Path(p) | MulticastRoute::Cycle(p) => {
            println!(
                "path: {}",
                p.nodes()
                    .iter()
                    .map(|&n| format_node(topo, n))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
        }
        MulticastRoute::Star(paths) => {
            for (i, p) in paths.iter().enumerate() {
                println!(
                    "path {}: {}",
                    i + 1,
                    p.nodes()
                        .iter()
                        .map(|&n| format_node(topo, n))
                        .collect::<Vec<_>>()
                        .join(" -> ")
                );
            }
        }
        MulticastRoute::Tree(t) => {
            println!("tree edges:");
            for (p, c) in t.edges() {
                println!("  {} -> {}", format_node(topo, p), format_node(topo, c));
            }
        }
        MulticastRoute::Forest(trees) => {
            for (i, t) in trees.iter().enumerate() {
                println!("tree {}:", i + 1);
                for (p, c) in t.edges() {
                    println!("  {} -> {}", format_node(topo, p), format_node(topo, c));
                }
            }
        }
    }
}

/// `mcast simulate …`
pub fn simulate(a: &Args) -> Result<(), CliError> {
    let topo = parse_topology(a.require("topology")?)?;
    let router = make_router(&topo, a.get_or("algorithm", "dual-path"))?;
    let cfg = DynamicConfig {
        mean_interarrival_ns: a.number::<f64>("interarrival-us", 600.0)? * 1000.0,
        destinations: a.number("dests", 10)?,
        seed: a.number("seed", 7)?,
        ..DynamicConfig::default()
    };
    let built = topo.build();
    let result = run_dynamic(built.as_dyn(), router.as_ref(), &cfg);
    println!("algorithm: {}", router.name());
    println!(
        "interarrival: {:.0} us/node, k = {}",
        cfg.mean_interarrival_ns / 1000.0,
        cfg.destinations
    );
    if result.saturated {
        println!("result: SATURATED (open-loop backlog grew without bound)");
    } else {
        println!(
            "mean network latency: {:.1} us  (95% CI ±{:.1}, {} batches, {} messages)",
            result.mean_latency_us, result.ci_us, result.batches, result.measured
        );
        println!("mean traffic: {:.1} channels/message", result.mean_traffic);
    }
    println!("simulated time: {:.1} ms", result.sim_time_ns as f64 / 1e6);
    Ok(())
}

fn print_sweep_table(rows: &[SweepRow]) {
    println!("scheme        load_us  reps  sat  mean_us     ci_us  completed");
    for agg in aggregate_sweep(rows) {
        println!(
            "{:<13} {:>7.0} {:>5} {:>4}  {:>7.1}  {:>8.2}  {:>9}",
            agg.scheme,
            agg.mean_interarrival_ns / 1000.0,
            agg.replications,
            agg.saturated,
            agg.latency_us.mean(),
            agg.latency_us.ci_half_width_95(),
            agg.completed,
        );
    }
}

/// Builds the [`ExperimentSpec`] behind `mcast sweep`'s flags.
fn sweep_spec(a: &Args) -> Result<ExperimentSpec, CliError> {
    let schemes = a
        .get_or("algorithms", "dual-path,multi-path")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse_scheme)
        .collect::<Result<Vec<_>, _>>()?;
    if schemes.is_empty() {
        return Err(ArgError("empty --algorithms".into()).into());
    }
    let loads_us: Vec<f64> = a
        .get_or("loads-us", "600,450,350")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| ArgError(format!("bad load {s:?} in --loads-us")))
        })
        .collect::<Result<_, _>>()?;
    if loads_us.is_empty() {
        return Err(ArgError("empty --loads-us".into()).into());
    }
    let mut spec = ExperimentSpec::new("sweep", parse_topology(a.get_or("topology", "mesh:8x8"))?);
    spec.schemes = schemes;
    spec.loads_us = loads_us;
    spec.destinations = a.number("dests", 8)?;
    spec.replications = a.number("replications", 3)?;
    spec.seed = a.number("seed", 7)?;
    Ok(spec)
}

/// `mcast sweep …` — the Chapter-7 grid (loads × algorithms ×
/// replications) fanned across worker threads, with an optional serial
/// reference leg proving the parallel run changes nothing.
pub fn sweep(a: &Args) -> Result<(), CliError> {
    let spec = sweep_spec(a)?;
    let jobs = match a.number::<usize>("jobs", 0)? {
        0 => resolve_jobs(None),
        n => n,
    };
    let compare_serial = a.get_or("compare-serial", "true") == "true";

    let run = |jobs: usize, spec: &ExperimentSpec| -> Result<(Vec<SweepRow>, f64), ArgError> {
        let start = std::time::Instant::now();
        let rows = spec.run_sweep(jobs).map_err(to_arg)?;
        Ok((rows, start.elapsed().as_secs_f64() * 1000.0))
    };

    let (rows, parallel_ms) = run(jobs, &spec)?;
    print_sweep_table(&rows);
    if compare_serial {
        let (serial_rows, serial_ms) = run(1, &spec)?;
        let identical = rows.len() == serial_rows.len()
            && rows.iter().zip(&serial_rows).all(|(p, s)| {
                p.point == s.point
                    && p.result.mean_latency_us == s.result.mean_latency_us
                    && p.result.saturated == s.result.saturated
                    && p.result.completed == s.result.completed
                    && p.result.sim_time_ns == s.result.sim_time_ns
            });
        println!(
            "sweep: {} points in {:.1} ms with {} jobs (serial {:.1} ms, speedup {:.2}x, {})",
            rows.len(),
            parallel_ms,
            jobs,
            serial_ms,
            if parallel_ms > 0.0 {
                serial_ms / parallel_ms
            } else {
                0.0
            },
            if identical {
                "results bit-identical"
            } else {
                "RESULTS DIVERGED"
            }
        );
        if !identical {
            return Err(CliError::Runtime(
                "parallel sweep diverged from the serial reference".into(),
            ));
        }
    } else {
        println!(
            "sweep: {} points in {:.1} ms with {} jobs",
            rows.len(),
            parallel_ms,
            jobs
        );
    }
    Ok(())
}

/// `mcast run …` — execute a declarative spec file end-to-end.
pub fn run(a: &Args) -> Result<(), CliError> {
    let path = a.require("spec")?;
    let mut spec = read_spec_file(path)?;
    // --stream / --messages / --duration-ms turn on (or tighten) the
    // spec's streaming section: bounded-memory open-loop points
    // (DESIGN.md §16). --duration-ms bounds each point by simulated
    // wall time; combined with --messages, whichever bound trips first
    // ends injection.
    let messages = a.number::<u64>("messages", 0)?;
    let duration_ms = a.number::<u64>("duration-ms", 0)?;
    if a.options.contains_key("duration-ms") && duration_ms == 0 {
        return Err(CliError::Usage("--duration-ms must be at least 1".into()));
    }
    if a.get_or("stream", "false") == "true" || messages > 0 || duration_ms > 0 {
        let mut stream = spec.stream.unwrap_or_default();
        if messages > 0 {
            stream.messages = Some(messages);
        }
        if duration_ms > 0 {
            stream.duration_ns = Some(duration_ms * 1_000_000);
        }
        spec.stream = Some(stream);
    }
    println!(
        "spec {:?}: {} | {} schemes x {} loads x {} replications, k = {}",
        spec.name,
        spec.topology,
        spec.schemes.len(),
        spec.loads_us.len(),
        spec.replications,
        spec.destinations
    );
    if a.get_or("dry-run", "false") == "true" {
        println!("dry run: spec validates, all routers resolve");
        return Ok(());
    }
    let jobs = match a.number::<usize>("jobs", 0)? {
        0 => resolve_jobs(None),
        n => n,
    };
    let rows = spec
        .run_sweep(jobs)
        .map_err(|e| CliError::Runtime(format!("running spec {path}: {}", e.0)))?;
    print_sweep_table(&rows);
    if spec.stream.is_some() {
        // The memory gauges are the point of streaming: report the
        // worst case across every point of the grid.
        let worms = rows.iter().map(|r| r.result.peak_live_worms).max();
        let msgs = rows.iter().map(|r| r.result.peak_in_flight).max();
        println!(
            "stream: peak {} live worm(s), peak {} in-flight message(s) across all points",
            worms.unwrap_or(0),
            msgs.unwrap_or(0)
        );
    }
    if spec.fault.is_some() {
        let fault_rows = spec
            .run_fault_sweep()
            .map_err(|e| CliError::Runtime(format!("running fault sweep in {path}: {}", e.0)))?;
        println!();
        print_fault_rows(&fault_rows, "table")?;
    }
    Ok(())
}

/// Reads and canonicalizes an [`ExperimentSpec`] file with actionable
/// runtime diagnostics (missing file vs. malformed JSON vs. invalid
/// spec) rather than a usage dump.
fn read_spec_file(path: &str) -> Result<ExperimentSpec, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CliError::Runtime(format!(
            "cannot read spec file {path}: {e} (does the file exist and is it readable?)"
        ))
    })?;
    let spec = ExperimentSpec::from_json(&text)
        .map_err(|e| CliError::Runtime(format!("spec file {path} is not a valid spec: {}", e.0)))?;
    spec.validate()
        .map_err(|e| CliError::Runtime(format!("spec file {path} failed validation: {}", e.0)))?;
    Ok(spec)
}

/// `mcast deadlock …`
pub fn deadlock(a: &Args) -> Result<(), CliError> {
    let scenario = a.require("scenario")?;
    let recover = a.get_or("recover", "false") == "true";
    let (topo, algorithm, multicasts) = match scenario {
        "fig6_1" => {
            let topo = TopoSpec::Hypercube { dim: 3 };
            let mcs = match topo.build() {
                mcast_sim::registry::BuiltTopo::Hypercube(c) => fig_6_1_broadcasts(c),
                _ => unreachable!(),
            };
            (topo, a.get_or("algorithm", "ecube-tree"), mcs)
        }
        "fig6_4" => {
            let topo = TopoSpec::Mesh2D { w: 4, h: 3 };
            (
                topo,
                a.get_or("algorithm", "xfirst-tree"),
                fig_6_4_multicasts(&Mesh2D::new(4, 3)),
            )
        }
        other => return Err(ArgError(format!("unknown scenario {other:?}")).into()),
    };
    let router = make_router(&topo, algorithm)?;
    let built = topo.build();
    let network = Network::new(built.as_dyn(), router.required_classes());
    if recover {
        let supervised = ObliviousRouter::new(router);
        let (outcome, stats, events) = run_closed_scenario_recovering(
            &supervised,
            network,
            SimConfig::default(),
            RecoveryPolicy::default(),
            &multicasts,
        );
        report(
            algorithm,
            outcome.completed,
            outcome.stuck_messages,
            outcome.finished_at,
        );
        println!(
            "recovery: {} aborts, {} retries, {} drops ({} events logged)",
            stats.aborts,
            stats.retries,
            stats.dropped,
            events.len()
        );
    } else {
        let outcome = run_closed_scenario(&router, network, SimConfig::default(), &multicasts);
        report(
            algorithm,
            outcome.completed,
            outcome.stuck_messages,
            outcome.finished_at,
        );
        for s in &outcome.stuck {
            println!(
                "  message {} holds {} channels, awaits {:?}",
                s.message,
                s.holds.len(),
                s.awaits
                    .iter()
                    .map(|c| format!("{}->{}", c.from, c.to))
                    .collect::<Vec<_>>()
            );
        }
    }
    Ok(())
}

fn report(algorithm: &str, completed: bool, stuck: usize, at: u64) {
    if completed {
        println!("{algorithm}: completed at t = {:.1} us", at as f64 / 1000.0);
    } else {
        println!("{algorithm}: DEADLOCKED — {stuck} messages wedged forever");
    }
}

fn parse_rates(s: &str) -> Result<Vec<f64>, ArgError> {
    let rates: Vec<f64> = s
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| ArgError(format!("bad fault rate {p:?}")))
        })
        .collect::<Result<_, _>>()?;
    if rates.is_empty() {
        return Err(ArgError("empty --fault-rates".into()));
    }
    if let Some(&bad) = rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(ArgError(format!("fault rate {bad} out of [0, 1]")));
    }
    Ok(rates)
}

fn sweep_record(row: &FaultSweepRow) -> Vec<(&'static str, String)> {
    vec![
        ("algorithm", format!("{:?}", row.algorithm)),
        ("fault_rate", format!("{}", row.fault_rate)),
        ("failed_links", format!("{}", row.failed_links)),
        ("messages", format!("{}", row.messages)),
        ("destinations_total", format!("{}", row.destinations_total)),
        (
            "destinations_delivered",
            format!("{}", row.destinations_delivered),
        ),
        ("delivery_ratio", format!("{:.4}", row.delivery_ratio)),
        (
            "mean_latency_us",
            if row.mean_latency_us.is_finite() {
                format!("{:.2}", row.mean_latency_us)
            } else {
                "null".to_string()
            },
        ),
        ("aborts", format!("{}", row.aborts)),
        ("retries", format!("{}", row.retries)),
        ("drops", format!("{}", row.drops)),
        ("escapes", format!("{}", row.escapes)),
    ]
}

fn print_fault_rows(rows: &[FaultSweepRow], format: &str) -> Result<(), ArgError> {
    match format {
        "table" => {
            println!(
                "{:<24} {:>6} {:>6} {:>11} {:>7} {:>11} {:>7} {:>8} {:>6} {:>8}",
                "algorithm",
                "rate",
                "links",
                "delivered",
                "ratio",
                "latency us",
                "aborts",
                "retries",
                "drops",
                "escapes"
            );
            for r in rows {
                println!(
                    "{:<24} {:>6.2} {:>6} {:>11} {:>7.3} {:>11} {:>7} {:>8} {:>6} {:>8}",
                    r.algorithm,
                    r.fault_rate,
                    r.failed_links,
                    format!("{}/{}", r.destinations_delivered, r.destinations_total),
                    r.delivery_ratio,
                    if r.mean_latency_us.is_finite() {
                        format!("{:.1}", r.mean_latency_us)
                    } else {
                        "n/a".to_string()
                    },
                    r.aborts,
                    r.retries,
                    r.drops,
                    r.escapes,
                );
            }
        }
        "csv" => {
            let fields: Vec<&str> = sweep_record(&rows[0]).iter().map(|(k, _)| *k).collect();
            println!("{}", fields.join(","));
            for r in rows {
                let vals: Vec<String> = sweep_record(r)
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "algorithm" {
                            r.algorithm.to_string()
                        } else {
                            v
                        }
                    })
                    .map(|v| if v == "null" { String::new() } else { v })
                    .collect();
                println!("{}", vals.join(","));
            }
        }
        "json" => {
            println!("[");
            for (i, r) in rows.iter().enumerate() {
                let fields: Vec<String> = sweep_record(r)
                    .into_iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                let comma = if i + 1 < rows.len() { "," } else { "" };
                println!("  {{{}}}{comma}", fields.join(", "));
            }
            println!("]");
        }
        other => return Err(ArgError(format!("unknown format {other:?}"))),
    }
    Ok(())
}

/// `mcast fault-sweep …`
pub fn fault_sweep(a: &Args) -> Result<(), CliError> {
    let topo = parse_topology(a.require("topology")?)?;
    let format = a.get_or("format", "table");
    if !["table", "csv", "json"].contains(&format) {
        return Err(ArgError(format!("unknown format {format:?}")).into());
    }
    let mut spec = ExperimentSpec::new("fault-sweep", topo);
    spec.schemes = vec![parse_scheme(a.get_or("algorithm", "dual-path"))?];
    spec.loads_us = vec![FaultSweepConfig::default().mean_interarrival_ns / 1000.0];
    spec.destinations = a.number("dests", 4)?;
    spec.seed = a.number("seed", 7)?;
    spec.fault = Some(FaultSpec {
        rates: parse_rates(a.get_or("fault-rates", "0,0.02,0.05,0.1"))?,
        messages: a.number("messages", 64)?,
        keep_connected: a.get_or("keep-connected", "true") == "true",
    });
    let rows = spec
        .run_fault_sweep()
        .map_err(|e| CliError::Runtime(format!("running fault sweep: {}", e.0)))?;
    print_fault_rows(&rows, format)?;
    Ok(())
}

/// Traffic/observability parameters shared by `trace` and `metrics`.
struct TraceRun {
    pattern: String,
    messages: usize,
    destinations: usize,
    mean_interarrival_ns: f64,
    seed: u64,
}

impl TraceRun {
    fn from_args(a: &Args) -> Result<TraceRun, ArgError> {
        let pattern = a.get_or("pattern", "hotspot").to_string();
        if pattern != "hotspot" && pattern != "uniform" {
            return Err(ArgError(format!(
                "unknown pattern {pattern:?} (expected hotspot or uniform)"
            )));
        }
        Ok(TraceRun {
            pattern,
            messages: a.number("messages", 128)?,
            destinations: a.number("dests", 5)?,
            mean_interarrival_ns: a.number::<f64>("interarrival-us", 60.0)? * 1000.0,
            seed: a.number("seed", 7)?,
        })
    }

    /// The resolved traffic pattern for this topology.
    fn traffic_pattern(&self, topo: &TopoSpec) -> TrafficPattern {
        if self.pattern == "hotspot" {
            PatternSpec::Hotspot
        } else {
            PatternSpec::Uniform
        }
        .resolve(topo)
    }
}

/// Injects `run.messages` Poisson-arrival multicasts (per-node
/// generators, as in the §7.2 dynamic experiments) through `router` with
/// the given sink installed, then drains the network. Returns whether
/// the network quiesced and the final simulated time (ns).
fn run_traffic(
    topo: &TopoSpec,
    router: &dyn MulticastRouter,
    run: &TraceRun,
    sink: Box<dyn Sink>,
) -> (bool, u64) {
    let built = topo.build();
    let network = Network::new(built.as_dyn(), router.required_classes());
    let mut engine = Engine::new(network, SimConfig::default());
    engine.set_sink(sink);
    let n = topo.num_nodes();
    let pattern = run.traffic_pattern(topo);
    let k = run.destinations.min(n - 1);
    let mut gen = MulticastGen::new(n, run.seed);
    let mut next_gen: Vec<(u64, usize)> = (0..n)
        .map(|node| (gen.exponential_ns(run.mean_interarrival_ns), node))
        .collect();
    for seq in 0..run.messages {
        let (&(t, node), _) = next_gen
            .iter()
            .zip(0..)
            .min_by_key(|((t, node), _)| (*t, *node))
            .expect("generators exist");
        engine.run_until(t);
        let mc = pattern.apply(seq as u64, gen.multicast_distinct(node, k));
        engine.inject(&router.plan(&mc));
        next_gen[node].0 = t + gen.exponential_ns(run.mean_interarrival_ns);
    }
    let quiesced = engine.run_to_quiescence();
    (quiesced, engine.now())
}

/// Writes an output artifact, creating missing parent directories so
/// `--out results/deep/trace.json` works on a fresh checkout. Failures
/// are runtime errors with the failing path in the message.
fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    let parent = std::path::Path::new(path).parent();
    if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| {
            CliError::Runtime(format!(
                "cannot create output directory {}: {e}",
                dir.display()
            ))
        })?;
    }
    std::fs::write(path, contents).map_err(|e| {
        CliError::Runtime(format!(
            "cannot write {path}: {e} (is the location writable?)"
        ))
    })
}

fn print_latency_summary(snap: &MetricsSnapshot) {
    let h = &snap.latency_ns;
    if h.count() > 0 {
        println!(
            "latency: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us ({} messages)",
            h.p50() as f64 / 1000.0,
            h.p90() as f64 / 1000.0,
            h.p99() as f64 / 1000.0,
            h.max() as f64 / 1000.0,
            h.count()
        );
    }
}

/// `mcast trace …` — run a traced scenario and export a Chrome
/// trace-event JSON file (Perfetto-loadable), plus optional metrics /
/// CSV side channels.
pub fn trace(a: &Args) -> Result<(), CliError> {
    let topo = parse_topology(a.get_or("topology", "mesh:16x16"))?;
    let router = make_router(&topo, a.get_or("algorithm", "dual-path"))?;
    let run = TraceRun::from_args(a)?;
    let out = a.get_or("out", "trace.json");

    let recording = Recording::new();
    let metrics = Metrics::new();
    let sink = Tee::new()
        .with(Box::new(recording.clone()))
        .with(Box::new(metrics.clone()));
    let (quiesced, finished_ns) = run_traffic(&topo, router.as_ref(), &run, Box::new(sink));

    let built = topo.build();
    let network = Network::new(built.as_dyn(), router.required_classes());
    let meta = TraceMeta {
        channel_names: channel_names(&topo, &network),
    };
    let events = recording.take();
    let snap = metrics.snapshot();

    let flits = a.get_or("flits", "false") == "true";
    write_file(out, &chrome_trace(&events, &meta, &TraceOptions { flits }))?;
    if let Some(path) = a.options.get("metrics-out") {
        write_file(path, &snap.to_registry().to_json())?;
    }
    if let Some(path) = a.options.get("util-csv") {
        write_file(path, &utilization_csv(&snap, &meta))?;
    }
    if let Some(path) = a.options.get("latency-csv") {
        write_file(path, &latency_csv(&events))?;
    }

    println!(
        "{}: {} events from {} messages ({} pattern) -> {out}",
        router.name(),
        events.len(),
        run.messages,
        run.pattern
    );
    println!(
        "simulated {:.1} us, {} completed, {} flit hops{}",
        finished_ns as f64 / 1000.0,
        snap.completed,
        snap.flits,
        if quiesced { "" } else { " — DID NOT QUIESCE" }
    );
    print_latency_summary(&snap);
    println!("open {out} at ui.perfetto.dev (or chrome://tracing)");
    Ok(())
}

/// Renders per-node peak outgoing-channel utilization as an ASCII
/// heatmap of the mesh (top row = highest y, matching Fig 3.2's layout).
fn mesh_heatmap(m: &Mesh2D, network: &Network, snap: &MetricsSnapshot) -> String {
    const SHADES: &[u8] = b".:-=+*#%@";
    let mut util = vec![0.0f64; m.num_nodes()];
    for id in 0..network.num_channels() {
        let c = network.channel(id);
        let u = snap.utilization(id);
        if u > util[c.from] {
            util[c.from] = u;
        }
    }
    let mut out = String::new();
    for y in (0..m.height()).rev() {
        for x in 0..m.width() {
            let u = util[m.node(x, y)];
            let idx = ((u * SHADES.len() as f64) as usize).min(SHADES.len() - 1);
            out.push(if u == 0.0 { ' ' } else { SHADES[idx] as char });
        }
        out.push('\n');
    }
    out
}

/// `mcast metrics …` — run a scenario under the metrics collector only
/// and print the snapshot: counters, latency percentiles, and (on 2D
/// meshes) a per-node channel-utilization heatmap.
pub fn metrics(a: &Args) -> Result<(), CliError> {
    let topo = parse_topology(a.get_or("topology", "mesh:16x16"))?;
    let router = make_router(&topo, a.get_or("algorithm", "dual-path"))?;
    let run = TraceRun::from_args(a)?;

    let metrics = Metrics::new();
    let (quiesced, finished_ns) =
        run_traffic(&topo, router.as_ref(), &run, Box::new(metrics.clone()));
    let snap = metrics.snapshot();
    let registry = snap.to_registry();

    if let Some(path) = a.options.get("out") {
        write_file(path, &registry.to_json())?;
    }
    if a.get_or("json", "false") == "true" {
        println!("{}", registry.to_json());
        return Ok(());
    }

    println!(
        "{}: {} messages ({} pattern), simulated {:.1} us{}",
        router.name(),
        run.messages,
        run.pattern,
        finished_ns as f64 / 1000.0,
        if quiesced { "" } else { " — DID NOT QUIESCE" }
    );
    println!(
        "injected {}, completed {}, aborted {}, {} destination deliveries, {} flit hops",
        snap.injected, snap.completed, snap.aborted, snap.delivered, snap.flits
    );
    print_latency_summary(&snap);
    let peak = (0..snap.channels.len())
        .map(|i| snap.utilization(i))
        .fold(0.0f64, f64::max);
    println!("peak channel utilization: {:.1}%", peak * 100.0);
    if let TopoSpec::Mesh2D { w, h } = topo {
        let m = Mesh2D::new(w, h);
        let network = Network::new(&m, router.required_classes());
        println!("per-node peak outgoing utilization ({w}x{h} mesh):");
        print!("{}", mesh_heatmap(&m, &network, &snap));
    }
    Ok(())
}

/// `mcast verify …` — differential conformance of the optimized engine
/// against the naive reference simulator (DESIGN.md §12). Without
/// `--spec`, fuzzes `--cases` seeded scenarios across the registry;
/// with it, replays one reproducer spec. Returns an error (non-zero
/// exit) when any case fails, after writing shrunk reproducer specs
/// under `--out`.
pub fn verify(a: &Args) -> Result<(), CliError> {
    let chaos = match a.get_or("chaos", "none") {
        "none" | "false" => false,
        "swap-class" => true,
        other => {
            return Err(ArgError(format!("unknown --chaos {other:?} (expected swap-class)")).into())
        }
    };
    if let Some(path) = a.options.get("spec") {
        let spec = read_spec_file(path)?;
        let scenario = VerifyScenario::from_spec(&spec)
            .map_err(|e| CliError::Runtime(format!("spec file {path}: {}", e.0)))?;
        println!("replaying {scenario}");
        let problems = check_scenario(&scenario, chaos)
            .map_err(|e| CliError::Runtime(format!("replaying {path}: {}", e.0)))?;
        if problems.is_empty() {
            println!("conforms: engines agree, all invariants hold");
            return Ok(());
        }
        for p in &problems {
            println!("  {p}");
        }
        return Err(CliError::Runtime(format!(
            "{} conformance problem(s) in {path}",
            problems.len()
        )));
    }
    let seed = a.number::<u64>("seed", 1)?;
    let cases = a.number::<usize>("cases", if a.flag("quick") { 64 } else { 256 })?;
    let report = run_verify(seed, cases, chaos).map_err(to_arg)?;
    println!(
        "verify: {} cases from seed {}, {} (topology, scheme) pairs covered",
        report.cases, seed, report.pairs_covered
    );
    if report.failures.is_empty() {
        println!("all cases conform: traces bit-identical, invariants hold");
        return Ok(());
    }
    let out_dir = a.get_or("out", ".");
    for f in &report.failures {
        println!("case {} FAILED: {}", f.case, f.scenario);
        for p in &f.problems {
            println!("    {p}");
        }
        println!("  shrunk to {} message(s): {}", f.shrunk.messages, f.shrunk);
        for p in &f.shrunk_problems {
            println!("    {p}");
        }
        let path = format!("{out_dir}/verify-repro-case{}.json", f.case);
        write_file(&path, &f.reproducer_spec().to_json())?;
        println!("  reproducer: {path} (replay with mcast verify --spec)");
    }
    Err(CliError::Runtime(format!(
        "{} of {} cases failed conformance",
        report.failures.len(),
        report.cases
    )))
}

/// `mcast topo …` — inspect a custom topology graph. `validate` checks
/// ingestion and prints the graph summary; `synthesize` constructs the
/// routing function and certifies it deadlock-free against the
/// channel-dependency-graph acyclicity checker; `route` prints the
/// synthesized source→destination paths; `deadlock` reports just the
/// certification verdict. A graph with no certifiable deadlock-free
/// routing is a runtime error (exit 1) naming the offending
/// channel-dependency cycle.
pub fn topo(a: &Args) -> Result<(), CliError> {
    let action = a.action.as_deref().unwrap_or("validate");
    if !["validate", "synthesize", "route", "deadlock"].contains(&action) {
        return Err(ArgError(format!(
            "unknown topo action {action:?} (expected validate, synthesize, route, or deadlock)"
        ))
        .into());
    }
    let raw = a.require("graph")?;
    let src = raw.strip_prefix("custom:").unwrap_or(raw);
    let graph =
        load_custom(src).map_err(|e| CliError::Runtime(format!("custom topology {src:?}: {e}")))?;
    println!("{}", graph.describe());
    println!(
        "duplex: {}, diameter: {}, max-degree node: {}",
        if graph.is_duplex() { "yes" } else { "no" },
        graph.diameter(),
        graph.node_name(graph.max_degree_node()),
    );
    if action == "validate" {
        println!("graph validates: connected, no self-loops or duplicate channels");
        return Ok(());
    }
    let routing = synthesize(&graph)
        .map_err(|e| CliError::Runtime(format!("custom topology {src:?}: {e}")))?;
    let kind = match routing.kind() {
        RoutingKind::UpDown => "up*/down*",
        RoutingKind::ShortestPath => "shortest-path",
    };
    match action {
        "synthesize" | "deadlock" => {
            let cdg = routing.cdg();
            print!("routing: {kind}");
            if let Some(root) = routing.root() {
                print!(", root {}", graph.node_name(root));
            }
            println!();
            println!(
                "certified deadlock-free: {} channel-dependency edge(s) over {} channel(s), acyclic",
                cdg.num_dependencies(),
                cdg.num_channels()
            );
        }
        "route" => {
            let source = parse_nodes(a.require("source")?)?
                .first()
                .copied()
                .ok_or_else(|| ArgError("empty --source".into()))?;
            let dests = parse_nodes(a.require("dests")?)?;
            let n = graph.num_nodes();
            for &node in dests.iter().chain([&source]) {
                if node >= n {
                    return Err(ArgError(format!("node {node} out of range (N={n})")).into());
                }
            }
            println!("routing: {kind}");
            for &d in &dests {
                let path = routing.path(source, d);
                println!(
                    "  {}: {} ({} hops)",
                    graph.node_name(d),
                    path.iter()
                        .map(|&v| graph.node_name(v).to_string())
                        .collect::<Vec<_>>()
                        .join(" -> "),
                    path.len() - 1
                );
            }
        }
        _ => unreachable!("action validated above"),
    }
    Ok(())
}

/// `mcast serve …` — the supervised job-execution service (DESIGN.md
/// §13). Opens (or resumes) the journal at `--journal`, ingests specs
/// from its inbox, and drains them through the worker pool. `--batch`
/// does one ingest-and-drain pass and exits non-zero if the ledger
/// invariant breaks; without it the server polls the inbox forever.
/// `--chaos` runs the built-in fault-injection self-test instead.
pub fn serve(a: &Args) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(a.require("journal")?);
    if a.flag("chaos") {
        let seed = a.number::<u64>("seed", 0xc4a05)?;
        // The self-test injects worker panics on purpose; the default
        // hook would spray backtraces over the report, so silence it
        // for the duration (the supervision layer catches them all).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = chaos_self_test(&dir, seed);
        std::panic::set_hook(hook);
        let report =
            result.map_err(|e| CliError::Runtime(format!("chaos self-test FAILED: {e}")))?;
        println!("{report}");
        println!("chaos self-test passed: no jobs lost, ledger balances");
        return Ok(());
    }
    let cfg = ServeConfig {
        workers: match a.number::<usize>("jobs", 0)? {
            0 => resolve_jobs(None),
            n => n,
        },
        queue_cap: a.number("queue-cap", ServeConfig::default().queue_cap)?,
        deadline_ms: a.number("deadline-ms", 0)?,
        step_budget: a.number("step-budget", 0)?,
        retry: RetryPolicy {
            max_retries: a.number("retries", RetryPolicy::default().max_retries)?,
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    };
    let batch = a.flag("batch");
    let poll_ms = a.number::<u64>("poll-ms", 200)?;
    let workers = cfg.workers;
    let server = JobServer::open(&dir, cfg).map_err(|e| CliError::Runtime(e.0))?;
    let replayed = server.ledger();
    println!(
        "serve: journal {} | {} worker(s) | replayed {replayed} | {} job(s) requeued",
        server.journal().path().display(),
        workers,
        server.queued()
    );
    loop {
        let ingested = server.ingest_inbox().map_err(|e| CliError::Runtime(e.0))?;
        if ingested > 0 {
            println!("ingested {ingested} spec(s) from inbox");
        }
        if ingested > 0 || server.queued() > 0 {
            server.run_until_drained();
            println!("LEDGER {}", server.ledger());
        }
        if batch {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
    let ledger = server.ledger();
    println!("LEDGER {ledger}");
    if let Some(path) = a.options.get("metrics-out") {
        write_file(path, &server.metrics_registry().to_json())?;
    }
    if !ledger.balanced() {
        return Err(CliError::Runtime(format!(
            "ledger invariant violated: {ledger}"
        )));
    }
    Ok(())
}

/// `mcast submit …` — validate a spec file and drop its canonical bytes
/// into the serve inbox (write-then-rename, so a concurrently polling
/// server never reads a torn file). `--force` skips validation and
/// submits the raw bytes, which is how the CI smoke test feeds the
/// server a poisoned spec.
pub fn submit(a: &Args) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(a.require("journal")?);
    let path = a.require("spec")?;
    let text = if a.flag("force") {
        std::fs::read_to_string(path).map_err(|e| {
            CliError::Runtime(format!(
                "cannot read spec file {path}: {e} (does the file exist and is it readable?)"
            ))
        })?
    } else {
        read_spec_file(path)?.to_json()
    };
    let inbox = inbox_dir(&dir);
    std::fs::create_dir_all(&inbox)
        .map_err(|e| CliError::Runtime(format!("cannot create inbox {}: {e}", inbox.display())))?;
    let name = spec_inbox_filename(&text);
    let target = inbox.join(&name);
    let tmp = inbox.join(format!(".{name}.tmp{}", std::process::id()));
    std::fs::write(&tmp, &text)
        .map_err(|e| CliError::Runtime(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &target).map_err(|e| {
        CliError::Runtime(format!("cannot move spec into {}: {e}", target.display()))
    })?;
    println!("submitted {path} -> {}", target.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn spec_file_matches_flag_driven_sweep_row_for_row() {
        // The legacy flag path and the serialized-spec path must agree
        // cell-for-cell on a 4x4 mesh (the spec is the flags, made
        // durable).
        let flag_spec = sweep_spec(&args(&[
            "sweep",
            "--topology",
            "mesh:4x4",
            "--algorithms",
            "dual-path,multi-path",
            "--loads-us",
            "800,500",
            "--dests",
            "4",
            "--replications",
            "2",
        ]))
        .unwrap();
        let from_file = ExperimentSpec::from_json(&flag_spec.to_json()).unwrap();
        let flag_rows = flag_spec.run_sweep(2).unwrap();
        let spec_rows = from_file.run_sweep(1).unwrap();
        assert_eq!(flag_rows.len(), 2 * 2 * 2);
        assert_eq!(flag_rows.len(), spec_rows.len());
        for (a, b) in flag_rows.iter().zip(&spec_rows) {
            assert_eq!(a.point.scheme, b.point.scheme);
            assert_eq!(a.point.mean_interarrival_ns, b.point.mean_interarrival_ns);
            assert_eq!(a.point.replication, b.point.replication);
            assert_eq!(a.point.seed, b.point.seed);
            assert_eq!(a.result.mean_latency_us, b.result.mean_latency_us);
            assert_eq!(a.result.completed, b.result.completed);
        }
    }

    #[test]
    fn route_command_end_to_end() {
        for alg in [
            "dual-path",
            "multi-path",
            "fixed-path",
            "dc-tree",
            "xfirst-tree",
            "divided-greedy",
            "sorted-mp",
            "greedy-st",
        ] {
            route(&args(&[
                "route",
                "--topology",
                "mesh:6x6",
                "--algorithm",
                alg,
                "--source",
                "15",
                "--dests",
                "0,5,30,35",
            ]))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn route_on_cube_with_binary_addresses() {
        for alg in ["dual-path", "multi-path", "sorted-mp", "greedy-st"] {
            route(&args(&[
                "route",
                "--topology",
                "cube:4",
                "--algorithm",
                alg,
                "--source",
                "0b1100",
                "--dests",
                "0b0100,0b1111,0b0011",
            ]))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn route_on_mesh3d_and_torus() {
        for (topo, alg) in [
            ("mesh:3x3x3", "dual-path"),
            ("mesh:3x3x3", "multi-path"),
            ("mesh:3x3x3", "greedy-st"),
            ("torus:4x2", "dual-path"),
            ("kary:3x2", "fixed-path"),
        ] {
            route(&args(&[
                "route",
                "--topology",
                topo,
                "--algorithm",
                alg,
                "--source",
                "0",
                "--dests",
                "1,5,7",
            ]))
            .unwrap_or_else(|e| panic!("{topo}/{alg}: {e}"));
        }
    }

    #[test]
    fn deadlock_scenarios() {
        deadlock(&args(&["deadlock", "--scenario", "fig6_1"])).unwrap();
        deadlock(&args(&["deadlock", "--scenario", "fig6_4"])).unwrap();
        deadlock(&args(&[
            "deadlock",
            "--scenario",
            "fig6_4",
            "--algorithm",
            "dual-path",
        ]))
        .unwrap();
        assert!(deadlock(&args(&["deadlock", "--scenario", "nope"])).is_err());
    }

    #[test]
    fn deadlock_scenarios_recover() {
        // The §6.1/§6.4 deadlocks complete under the recovery engine.
        deadlock(&args(&[
            "deadlock",
            "--scenario",
            "fig6_1",
            "--recover",
            "true",
        ]))
        .unwrap();
        deadlock(&args(&[
            "deadlock",
            "--scenario",
            "fig6_4",
            "--recover",
            "true",
        ]))
        .unwrap();
    }

    #[test]
    fn fault_sweep_all_formats_and_routers() {
        for format in ["table", "csv", "json"] {
            fault_sweep(&args(&[
                "fault-sweep",
                "--topology",
                "mesh:4x4",
                "--algorithm",
                "dual-path",
                "--fault-rates",
                "0,0.05,0.1,0.2",
                "--messages",
                "12",
                "--format",
                format,
            ]))
            .unwrap_or_else(|e| panic!("{format}: {e}"));
        }
        // Fault-aware multi-path on a cube, and an oblivious tree.
        fault_sweep(&args(&[
            "fault-sweep",
            "--topology",
            "cube:3",
            "--algorithm",
            "multi-path",
            "--messages",
            "8",
        ]))
        .unwrap();
        fault_sweep(&args(&[
            "fault-sweep",
            "--topology",
            "mesh:4x4",
            "--algorithm",
            "xfirst-tree",
            "--messages",
            "8",
        ]))
        .unwrap();
        assert!(fault_sweep(&args(&[
            "fault-sweep",
            "--topology",
            "mesh:4x4",
            "--fault-rates",
            "0,2.0"
        ]))
        .is_err());
        assert!(fault_sweep(&args(&[
            "fault-sweep",
            "--topology",
            "mesh:4x4",
            "--format",
            "yaml"
        ]))
        .is_err());
    }

    #[test]
    fn fault_sweep_on_mesh3d_and_torus() {
        for topo in ["mesh:3x3x2", "torus:3x2"] {
            fault_sweep(&args(&[
                "fault-sweep",
                "--topology",
                topo,
                "--algorithm",
                "multi-path",
                "--fault-rates",
                "0,0.1",
                "--messages",
                "8",
                "--dests",
                "3",
            ]))
            .unwrap_or_else(|e| panic!("{topo}: {e}"));
        }
    }

    #[test]
    fn trace_command_emits_valid_chrome_trace() {
        let dir = std::env::temp_dir();
        let out = dir.join("mcast_cli_test_trace.json");
        let mout = dir.join("mcast_cli_test_metrics.json");
        let ucsv = dir.join("mcast_cli_test_util.csv");
        trace(&args(&[
            "trace",
            "--topology",
            "mesh:6x6",
            "--messages",
            "40",
            "--dests",
            "4",
            "--interarrival-us",
            "40",
            "--out",
            out.to_str().unwrap(),
            "--metrics-out",
            mout.to_str().unwrap(),
            "--util-csv",
            ucsv.to_str().unwrap(),
            "--flits",
            "true",
        ]))
        .unwrap();
        let s = std::fs::read_to_string(&out).unwrap();
        mcast_obs::validate_json(&s).unwrap_or_else(|e| panic!("trace JSON invalid: {e}"));
        assert!(s.contains("traceEvents"));
        let m = std::fs::read_to_string(&mout).unwrap();
        mcast_obs::validate_json(&m).unwrap_or_else(|e| panic!("metrics JSON invalid: {e}"));
        assert!(m.contains("latency.ns"));
        assert!(std::fs::read_to_string(&ucsv)
            .unwrap()
            .starts_with("channel,"));
        for p in [&out, &mout, &ucsv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_command_works_on_every_topology_kind() {
        let dir = std::env::temp_dir();
        for (i, topo) in ["mesh:3x3x2", "cube:3", "torus:3x2"].iter().enumerate() {
            let out = dir.join(format!("mcast_cli_test_trace_topo{i}.json"));
            trace(&args(&[
                "trace",
                "--topology",
                topo,
                "--messages",
                "16",
                "--dests",
                "3",
                "--interarrival-us",
                "40",
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("{topo}: {e}"));
            let s = std::fs::read_to_string(&out).unwrap();
            mcast_obs::validate_json(&s).unwrap_or_else(|e| panic!("{topo} trace invalid: {e}"));
            let _ = std::fs::remove_file(&out);
        }
    }

    #[test]
    fn sweep_command_runs_and_verifies_serial_parity() {
        // Tiny grid; --compare-serial true errors out if the parallel
        // rows diverge from the serial reference, so .unwrap() is the
        // determinism assertion.
        sweep(&args(&[
            "sweep",
            "--topology",
            "mesh:4x4",
            "--algorithms",
            "dual-path,multi-path",
            "--loads-us",
            "800,500",
            "--replications",
            "2",
            "--dests",
            "4",
            "--jobs",
            "3",
            "--compare-serial",
            "true",
        ]))
        .unwrap();
        assert!(sweep(&args(&["sweep", "--algorithms", ""])).is_err());
        assert!(sweep(&args(&["sweep", "--loads-us", "abc"])).is_err());
    }

    #[test]
    fn run_command_executes_spec_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("mcast_cli_test_spec.json");
        std::fs::write(
            &path,
            r#"{"name": "cli-test", "topology": "mesh:4x4",
                "schemes": ["dual-path", "vc-multi-path:2"],
                "loads_us": [800], "destinations": 4, "replications": 1,
                "stopping": {"warmup": 20, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3},
                "fault": {"rates": [0, 0.1], "messages": 8}}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        run(&args(&["run", "--spec", p, "--dry-run", "true"])).unwrap();
        run(&args(&["run", "--spec", p, "--jobs", "2"])).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(run(&args(&["run", "--spec", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn run_command_streams_with_message_bound() {
        // --stream / --messages turn the spec's points into
        // bounded-memory streaming runs; a spec with its own stream
        // section needs no flags at all.
        let dir = std::env::temp_dir();
        let path = dir.join("mcast_cli_test_stream_spec.json");
        std::fs::write(
            &path,
            r#"{"name": "cli-stream", "topology": "mesh:4x4",
                "schemes": ["dual-path"], "loads_us": [500],
                "destinations": 4, "replications": 1,
                "stopping": {"warmup": 20, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3}}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        run(&args(&["run", "--spec", p, "--stream", "true"])).unwrap();
        run(&args(&["run", "--spec", p, "--messages", "300"])).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_command_duration_bound_streams_and_rejects_zero() {
        // --duration-ms turns on streaming with a simulated-wall-time
        // bound; zero is a usage error (a zero-length run is always a
        // mistake), matching spec validation of stream.duration_ns.
        let dir = std::env::temp_dir();
        let path = dir.join("mcast_cli_test_duration_spec.json");
        std::fs::write(
            &path,
            r#"{"name": "cli-duration", "topology": "mesh:4x4",
                "schemes": ["dual-path"], "loads_us": [500],
                "destinations": 4, "replications": 1,
                "stopping": {"warmup": 20, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3}}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        run(&args(&["run", "--spec", p, "--duration-ms", "5"])).unwrap();
        run(&args(&[
            "run",
            "--spec",
            p,
            "--duration-ms",
            "5",
            "--messages",
            "300",
        ]))
        .unwrap();
        let zero = run(&args(&["run", "--spec", p, "--duration-ms", "0"])).unwrap_err();
        assert!(
            matches!(zero, CliError::Usage(ref m) if m.contains("duration-ms")),
            "{zero:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn usage_lists_the_flags_each_subcommand_accepts() {
        // Rejection (exit 2 naming the flag) is tested end to end in
        // tests/flags.rs; here, documented flags must pass.
        check_flags(&args(&[
            "run", "--spec", "s.json", "--jobs", "2", "--stream",
        ]))
        .unwrap();
        check_flags(&args(&[
            "serve",
            "--journal",
            "d",
            "--chaos",
            "--seed",
            "7",
        ]))
        .unwrap();
        // Every documented subcommand has an entry; `mcast help` takes
        // no flags at all.
        for cmd in [
            "route",
            "simulate",
            "sweep",
            "run",
            "deadlock",
            "fault-sweep",
            "trace",
            "metrics",
            "verify",
            "topo",
            "serve",
            "submit",
        ] {
            let flags = accepted_flags(cmd).unwrap_or_else(|| panic!("{cmd} undocumented"));
            assert!(!flags.is_empty(), "{cmd} lists no flags");
        }
        assert_eq!(accepted_flags("help"), Some(Vec::new()));
        assert_eq!(accepted_flags("nope"), None);
    }

    #[test]
    fn file_errors_are_runtime_not_usage() {
        // A missing or malformed spec file is the work failing, not the
        // invocation: it must exit 1 without re-printing the usage
        // block. A missing flag stays a usage error.
        let missing = run(&args(&["run", "--spec", "/nonexistent.json"])).unwrap_err();
        assert!(matches!(missing, CliError::Runtime(ref m) if m.contains("/nonexistent.json")));
        let dir = std::env::temp_dir();
        let bad = dir.join("mcast_cli_test_bad_spec.json");
        std::fs::write(&bad, "{\"name\": ").unwrap();
        let malformed = run(&args(&["run", "--spec", bad.to_str().unwrap()])).unwrap_err();
        assert!(matches!(malformed, CliError::Runtime(ref m) if m.contains("not a valid spec")));
        let _ = std::fs::remove_file(&bad);
        let no_flag = run(&args(&["run"])).unwrap_err();
        assert!(matches!(no_flag, CliError::Usage(_)));
    }

    #[test]
    fn write_file_creates_parent_directories() {
        let dir = std::env::temp_dir()
            .join(format!("mcast-cli-outdirs-{}", std::process::id()))
            .join("deep/nested");
        let path = dir.join("artifact.json");
        write_file(path.to_str().unwrap(), "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn submit_then_serve_batch_round_trip() {
        let dir = std::env::temp_dir().join(format!("mcast-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "cli-serve", "topology": "mesh:4x4",
                "schemes": ["dual-path"], "loads_us": [800],
                "destinations": 3, "replications": 1,
                "stopping": {"warmup": 10, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3}}"#,
        )
        .unwrap();
        let journal = dir.join("journal");
        let j = journal.to_str().unwrap();
        submit(&args(&[
            "submit",
            "--journal",
            j,
            "--spec",
            spec_path.to_str().unwrap(),
        ]))
        .unwrap();
        serve(&args(&["serve", "--journal", j, "--batch", "--jobs", "2"])).unwrap();
        // A custom-graph spec flows through the same submit/serve path.
        let custom_spec = dir.join("custom.json");
        std::fs::write(
            &custom_spec,
            r#"{"name": "serve-custom", "topology": "custom:rand:8x2",
                "schemes": ["updown-mc"], "loads_us": [400],
                "destinations": 3, "replications": 1,
                "stopping": {"warmup": 10, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3}}"#,
        )
        .unwrap();
        submit(&args(&[
            "submit",
            "--journal",
            j,
            "--spec",
            custom_spec.to_str().unwrap(),
        ]))
        .unwrap();
        // Restarting the server replays the journal: the first job must
        // be completed already, the custom job drains, and the ledger
        // stays balanced.
        serve(&args(&["serve", "--journal", j, "--batch"])).unwrap();
        // Submitting a spec to a path we cannot create is a runtime
        // error with the failing path in the message.
        let err = submit(&args(&[
            "submit",
            "--journal",
            "/proc/definitely-unwritable",
            "--spec",
            spec_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_command_runs_on_mesh_and_cube() {
        metrics(&args(&[
            "metrics",
            "--topology",
            "mesh:6x6",
            "--messages",
            "30",
            "--pattern",
            "hotspot",
        ]))
        .unwrap();
        metrics(&args(&[
            "metrics",
            "--topology",
            "cube:4",
            "--messages",
            "20",
            "--pattern",
            "uniform",
            "--json",
            "true",
        ]))
        .unwrap();
        assert!(metrics(&args(&["metrics", "--pattern", "nope"])).is_err());
    }

    #[test]
    fn verify_quick_profile_passes_cleanly() {
        // The acceptance sweep: 64 cases from seed 1 must conform with
        // zero mismatches across every registry (topology, scheme) pair.
        verify(&args(&["verify", "--seed", "1", "--cases", "64"])).unwrap();
        assert!(verify(&args(&["verify", "--chaos", "nope"])).is_err());
    }

    #[test]
    fn verify_replays_specs_and_catches_the_chaos_bug() {
        let dir = std::env::temp_dir();
        let path = dir.join("mcast_cli_test_verify_spec.json");
        // A dc-tree scenario pins Fixed channel classes, so the
        // test-only swapped-class bug must break conformance — and the
        // same spec must pass with the bug off.
        let scenario = VerifyScenario {
            topology: parse_topology("mesh:4x4").unwrap(),
            scheme: parse_scheme("dc-tree").unwrap(),
            pattern: PatternSpec::Uniform,
            load_us: 10.0,
            destinations: 4,
            messages: 4,
            seed: 3,
            fault_rate: 0.0,
            engine_jobs: 1,
            stream: true,
        };
        std::fs::write(&path, scenario.to_spec().to_json()).unwrap();
        let p = path.to_str().unwrap();
        verify(&args(&["verify", "--spec", p])).unwrap();
        assert!(verify(&args(&["verify", "--spec", p, "--chaos", "swap-class"])).is_err());
        let _ = std::fs::remove_file(&path);
        assert!(verify(&args(&["verify", "--spec", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn topo_command_actions_end_to_end() {
        // The checked-in example graphs must validate, synthesize a
        // certified routing, and answer route/deadlock queries.
        let json = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/graph_dragonfly_small.json"
        );
        let dot = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/graph_lesioned_mesh.dot"
        );
        for graph in [json, dot] {
            topo(&args(&["topo", "--graph", graph])).unwrap();
            topo(&args(&["topo", "synthesize", "--graph", graph])).unwrap();
            topo(&args(&["topo", "deadlock", "--graph", graph])).unwrap();
            topo(&args(&[
                "topo", "route", "--graph", graph, "--source", "0", "--dests", "1,5,7",
            ]))
            .unwrap();
        }
        // Generator forms resolve with or without the custom: prefix.
        topo(&args(&[
            "topo",
            "synthesize",
            "--graph",
            "custom:lmesh:4x3x1",
        ]))
        .unwrap();
        topo(&args(&["topo", "deadlock", "--graph", "ftree:2x9"])).unwrap();
        // A bad action or an out-of-range node is a usage error.
        assert!(matches!(
            topo(&args(&["topo", "frobnicate", "--graph", dot])).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            topo(&args(&[
                "topo", "route", "--graph", dot, "--source", "99", "--dests", "1",
            ]))
            .unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn graph_file_errors_are_runtime_not_usage() {
        // A missing or malformed graph file is the work failing — exit
        // 1 with the path and reason, never a usage dump (exit 2) and
        // never a panic.
        let missing =
            topo(&args(&["topo", "validate", "--graph", "/nonexistent.dot"])).unwrap_err();
        assert!(matches!(missing, CliError::Runtime(ref m) if m.contains("/nonexistent.dot")));
        let dir = std::env::temp_dir();
        let bad = dir.join("mcast_cli_test_bad_graph.json");
        std::fs::write(&bad, "{\"nodes\": ").unwrap();
        let malformed = topo(&args(&[
            "topo",
            "validate",
            "--graph",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(malformed, CliError::Runtime(ref m) if m.contains("bad_graph")));
        let _ = std::fs::remove_file(&bad);
        // The same discipline holds when the graph arrives through
        // --topology custom:<file> on an ordinary routing command…
        let route_err = route(&args(&[
            "route",
            "--topology",
            "custom:/nonexistent.json",
            "--algorithm",
            "updown-mc",
            "--source",
            "0",
            "--dests",
            "1",
        ]))
        .unwrap_err();
        assert!(matches!(route_err, CliError::Runtime(ref m) if m.contains("/nonexistent.json")));
        // …while a malformed generator form stays a usage error.
        assert!(matches!(
            parse_topology("custom:rand:banana").unwrap_err(),
            CliError::Usage(_)
        ));
        // A graph with no certifiable deadlock-free routing is a
        // runtime error naming the offending cycle.
        let ring = dir.join("mcast_cli_test_uniring.json");
        std::fs::write(
            &ring,
            r#"{"nodes": 4, "duplex": false, "edges": [[0,1],[1,2],[2,3],[3,0]]}"#,
        )
        .unwrap();
        let cyclic = topo(&args(&[
            "topo",
            "deadlock",
            "--graph",
            ring.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            matches!(cyclic, CliError::Runtime(ref m) if m.contains("channel-dependency cycle")),
            "{cyclic:?}"
        );
        let _ = std::fs::remove_file(&ring);
    }

    #[test]
    fn route_and_run_on_custom_graphs() {
        // The up*/down* schemes and the generic greedy-st heuristic
        // route on generator-form custom graphs…
        for alg in ["updown-mc", "updown-tree", "greedy-st"] {
            route(&args(&[
                "route",
                "--topology",
                "custom:rand:10x3",
                "--algorithm",
                alg,
                "--source",
                "0",
                "--dests",
                "1,5,7",
            ]))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
        // …the checked-in custom-graph spec dry-runs (validates and
        // resolves every router)…
        let spec = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spec_custom_graph.json"
        );
        run(&args(&["run", "--spec", spec, "--dry-run", "true"])).unwrap();
        // …and a small custom-graph spec executes end-to-end.
        let dir = std::env::temp_dir();
        let path = dir.join("mcast_cli_test_custom_spec.json");
        std::fs::write(
            &path,
            r#"{"name": "cli-custom", "topology": "custom:rand:8x5",
                "schemes": ["updown-mc", "updown-tree"],
                "loads_us": [400], "destinations": 3, "replications": 1,
                "stopping": {"warmup": 10, "batch_size": 10,
                             "min_batches": 2, "max_batches": 3}}"#,
        )
        .unwrap();
        run(&args(&[
            "run",
            "--spec",
            path.to_str().unwrap(),
            "--jobs",
            "2",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(route(&args(&[
            "route",
            "--topology",
            "mesh:6x6",
            "--source",
            "99",
            "--dests",
            "1"
        ]))
        .is_err());
        assert!(parse_topology("ring:5").is_err());
        assert!(parse_topology("mesh:4x0").is_err());
        assert!(make_router(&TopoSpec::Mesh2D { w: 4, h: 4 }, "ecube-tree").is_err());
        assert!(make_router(&TopoSpec::Mesh2D { w: 4, h: 4 }, "dual-path:3").is_err());
    }
}
