//! The `static_routes` workload: the (planner, network, k) grid of
//! Figs 7.1–7.7. Every route goes through `static_eval::measure_traffic`
//! into a public `mcast_core` planner; the engine is never used.

use std::time::Instant;

use mcast_core::model::{multi_unicast_traffic, MulticastRoute, MulticastSet, PathRoute};
use mcast_core::{
    dc_xfirst_tree, divided_greedy, dual_path, fixed_path, greedy_st, kmb, len, multi_path,
    sorted_mp, xfirst,
};
use mcast_topology::hamiltonian::{hypercube_cycle, mesh2d_cycle};
use mcast_topology::labeling::{hypercube_gray, mesh2d_snake};
use mcast_topology::{HamiltonCycle, Hypercube, Labeling, Mesh2D, Topology};
use mcast_workload::{measure_traffic, replication_seed, TrafficPoint};

use crate::dynamic::report_overhead;
use crate::report::{batched_s, Report, Timeline};
use crate::trace::{Layer, Tracer, CORE_NAMES};
use crate::Args;

/// The networks of the static figures, with the cycle or labeling each
/// planner family needs.
struct Nets {
    m32: Mesh2D,
    c32: HamiltonCycle,
    h10: Hypercube,
    c10: HamiltonCycle,
    m16: Mesh2D,
    h6: Hypercube,
    l6: Labeling,
    m8: Mesh2D,
    l8: Labeling,
}

fn build_nets() -> Nets {
    let m32 = Mesh2D::new(32, 32);
    let h10 = Hypercube::new(10);
    let h6 = Hypercube::new(6);
    let m8 = Mesh2D::new(8, 8);
    Nets {
        c32: mesh2d_cycle(&m32),
        c10: hypercube_cycle(&h10),
        l6: hypercube_gray(&h6),
        l8: mesh2d_snake(&m8),
        m16: Mesh2D::new(16, 16),
        m32,
        h10,
        h6,
        m8,
    }
}

#[derive(Debug, Clone, Copy)]
enum Net {
    Mesh32,
    Cube10,
    Mesh16,
    Cube6,
    Mesh8,
}

/// Indices into [`CORE_NAMES`].
const SORTED_MP: usize = 0;
const SORTED_MC: usize = 1;
const GREEDY_ST: usize = 2;
const LEN: usize = 3;
const KMB: usize = 4;
const XFIRST: usize = 5;
const DIVIDED_GREEDY: usize = 6;
const DUAL_PATH: usize = 7;
const MULTI_PATH: usize = 8;
const FIXED_PATH: usize = 9;
const DC_XFIRST: usize = 10;
const MULTI_UNICAST: usize = 11;

const K_LARGE: &[usize] = &[5, 50, 300];
const K_MID: &[usize] = &[5, 20, 80];
const K_SMALL: &[usize] = &[5, 20, 40];
const TRIALS: usize = 100;
/// Trials for the O(k²) planners (greedy ST and KMB).
const TRIALS_HEAVY: usize = 10;

/// (planner, network, destination counts, trials per cell), figure by
/// figure: 7.1 and 7.2 (sorted MP/MC vs unicasts), 7.3 and 7.4 (greedy
/// ST, LEN, KMB), 7.5 (X-first vs divided greedy), 7.6 and 7.7 (the
/// deadlock-free path schemes and the double-channel tree).
const GRID: &[(usize, Net, &[usize], usize)] = &[
    (SORTED_MP, Net::Mesh32, K_LARGE, TRIALS),
    (SORTED_MC, Net::Mesh32, K_LARGE, TRIALS),
    (MULTI_UNICAST, Net::Mesh32, K_LARGE, TRIALS),
    (SORTED_MP, Net::Cube10, K_LARGE, TRIALS),
    (SORTED_MC, Net::Cube10, K_LARGE, TRIALS),
    (MULTI_UNICAST, Net::Cube10, K_LARGE, TRIALS),
    (GREEDY_ST, Net::Mesh32, K_LARGE, TRIALS_HEAVY),
    (GREEDY_ST, Net::Cube10, K_LARGE, TRIALS_HEAVY),
    (LEN, Net::Cube10, K_LARGE, TRIALS),
    (KMB, Net::Cube10, K_LARGE, TRIALS_HEAVY),
    (XFIRST, Net::Mesh16, K_MID, TRIALS),
    (DIVIDED_GREEDY, Net::Mesh16, K_MID, TRIALS),
    (MULTI_UNICAST, Net::Mesh16, K_MID, TRIALS),
    (DUAL_PATH, Net::Cube6, K_SMALL, TRIALS),
    (MULTI_PATH, Net::Cube6, K_SMALL, TRIALS),
    (FIXED_PATH, Net::Cube6, K_SMALL, TRIALS),
    (DUAL_PATH, Net::Mesh8, K_SMALL, TRIALS),
    (MULTI_PATH, Net::Mesh8, K_SMALL, TRIALS),
    (FIXED_PATH, Net::Mesh8, K_SMALL, TRIALS),
    (DC_XFIRST, Net::Mesh8, K_SMALL, TRIALS),
];

/// A planner's output, in whichever form the planner returns.
enum Routed {
    Route(MulticastRoute),
    Steiner(greedy_st::SteinerTree),
    Kmb(kmb::KmbTree),
    Unicast(usize),
}

fn route(n: &Nets, planner: usize, net: Net, mc: &MulticastSet) -> Routed {
    use MulticastRoute::{Star, Tree};
    use Net::*;
    match (planner, net) {
        (SORTED_MP, Mesh32) => Routed::Route(sorted_mp::sorted_mp_route(&n.m32, &n.c32, mc)),
        (SORTED_MP, Cube10) => Routed::Route(sorted_mp::sorted_mp_route(&n.h10, &n.c10, mc)),
        (SORTED_MC, Mesh32) => Routed::Route(sorted_mp::sorted_mc_route(&n.m32, &n.c32, mc)),
        (SORTED_MC, Cube10) => Routed::Route(sorted_mp::sorted_mc_route(&n.h10, &n.c10, mc)),
        (GREEDY_ST, Mesh32) => Routed::Steiner(greedy_st::greedy_st(&n.m32, mc)),
        (GREEDY_ST, Cube10) => Routed::Steiner(greedy_st::greedy_st(&n.h10, mc)),
        (LEN, Cube10) => Routed::Route(Tree(len::len_tree(&n.h10, mc))),
        (KMB, Cube10) => Routed::Kmb(kmb::kmb(&n.h10, mc)),
        (XFIRST, Mesh16) => Routed::Route(Tree(xfirst::xfirst_tree(&n.m16, mc))),
        (DIVIDED_GREEDY, Mesh16) => {
            Routed::Route(Tree(divided_greedy::divided_greedy_tree(&n.m16, mc)))
        }
        (DUAL_PATH, Cube6) => Routed::Route(dual_path::dual_path_route(&n.h6, &n.l6, mc)),
        (DUAL_PATH, Mesh8) => Routed::Route(dual_path::dual_path_route(&n.m8, &n.l8, mc)),
        (MULTI_PATH, Cube6) => Routed::Route(Star(multi_path::multi_path(&n.h6, &n.l6, mc))),
        (MULTI_PATH, Mesh8) => Routed::Route(multi_path::multi_path_mesh_route(&n.m8, &n.l8, mc)),
        (FIXED_PATH, Cube6) => Routed::Route(fixed_path::fixed_path_route(&n.h6, &n.l6, mc)),
        (FIXED_PATH, Mesh8) => Routed::Route(fixed_path::fixed_path_route(&n.m8, &n.l8, mc)),
        (DC_XFIRST, Mesh8) => Routed::Route(dc_xfirst_tree::dc_xfirst_route(&n.m8, mc)),
        (MULTI_UNICAST, Mesh32) => Routed::Unicast(multi_unicast_traffic(&n.m32, mc)),
        (MULTI_UNICAST, Cube10) => Routed::Unicast(multi_unicast_traffic(&n.h10, mc)),
        (MULTI_UNICAST, Mesh16) => Routed::Unicast(multi_unicast_traffic(&n.m16, mc)),
        _ => unreachable!("the grid pairs each planner with its figure's networks"),
    }
}

fn topo(n: &Nets, net: Net) -> &dyn Topology {
    match net {
        Net::Mesh32 => &n.m32,
        Net::Cube10 => &n.h10,
        Net::Mesh16 => &n.m16,
        Net::Cube6 => &n.h6,
        Net::Mesh8 => &n.m8,
    }
}

fn traffic(n: &Nets, net: Net, r: &Routed) -> usize {
    match r {
        Routed::Route(route) => route.traffic(),
        Routed::Steiner(st) => match net {
            Net::Mesh32 => st.traffic(&n.m32),
            _ => st.traffic(&n.h10),
        },
        Routed::Kmb(tree) => tree.traffic(),
        Routed::Unicast(t) => *t,
    }
}

/// Checks a route against its model's definition on the network.
fn validate(n: &Nets, net: Net, mc: &MulticastSet, r: &Routed) -> Result<(), String> {
    let t = topo(n, net);
    match r {
        Routed::Route(route) => route.validate(t, mc),
        Routed::Steiner(st) => {
            st.validate(mc)?;
            let paths = match net {
                Net::Mesh32 => st.realize(&n.m32),
                _ => st.realize(&n.h10),
            };
            paths
                .into_iter()
                .try_for_each(|p| PathRoute::new(p).validate(t, false))
        }
        Routed::Kmb(tree) => {
            tree.validate(mc)?;
            match tree.edges.iter().find(|&&(a, b)| !t.adjacent(a, b)) {
                Some((a, b)) => Err(format!("KMB edge {a}-{b} is not a link")),
                None => Ok(()),
            }
        }
        Routed::Unicast(total) => {
            let expect: usize = mc
                .destinations
                .iter()
                .map(|&d| t.distance(mc.source, d))
                .sum();
            if *total == expect {
                Ok(())
            } else {
                Err(format!("unicast traffic {total}, expected {expect}"))
            }
        }
    }
}

fn cells() -> Vec<(usize, Net, usize, usize)> {
    GRID.iter()
        .flat_map(|&(p, net, ks, trials)| ks.iter().map(move |&k| (p, net, k, trials)))
        .collect()
}

fn routes_per_pass() -> u64 {
    cells().iter().map(|c| c.3 as u64).sum()
}

/// One pass over the grid. `on_cell` runs each cell's `measure_traffic`
/// call, and `on_route` each planner call, returning the route's traffic.
fn pass(
    n: &Nets,
    seed: u64,
    mut on_cell: impl FnMut(usize, &mut dyn FnMut() -> TrafficPoint) -> TrafficPoint,
    mut on_route: impl FnMut(usize, Net, &MulticastSet) -> usize,
) -> Vec<u64> {
    cells()
        .into_iter()
        .enumerate()
        .map(|(i, (p, net, k, trials))| {
            let nodes = topo(n, net).num_nodes();
            let cell_seed = replication_seed(seed, i as u64);
            let mut run =
                || measure_traffic(nodes, k, trials, cell_seed, |mc| on_route(p, net, mc));
            on_cell(i, &mut run).mean_traffic.to_bits()
        })
        .collect()
}

fn untraced_pass(n: &Nets, seed: u64) -> Vec<u64> {
    pass(
        n,
        seed,
        |_, run| run(),
        |p, net, mc| traffic(n, net, &route(n, p, net, mc)),
    )
}

pub fn gate(args: &Args, rep: &mut Report) {
    let n = build_nets();
    pass(
        &n,
        args.seed,
        |_, run| run(),
        |p, net, mc| {
            let r = route(&n, p, net, mc);
            let v = validate(&n, net, mc, &r);
            rep.check(v.is_ok(), || {
                format!("{} on {net:?}: {}", CORE_NAMES[p], v.clone().unwrap_err())
            });
            traffic(&n, net, &r)
        },
    );
}

pub fn measure(args: &Args, rep: &mut Report) {
    let n = build_nets();
    let mut timeline = Timeline::new();
    let mut first: Option<Vec<u64>> = None;
    while timeline.jobs.is_empty() || timeline.now() < args.seconds {
        timeline.maybe_setup(5, || batched_s(0.05, || drop(build_nets())));
        let t = Instant::now();
        let result = untraced_pass(&n, args.seed);
        timeline.job(t.elapsed().as_secs_f64(), routes_per_pass());
        rep.ops(routes_per_pass());
        match &first {
            None => first = Some(result),
            Some(f) => rep.check(*f == result, || "repeated pass differs".to_string()),
        }
    }
    timeline.report(rep);
}

pub fn trace(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let core_allocs = |tr: &Tracer| -> u64 {
        (0..CORE_NAMES.len())
            .map(|i| tr.total(Layer::Core(i)).self_allocs)
            .sum()
    };
    let (mut untraced_s, mut traced_s, mut jobs) = (0.0, 0.0, 0u64);
    let mut first_allocs: Option<u64> = None;
    let start = Instant::now();
    while jobs < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let expected = untraced_pass(&build_nets(), args.seed);
        untraced_s += t.elapsed().as_secs_f64();
        rep.ops(routes_per_pass());

        let allocs_before = core_allocs(tr);
        let t = Instant::now();
        tr.enter(Layer::Root, jobs);
        let n = tr.span(Layer::SetupTopology, 0, build_nets);
        let mut route_id = 0u64;
        let tr_cell = std::cell::RefCell::new(&mut *tr);
        let result = pass(
            &n,
            args.seed,
            |cell, run| {
                tr_cell.borrow_mut().enter(Layer::Static, cell as u64);
                let point = run();
                tr_cell.borrow_mut().exit();
                point
            },
            |p, net, mc| {
                route_id += 1;
                let mut tr = tr_cell.borrow_mut();
                tr.span(Layer::Core(p), route_id, || {
                    traffic(&n, net, &route(&n, p, net, mc))
                })
            },
        );
        tr.exit();
        traced_s += t.elapsed().as_secs_f64();
        tr.record = false;
        jobs += 1;

        rep.check(result == expected, || {
            "traced pass differs from untraced pass".to_string()
        });
        let allocs = core_allocs(tr) - allocs_before;
        match first_allocs {
            None => first_allocs = Some(allocs),
            Some(f) => rep.check(f == allocs, || {
                format!("planner allocations differ between passes: {f} vs {allocs}")
            }),
        }
    }

    let routes = routes_per_pass() as f64 * jobs as f64;
    let mut core_calls = 0u64;
    for (i, name) in CORE_NAMES.iter().enumerate() {
        let t = tr.total(Layer::Core(i));
        core_calls += t.calls;
        let per_route = if t.calls == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.calls as f64
        };
        rep.metric(&format!("core.{name}.ns_per_route"), per_route);
    }
    let per_pass = first_allocs.expect("at least one traced pass");
    rep.metric(
        "core.allocs_per_route",
        core_allocs(tr) as f64 / core_calls as f64,
    );
    rep.metric(
        "static.ns_per_route",
        tr.total(Layer::Static).self_ns as f64 / routes,
    );
    rep.metric(
        "setup.topology_ms",
        tr.total(Layer::SetupTopology).self_ns as f64 / jobs as f64 / 1e6,
    );
    rep.metric("count.mcasts", routes_per_pass() as f64);
    rep.metric("count.allocs", per_pass as f64);
    report_overhead(rep, tr, untraced_s, traced_s, jobs as f64);
}
