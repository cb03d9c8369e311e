//! Property tests for the fault model: fault-aware planners must route
//! around any masked channel, deliver to every reachable destination,
//! degrade to the healthy planners under an empty mask, and the
//! recovery engine must deliver everything whenever the survivors stay
//! connected.

use mcast::prelude::*;
use mcast_core::fault_route::{fault_dual_path, fault_multi_path_mesh};
use mcast_sim::recovery::{FaultDualPathRouter, RecoveryEngine, RecoveryPolicy};
use mcast_topology::{FaultEvent, FaultMask, FaultSchedule};
use proptest::prelude::*;

/// Strategy: a mesh, a multicast set on it, a mask seed, and a fault
/// rate in `[0, max_rate)`.
fn mesh_case(max_rate: f64) -> impl Strategy<Value = (Mesh2D, MulticastSet, u64, f64)> {
    (3usize..=8, 3usize..=8).prop_flat_map(move |(w, h)| {
        let n = w * h;
        (
            0..n,
            proptest::collection::vec(0..n, 1..=10),
            0u64..1_000_000,
            0.0..max_rate,
        )
            .prop_map(move |(s, d, seed, rate)| {
                (Mesh2D::new(w, h), MulticastSet::new(s, d), seed, rate)
            })
    })
}

/// Every consecutive hop of every path survives the mask, and every
/// destination is covered by the union of paths.
fn assert_paths_avoid_mask(
    paths: &[PathRoute],
    mask: &FaultMask,
    mc: &MulticastSet,
) -> Result<(), TestCaseError> {
    for p in paths {
        for w in p.nodes().windows(2) {
            prop_assert!(
                mask.is_link_alive(w[0], w[1]),
                "path routes through masked link {} -> {}",
                w[0],
                w[1]
            );
        }
    }
    for &d in &mc.destinations {
        prop_assert!(
            paths.iter().any(|p| p.nodes().contains(&d)),
            "reachable destination {d} not covered"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_dual_path_avoids_masked_links_and_covers_mesh(
        (mesh, mc, seed, rate) in mesh_case(0.4)
    ) {
        let mask = FaultMask::random_links_connected(&mesh, rate, seed);
        let labeling = mesh2d_snake(&mesh);
        let routed = fault_dual_path(&mesh, &labeling, &mask, &mc).unwrap();
        // Connectivity-preserving masks leave every node reachable.
        prop_assert!(routed.unreachable.is_empty());
        assert_paths_avoid_mask(&routed.paths, &mask, &mc)?;
    }

    #[test]
    fn fault_multi_path_avoids_masked_links_and_covers_mesh(
        (mesh, mc, seed, rate) in mesh_case(0.4)
    ) {
        let mask = FaultMask::random_links_connected(&mesh, rate, seed);
        let labeling = mesh2d_snake(&mesh);
        let routed = fault_multi_path_mesh(&mesh, &labeling, &mask, &mc).unwrap();
        prop_assert!(routed.unreachable.is_empty());
        assert_paths_avoid_mask(&routed.paths, &mask, &mc)?;
    }

    #[test]
    fn fault_dual_path_avoids_masked_links_on_cube(
        (cube, mc, seed, rate) in (2u32..=6).prop_flat_map(|dim| {
            let n = 1usize << dim;
            (0..n, proptest::collection::vec(0..n, 1..=10), 0u64..1_000_000, 0.0..0.3f64).prop_map(
                move |(s, d, seed, rate)| {
                    (Hypercube::new(dim), MulticastSet::new(s, d), seed, rate)
                },
            )
        })
    ) {
        let mask = FaultMask::random_links_connected(&cube, rate, seed);
        let labeling = hypercube_gray(&cube);
        let routed = fault_dual_path(&cube, &labeling, &mask, &mc).unwrap();
        prop_assert!(routed.unreachable.is_empty());
        assert_paths_avoid_mask(&routed.paths, &mask, &mc)?;
    }

    #[test]
    fn empty_mask_reproduces_healthy_dual_path(
        (mesh, mc, _seed, _rate) in mesh_case(0.1)
    ) {
        let labeling = mesh2d_snake(&mesh);
        let routed = fault_dual_path(&mesh, &labeling, &FaultMask::none(), &mc).unwrap();
        let healthy = dual_path(&mesh, &labeling, &mc);
        prop_assert_eq!(routed.paths, healthy, "empty mask must be bit-identical");
        prop_assert!(routed.provably_deadlock_free());
    }

    /// End to end: under any connectivity-preserving static mask, the
    /// recovery engine with the fault-aware dual-path router delivers
    /// every destination of every message.
    #[test]
    fn recovery_delivers_everything_while_connected(
        (mesh, mcs, seed, rate) in (3usize..=6, 3usize..=6).prop_flat_map(|(w, h)| {
            let n = w * h;
            let mc = (0..n, proptest::collection::vec(0..n, 1..=6))
                .prop_map(|(s, d)| MulticastSet::new(s, d));
            (proptest::collection::vec(mc, 1..=5), 0u64..1_000_000, 0.0..0.35f64)
                .prop_map(move |(mcs, seed, rate)| (Mesh2D::new(w, h), mcs, seed, rate))
        })
    ) {
        let mask = FaultMask::random_links_connected(&mesh, rate, seed);
        let router = FaultDualPathRouter::mesh(mesh);
        let network = Network::new(&mesh, 1);
        let mut rec = RecoveryEngine::new(
            network,
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        )
        .with_initial_faults(&mask);
        let expected: usize = mcs.iter().map(|mc| mc.k()).sum();
        for (i, mc) in mcs.into_iter().enumerate() {
            rec.submit_at(i as u64 * 500, mc);
        }
        prop_assert!(rec.run(), "all messages must resolve with full delivery");
        let (delivered, total) = rec.delivery_counts();
        prop_assert_eq!(delivered, total);
        prop_assert_eq!(total, expected);
    }

    /// A single link failing mid-flight never prevents delivery as long
    /// as the survivors stay connected: the watchdog aborts any severed
    /// worm and the retry routes around the dead link.
    #[test]
    fn recovery_survives_one_mid_flight_link_failure(
        (mesh, mc, link_idx, at) in (4usize..=6, 4usize..=6).prop_flat_map(|(w, h)| {
            let n = w * h;
            (0..n, proptest::collection::vec(0..n, 1..=6), 0usize..10_000, 100u64..20_000)
                .prop_map(move |(s, d, li, at)| {
                    (Mesh2D::new(w, h), MulticastSet::new(s, d), li, at)
                })
        })
    ) {
        // Pick a failing link (by index into the undirected link list)
        // that keeps the mesh connected.
        let links: Vec<(usize, usize)> = mesh
            .channels()
            .into_iter()
            .filter(|c| c.from < c.to)
            .map(|c| (c.from, c.to))
            .collect();
        let (a, b) = links[link_idx % links.len()];
        let mut mask = FaultMask::none();
        mask.fail_link(a, b);
        prop_assume!(mask.keeps_connected(&mesh));

        let router = FaultDualPathRouter::mesh(mesh);
        let mut rec = RecoveryEngine::new(
            Network::new(&mesh, 1),
            SimConfig::default(),
            &router,
            RecoveryPolicy::default(),
        );
        let mut schedule = FaultSchedule::none();
        schedule.push(at, FaultEvent::LinkDown(a, b));
        rec.set_schedule(schedule);
        let k = mc.k();
        rec.submit(mc);
        prop_assert!(rec.run(), "single-link mid-flight failure must be survivable");
        let (delivered, total) = rec.delivery_counts();
        prop_assert_eq!(delivered, total);
        prop_assert_eq!(total, k);
    }
}

#[test]
fn xfirst_tree_deadlock_recovers_every_destination() {
    // The xfirst-tree §6.4 configuration wedges; the watchdog aborts
    // and retries until every destination is delivered.
    use mcast_sim::deadlock::fig_6_4_multicasts;
    use mcast_sim::recovery::ObliviousRouter;
    use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
    let mesh = Mesh2D::new(4, 3);
    let router = build_router(
        &TopoSpec::Mesh2D { w: 4, h: 3 },
        &SchemeId::named("xfirst-tree"),
    )
    .expect("xfirst-tree registered");
    let classes = router.required_classes();
    let supervised = ObliviousRouter::new(router);
    let mut rec = RecoveryEngine::new(
        Network::new(&mesh, classes),
        SimConfig::default(),
        &supervised,
        RecoveryPolicy::default(),
    );
    for mc in fig_6_4_multicasts(&mesh) {
        rec.submit(mc);
    }
    assert!(rec.run(), "recovery must deliver every destination");
    let (delivered, total) = rec.delivery_counts();
    assert_eq!(delivered, total);
    assert!(rec.stats().aborts > 0, "the §6.4 configuration must wedge");
}
