//! The streamed (slot-recycling, DESIGN.md §16) engine's memory model,
//! driven directly through `Engine` under an in-flight backpressure
//! cap: message slots stay bounded by the cap, a recycled slot never
//! aliases a live message, and every injected multicast completes
//! exactly once.

use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
use mcast_sim::{Engine, Network, SimConfig};

/// Marks every newly completed external id, asserting none repeats.
fn complete(engine: &mut Engine, seen: &mut [bool]) {
    engine.drain_completed(|c| {
        assert!(!seen[c.id], "external id {} completed twice", c.id);
        seen[c.id] = true;
    });
}

#[test]
fn streamed_injection_bounds_slots_and_never_aliases_live_worms() {
    // 2000 multicasts through a 32-message window on an 8×8 mesh:
    // dual-path plans at most two worms per message, so live worms
    // stay within twice the cap, however many messages go through.
    let (total, cap) = (2_000, 32);
    let topo = TopoSpec::parse("mesh:8x8").unwrap();
    let built = topo.build();
    let router = build_router(&topo, &SchemeId::named("dual-path")).expect("dual-path registered");
    let mut engine = Engine::new(
        Network::new(built.as_dyn(), router.required_classes()),
        SimConfig::default(),
    );
    engine.set_stream_mode(true);
    let nodes = topo.num_nodes();
    let mut seen = vec![false; total];
    let mut x = 0x2545_f491u64;
    for i in 0..total {
        while engine.in_flight() >= cap {
            let t = engine
                .next_event_time()
                .expect("streamed run wedged at the cap");
            engine.run_until(t);
            complete(&mut engine, &mut seen);
        }
        engine.run_until(i as u64 * 2_000);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = (x % nodes as u64) as usize;
        let mut dests = Vec::new();
        let mut y = x;
        while dests.len() < 4 {
            y = y.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let d = (y % nodes as u64) as usize;
            if d != src && !dests.contains(&d) {
                dests.push(d);
            }
        }
        let mc = mcast_core::model::MulticastSet::new(src, dests);
        // `inject` hands back the *slot* handle, which recycles under
        // streaming — it must never reach the cap, however many
        // messages have been injected.
        let slot = engine.inject(&router.plan(&mc));
        assert!(slot < cap, "slot {slot} at or past the cap {cap}");
        if i % 97 == 0 {
            // A recycled slot must never alias a live message: every
            // live external id is still uncompleted.
            complete(&mut engine, &mut seen);
            for live in engine.live_message_ids() {
                assert!(
                    !seen[live],
                    "live id {live} already completed (slot aliasing)"
                );
            }
        }
    }
    assert!(engine.run_to_quiescence(), "streamed tail must drain");
    complete(&mut engine, &mut seen);
    assert!(
        seen.iter().all(|&s| s),
        "every injected multicast must complete"
    );
    assert!(
        engine.message_slots() <= cap,
        "slot arena ({}) exceeds the in-flight cap ({cap}) — \
         message state grew with the message count",
        engine.message_slots()
    );
    assert!(
        engine.peak_in_flight() <= cap,
        "backpressure ceiling breached"
    );
    assert!(
        engine.peak_live_worms() <= 2 * cap,
        "live worms ({}) exceed twice the in-flight cap",
        engine.peak_live_worms()
    );
}
