//! Property suite for the topology subsystem (DESIGN.md §12).
//!
//! Three contracts, each driven with randomized inputs:
//!
//! * ECMP routing is a pure function of `(topology, seed)`: rebuilt
//!   routers replay the same paths and per-label choices, and every
//!   choice stays within the equal-cost shortest-path set;
//! * a fabric wired with a **flat** topology is bitwise
//!   indistinguishable from a plain fabric under a random flow script
//!   (the flat-equivalence contract);
//! * the hand-rolled cluster JSON round-trips: `parse(serialize(t))`
//!   reproduces every node kind and link bit-for-bit, and serializing
//!   again is byte-stable.

use netsim::fabric::{Fabric, FlowId, FlowSpec};
use netsim::rng::SimRng;
use netsim::shaper::StaticShaper;
use proplite::prelude::*;
use topo::{from_cluster_json, to_cluster_json, EcmpRouter, Topology, Wiring};

/// A random multi-tier topology from the zoo, varied in family and
/// size by `seed`.
fn random_tiered_topology(seed: u64) -> Topology {
    let mut rng = SimRng::new(seed);
    match rng.index(3) {
        0 => topo::zoo::fattree_with(4, 1 + rng.index(3)).unwrap(),
        1 => topo::zoo::oversub(4 + rng.index(13), [2.0, 4.0][rng.index(2)]).unwrap(),
        _ => topo::zoo::star(2 + rng.index(8)).unwrap(),
    }
}

prop_cases! {
    #![config(Config::with_cases(48))]

    /// ECMP: a rebuilt router replays identical paths and identical
    /// per-label choices, and every routed choice is in the path set.
    #[test]
    fn ecmp_routing_replays_under_the_same_seed(
        seed in 0u64..1_000_000,
        ecmp_seed in 0u64..10_000,
    ) {
        let t = random_tiered_topology(seed);
        let a = EcmpRouter::new(&t, ecmp_seed).unwrap();
        let b = EcmpRouter::new(&t, ecmp_seed).unwrap();
        let hosts = t.hosts();
        let mut rng = SimRng::new(seed ^ 0xec3b);
        for _ in 0..32 {
            let src = hosts[rng.index(hosts.len())];
            let dst = hosts[rng.index(hosts.len())];
            if src == dst {
                continue;
            }
            prop_assert_eq!(a.paths(src, dst), b.paths(src, dst), "path sets diverged");
            let label = rng.next_u64();
            let ra = a.route(src, dst, label);
            prop_assert_eq!(ra, b.route(src, dst, label), "route choice diverged");
            prop_assert!(
                a.paths(src, dst).contains(&ra),
                "choice left the equal-cost set"
            );
        }
    }

    /// Flat-equivalence: a fabric wired with the flat topology runs a
    /// random flow script bitwise identically to a plain fabric.
    #[test]
    fn flat_wiring_is_bitwise_invisible(
        seed in 0u64..1_000_000,
        n_nodes in 2usize..8,
        dt_ms in 50u64..500,
    ) {
        let build = || {
            let mut f = Fabric::new();
            for v in 0..n_nodes {
                f.add_node(StaticShaper::new(5e9 + v as f64 * 1e9), 10e9);
            }
            f
        };
        let mut plain = build();
        let mut wired = build();
        let wiring = Wiring::identity(topo::zoo::flat(n_nodes), n_nodes, seed).unwrap();
        wiring.install(&mut wired);

        let dt = dt_ms as f64 / 1000.0;
        let mut rng = SimRng::new(seed ^ 0xf1a7);
        let mut flows: Vec<FlowId> = Vec::new();
        for _ in 0..60 {
            if rng.chance(0.5) {
                let src = rng.index(n_nodes);
                let dst = (src + 1 + rng.index(n_nodes - 1)) % n_nodes;
                let spec = FlowSpec::new(src, dst, rng.uniform_in(5e8, 2e10));
                let a = plain.start_flow(spec);
                let b = wiring.start_flow(&mut wired, spec);
                prop_assert_eq!(a, b, "flow ids diverged");
                flows.push(a);
            }
            prop_assert_eq!(plain.step(dt), wired.step(dt), "completions diverged");
            prop_assert_eq!(
                plain.now().to_bits(),
                wired.now().to_bits(),
                "clock diverged"
            );
            for v in 0..n_nodes {
                prop_assert_eq!(
                    plain.node_total_tx_bits(v).to_bits(),
                    wired.node_total_tx_bits(v).to_bits(),
                    "node tx diverged"
                );
            }
            for &id in &flows {
                prop_assert_eq!(
                    plain.flow_last_rate(id).map(f64::to_bits),
                    wired.flow_last_rate(id).map(f64::to_bits),
                    "flow rate diverged"
                );
            }
        }
        let perf = wired.perf();
        prop_assert_eq!(perf.link_recomputes, 0, "flat fabric ran the link allocator");
        prop_assert_eq!(perf.link_cache_hits, 0, "flat fabric hit the link cache");
    }

    /// JSON round-trip: parse(serialize(t)) reproduces the structure
    /// bit-for-bit and re-serializes byte-identically.
    #[test]
    fn cluster_json_round_trips(seed in 0u64..1_000_000) {
        let t = random_tiered_topology(seed);
        let json = to_cluster_json(&t).unwrap();
        let back = from_cluster_json(&json).unwrap();
        prop_assert_eq!(t.node_count(), back.node_count(), "node count changed");
        for v in 0..t.node_count() {
            prop_assert_eq!(t.kind(v), back.kind(v), "node {} kind changed", v);
        }
        // Serialization groups links by schema section (host2tor,
        // tor2fab, fab2spine), so the round-trip canonicalizes link
        // *order*; the link multiset must survive bit-for-bit.
        let canon = |t: &Topology| {
            let mut ls: Vec<(usize, usize, u64, u64)> = t
                .links()
                .iter()
                .map(|l| {
                    let (a, b) = (l.a.min(l.b), l.a.max(l.b));
                    (a, b, l.bandwidth_bps.to_bits(), l.delay_s.to_bits())
                })
                .collect();
            ls.sort_unstable();
            ls
        };
        prop_assert_eq!(canon(&t), canon(&back), "link multiset changed");
        prop_assert_eq!(
            to_cluster_json(&back).unwrap(),
            json,
            "second serialization not byte-stable"
        );
    }
}
