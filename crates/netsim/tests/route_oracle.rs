//! Route oracle: the platform's cached, scratch-reusing Dijkstra against an
//! allocate-per-call reference.
//!
//! The reference below is the search `Platform` ran before its per-node
//! arrays became reusable scratch and before it stopped expanding leaf
//! nodes (commit aa0858f): fresh `dist`/`prev` arrays sized to every node,
//! every reached node expanded, the same relaxations, the same
//! `(latency, hops, NodeId)` heap order. Restores re-derive every flow's
//! route, so "link for link identical" is what keeps a restored
//! simulation's sharing identical to the uninterrupted run.
//!
//! The generated platforms are built to stress tie-breaking and scratch
//! reuse: latencies come from a three-value set (so equal-latency ties and
//! equal-cost multipaths are common, parallel links included), hosts may
//! hang off several routers or transit traffic between them, leaves abound
//! (single-link hosts and routers, parallel links to one neighbour), and
//! some platforms fall apart into disconnected parts or leave a host
//! isolated. Queries are issued in random, repeated order, so a search that
//! read a stale entry from an earlier query would pick a different path or
//! miss a `None`.

use netsim::platform::{HostSpec, LinkSpec, Platform, PlatformBuilder, Route};
use p2p_common::{Bandwidth, DetRng, HostId, NodeId, SimDuration};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The allocate-per-call Dijkstra `Platform` used before its scratch was
/// reused: minimise latency, then hop count; ties pop by `NodeId`; every
/// reached node is expanded.
fn reference_route(p: &Platform, from: HostId, to: HostId) -> Option<Route> {
    let links = p.links();
    let n = p.nodes().len();
    let mut adj: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); n];
    for (i, link) in links.iter().enumerate() {
        adj[link.from.index()].push((i, link.to));
    }
    let src = p.node_of_host(from);
    let dst = p.node_of_host(to);
    if src == dst {
        return Some(Route {
            links: vec![],
            latency: SimDuration::ZERO,
            bottleneck: Bandwidth::from_gbps(f64::MAX / 1e9),
        });
    }
    let mut dist: Vec<(u64, u32)> = vec![(u64::MAX, u32::MAX); n];
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = (0, 0);
    heap.push(Reverse(((0u64, 0u32), src)));
    while let Some(Reverse((cost, node))) = heap.pop() {
        if cost > dist[node.index()] {
            continue;
        }
        if node == dst {
            break;
        }
        for &(link_idx, next) in &adj[node.index()] {
            let link = &links[link_idx];
            let cand = (cost.0.saturating_add(link.latency.as_nanos()), cost.1 + 1);
            if cand < dist[next.index()] {
                dist[next.index()] = cand;
                prev[next.index()] = Some(link_idx);
                heap.push(Reverse((cand, next)));
            }
        }
    }
    if dist[dst.index()].0 == u64::MAX {
        return None;
    }
    let mut links_rev = Vec::new();
    let mut cur = dst;
    while cur != src {
        let link_idx = prev[cur.index()]?;
        links_rev.push(link_idx);
        cur = links[link_idx].from;
    }
    links_rev.reverse();
    let latency = links_rev
        .iter()
        .fold(SimDuration::ZERO, |acc, &i| acc + links[i].latency);
    let bottleneck = links_rev
        .iter()
        .map(|&i| links[i].bandwidth)
        .fold(Bandwidth::from_gbps(f64::MAX / 1e9), Bandwidth::min);
    Some(Route {
        links: links_rev,
        latency,
        bottleneck,
    })
}

fn spec(rng: &mut DetRng) -> LinkSpec {
    let latency = [0, 1_000, 2_000][rng.gen_range(0..3usize)];
    let mbps = [10.0, 100.0, 1000.0][rng.gen_range(0..3usize)];
    LinkSpec::new(Bandwidth::from_mbps(mbps), SimDuration::from_nanos(latency))
}

/// A random platform of one to three parts. Each part is a random tree over
/// its hosts and routers plus extra random links (multipaths, parallel
/// links, multi-homed hosts); with some probability a host is left
/// unlinked. Parts never connect to each other.
fn random_platform(seed: u64) -> (Platform, Vec<HostId>) {
    let mut rng = DetRng::new(seed);
    let mut b = PlatformBuilder::new();
    let mut hosts = Vec::new();
    let parts = rng.gen_range(1..4usize);
    for part in 0..parts {
        let mut nodes: Vec<NodeId> = Vec::new();
        for i in 0..rng.gen_range(2..9usize) {
            let ip = format!("10.{part}.0.{}", i + 1).parse().unwrap();
            let h = b.add_host(format!("p{part}h{i}"), ip, HostSpec::default());
            hosts.push(h);
            nodes.push(b.node_of_host(h));
        }
        for i in 0..rng.gen_range(0..7usize) {
            nodes.push(b.add_router(format!("p{part}r{i}")));
        }
        rng.shuffle(&mut nodes);
        let isolated = if rng.gen_bool(0.2) {
            nodes
                .iter()
                .position(|n| hosts.iter().any(|&h| b.node_of_host(h) == *n))
        } else {
            None
        };
        let linked: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != isolated)
            .map(|(_, &n)| n)
            .collect();
        for i in 1..linked.len() {
            let j = rng.gen_range(0..i);
            let s = spec(&mut rng);
            b.add_link(format!("p{part}t{i}"), linked[j], linked[i], s);
        }
        if linked.len() >= 2 {
            for e in 0..rng.gen_range(0..2 * linked.len()) {
                let x = linked[rng.gen_range(0..linked.len())];
                let y = linked[rng.gen_range(0..linked.len())];
                if x != y {
                    let s = spec(&mut rng);
                    b.add_link(format!("p{part}x{e}"), x, y, s);
                }
            }
        }
    }
    (b.build(), hosts)
}

/// A random query sequence over `hosts`: pairs drawn from a small pool, so
/// most pairs repeat, self-pairs included.
fn random_queries(seed: u64, hosts: &[HostId]) -> Vec<(HostId, HostId)> {
    let mut rng = DetRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let pool: Vec<(HostId, HostId)> = (0..rng.gen_range(4..24usize))
        .map(|_| {
            (
                hosts[rng.gen_range(0..hosts.len())],
                hosts[rng.gen_range(0..hosts.len())],
            )
        })
        .collect();
    (0..rng.gen_range(10..80usize))
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

proptest! {
    /// `route`, `try_route` and `route_uncached` agree with the reference
    /// link for link, and `None` appears exactly where the reference has it.
    #[test]
    fn cached_routes_match_the_reference_dijkstra(seed in any::<u64>()) {
        let (mut p, hosts) = random_platform(seed);
        // A second copy with an empty cache and untouched scratch, queried
        // in the opposite order: a different history for the scratch.
        let mut q = Platform::from_value(&p.to_value()).unwrap();
        let queries = random_queries(seed, &hosts);
        for &(a, b) in &queries {
            let expected = reference_route(&p, a, b);
            prop_assert_eq!(p.route_uncached(a, b), expected.clone());
            let tried = p.try_route(a, b);
            prop_assert_eq!(tried.as_deref(), expected.as_ref());
            if let Some(tried) = tried {
                let routed = p.route(a, b);
                prop_assert!(Arc::ptr_eq(&tried, &routed), "one Arc per cached pair");
            }
        }
        for &(a, b) in queries.iter().rev() {
            let expected = reference_route(&q, a, b);
            prop_assert_eq!(q.try_route(a, b).as_deref(), expected.as_ref());
        }
    }
}

#[test]
fn try_route_rejects_unknown_hosts() {
    let (mut p, hosts) = random_platform(7);
    let outside = HostId::new(hosts.len() as u32);
    assert!(p.try_route(hosts[0], outside).is_none());
    assert!(p.try_route(outside, hosts[0]).is_none());
    assert!(p.try_route(hosts[0], hosts[0]).is_some());
}
