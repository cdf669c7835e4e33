//! Platform description: hosts, routers, links and routing.
//!
//! This mirrors the role of a SimGrid *platform file* (paper §III-D.2: "the
//! trace files obtained earlier are given at input to Simgrid, but not before
//! configuring the distributed network to be simulated"). A platform is a
//! directed graph whose nodes are compute hosts, routers, switches or DSLAMs,
//! and whose edges are directed link halves (every physical full-duplex link
//! contributes one edge per direction, each with its own capacity).
//!
//! Routes between hosts are computed on demand with Dijkstra's algorithm
//! (minimising latency, then hop count) and cached. The search keeps its
//! per-node arrays between queries, stamped with a query epoch, so a route
//! miss costs the nodes it visits rather than the size of the platform, and
//! it never expands a leaf (a node with a single neighbour, such as a host
//! on one access link) other than the destination: no shortest path
//! transits one, so skipping them leaves every route unchanged.

use p2p_common::{Bandwidth, DataSize, HostId, IdMap, IpAddr, NodeId, SimDuration};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// What kind of equipment a platform node models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host that can run processes (has a compute speed).
    Host,
    /// A router, switch or DSLAM: forwards traffic, runs nothing.
    Router,
}

/// One node of the platform graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Graph-wide identifier.
    pub id: NodeId,
    /// Equipment kind.
    pub kind: NodeKind,
    /// Human-readable name (unique within the platform).
    pub name: String,
    /// IP address (hosts always have one; routers may).
    pub ip: Option<IpAddr>,
    /// Compute speed in flop/s (zero for routers).
    pub speed_flops: f64,
}

/// Compute characteristics of a host, used by the topology builders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Effective flop rate of the host.
    pub speed_flops: f64,
}

impl HostSpec {
    /// The Bordeplage node model: Intel Xeon EM64T 3 GHz. The effective flop
    /// rate is calibrated for the memory-bound obstacle kernel at `-O3`
    /// (see `dperf::machine::MachineModel::xeon_em64t_3ghz`).
    pub fn xeon_em64t_3ghz() -> Self {
        HostSpec { speed_flops: 1.0e9 }
    }
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec::xeon_em64t_3ghz()
    }
}

/// Characteristics of one physical link (applied to both directions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Capacity of each direction.
    pub bandwidth: Bandwidth,
    /// One-way propagation + forwarding latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Convenience constructor.
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        LinkSpec { bandwidth, latency }
    }
}

/// One *directed* link half. Index into [`Platform::links`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Name of the physical link this half belongs to.
    pub name: String,
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Capacity of this direction.
    pub bandwidth: Bandwidth,
    /// One-way latency of this direction.
    pub latency: SimDuration,
}

/// A routed path between two hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Directed link indices, in traversal order.
    pub links: Vec<usize>,
    /// Sum of the per-link latencies.
    pub latency: SimDuration,
    /// Minimum bandwidth along the path (the bottleneck).
    pub bottleneck: Bandwidth,
}

impl Route {
    /// Transfer time of `size` under the analytic bottleneck model:
    /// `Σ latency + size / bottleneck`, saturating at [`SimDuration::MAX`]
    /// (which `transfer_time` already returns for a zero bandwidth).
    pub fn analytic_transfer_time(&self, size: DataSize) -> SimDuration {
        self.latency
            .saturating_add(self.bottleneck.transfer_time(size))
    }
}

/// A complete platform: graph + host table + route cache.
#[derive(Debug, Clone)]
pub struct Platform {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency: for each node, outgoing (link index, head node).
    adj: Vec<Vec<(usize, NodeId)>>,
    /// Nodes whose links all join one neighbour (a host on one access link,
    /// say). A path through such a node returns to the node it came from,
    /// so no shortest path transits it and the search never expands it.
    leaf: Vec<bool>,
    /// Host table: `HostId(i)` is `hosts[i]`.
    hosts: Vec<NodeId>,
    /// Keyed by validated host ids, so the fixed [`IdMap`] hash is safe.
    route_cache: IdMap<(HostId, HostId), Arc<Route>>,
    /// Dijkstra's per-node arrays, reused across route misses.
    scratch: RouteScratch,
}

/// A Dijkstra cost: total latency in ns, then hop count.
type Cost = (u64, u32);

/// Reusable Dijkstra state. An entry of `dist`/`prev` belongs to the
/// current query only if its `stamp` equals `epoch`; any other entry reads
/// as unreached. Starting a query therefore bumps `epoch` instead of
/// refilling one entry per platform node.
#[derive(Debug, Clone, Default)]
struct RouteScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<Cost>,
    /// The link used to reach each node.
    prev: Vec<usize>,
    heap: BinaryHeap<Reverse<(Cost, NodeId)>>,
}

impl RouteScratch {
    /// Ready the scratch for a new query over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, (u64::MAX, u32::MAX));
            self.prev.resize(n, usize::MAX);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 queries ago would read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    fn dist(&self, node: NodeId) -> Cost {
        if self.stamp[node.index()] == self.epoch {
            self.dist[node.index()]
        } else {
            (u64::MAX, u32::MAX)
        }
    }

    fn reach(&mut self, node: NodeId, cost: Cost, via: usize) {
        self.stamp[node.index()] = self.epoch;
        self.dist[node.index()] = cost;
        self.prev[node.index()] = via;
    }
}

impl Platform {
    /// Assemble a platform from its graph, deriving the adjacency index and
    /// the leaf marks; the route cache starts empty.
    fn index(nodes: Vec<Node>, links: Vec<Link>, hosts: Vec<NodeId>) -> Platform {
        let mut adj = vec![Vec::new(); nodes.len()];
        // A node stays a leaf while all its links join the first neighbour
        // seen, in either direction.
        let mut first: Vec<Option<NodeId>> = vec![None; nodes.len()];
        let mut leaf = vec![true; nodes.len()];
        for (i, link) in links.iter().enumerate() {
            adj[link.from.index()].push((i, link.to));
            for (node, other) in [(link.from, link.to), (link.to, link.from)] {
                match first[node.index()] {
                    None => first[node.index()] = Some(other),
                    Some(n) if n != other => leaf[node.index()] = false,
                    Some(_) => {}
                }
            }
        }
        Platform {
            nodes,
            links,
            adj,
            leaf,
            hosts,
            route_cache: IdMap::default(),
            scratch: RouteScratch::default(),
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed link halves.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of compute hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// All host ids, in creation order.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId::new)
    }

    /// The graph node backing a host.
    pub fn node_of_host(&self, h: HostId) -> NodeId {
        self.hosts[h.index()]
    }

    /// The host record.
    pub fn host(&self, h: HostId) -> &Node {
        &self.nodes[self.node_of_host(h).index()]
    }

    /// Compute (or fetch from cache) the route between two hosts. Panics if
    /// the hosts are disconnected — a platform is expected to be connected.
    pub fn route(&mut self, from: HostId, to: HostId) -> Arc<Route> {
        self.try_route(from, to).unwrap_or_else(|| {
            panic!(
                "no route between {} and {}",
                self.host(from).name,
                self.host(to).name
            )
        })
    }

    /// Compute (or fetch from cache) the route between two hosts; `None` if
    /// either id is not a host of this platform or the hosts are
    /// disconnected. Found routes are cached, so every lookup of the same
    /// pair shares one [`Arc`].
    pub fn try_route(&mut self, from: HostId, to: HostId) -> Option<Arc<Route>> {
        if from.index() >= self.hosts.len() || to.index() >= self.hosts.len() {
            return None;
        }
        if let Some(r) = self.route_cache.get(&(from, to)) {
            return Some(Arc::clone(r));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let route = self.dijkstra(&mut scratch, from, to);
        self.scratch = scratch;
        let route = Arc::new(route?);
        self.route_cache.insert((from, to), Arc::clone(&route));
        Some(route)
    }

    /// Route lookup without caching (for read-only contexts). Each call
    /// sizes fresh search arrays to the platform; [`Platform::try_route`]
    /// reuses them.
    pub fn route_uncached(&self, from: HostId, to: HostId) -> Option<Route> {
        self.dijkstra(&mut RouteScratch::default(), from, to)
    }

    fn dijkstra(&self, scratch: &mut RouteScratch, from: HostId, to: HostId) -> Option<Route> {
        let src = self.node_of_host(from);
        let dst = self.node_of_host(to);
        if src == dst {
            return Some(Route {
                links: vec![],
                latency: SimDuration::ZERO,
                bottleneck: Bandwidth::from_gbps(f64::MAX / 1e9),
            });
        }
        scratch.begin(self.nodes.len());
        scratch.reach(src, (0, 0), usize::MAX);
        scratch.heap.push(Reverse(((0u64, 0u32), src)));
        while let Some(Reverse((cost, node))) = scratch.heap.pop() {
            if cost > scratch.dist(node) {
                continue;
            }
            if node == dst {
                break;
            }
            for &(link_idx, next) in &self.adj[node.index()] {
                let link = &self.links[link_idx];
                let cand = (cost.0.saturating_add(link.latency.as_nanos()), cost.1 + 1);
                if cand < scratch.dist(next) {
                    scratch.reach(next, cand, link_idx);
                    if next == dst || !self.leaf[next.index()] {
                        scratch.heap.push(Reverse((cand, next)));
                    }
                }
            }
        }
        if scratch.dist(dst).0 == u64::MAX {
            return None;
        }
        // Reconstruct the link sequence.
        let mut links_rev = Vec::new();
        let mut cur = dst;
        while cur != src {
            let link_idx = scratch.prev[cur.index()];
            links_rev.push(link_idx);
            cur = self.links[link_idx].from;
        }
        links_rev.reverse();
        let latency = links_rev
            .iter()
            .fold(SimDuration::ZERO, |acc, &i| acc + self.links[i].latency);
        let bottleneck = links_rev
            .iter()
            .map(|&i| self.links[i].bandwidth)
            .fold(Bandwidth::from_gbps(f64::MAX / 1e9), Bandwidth::min);
        Some(Route {
            links: links_rev,
            latency,
            bottleneck,
        })
    }
}

/// Serialization captures only the graph (nodes, links, host table). The
/// adjacency index, the leaf marks, the route cache and the search scratch
/// are derived data: they are rebuilt on restore, and `route_cache`
/// restarts empty — routes are recomputed on demand by the same
/// deterministic Dijkstra (latency, then hop count), so a restored
/// simulation sees identical paths.
impl Serialize for Platform {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nodes".to_owned(), self.nodes.to_value()),
            ("links".to_owned(), self.links.to_value()),
            ("hosts".to_owned(), self.hosts.to_value()),
        ])
    }
}

impl Deserialize for Platform {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Platform", v))?;
        let nodes: Vec<Node> = serde::field(fields, "nodes", "Platform")?;
        let links: Vec<Link> = serde::field(fields, "links", "Platform")?;
        let hosts: Vec<NodeId> = serde::field(fields, "hosts", "Platform")?;
        for link in &links {
            if link.from.index() >= nodes.len() || link.to.index() >= nodes.len() {
                return Err(DeError::msg(format!(
                    "Platform: link `{}` references a node outside the graph",
                    link.name
                )));
            }
        }
        if hosts.iter().any(|h| h.index() >= nodes.len()) {
            return Err(DeError::msg(
                "Platform: host table references a node outside the graph",
            ));
        }
        Ok(Platform::index(nodes, links, hosts))
    }
}

/// Incrementally builds a [`Platform`].
#[derive(Debug, Default)]
pub struct PlatformBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    hosts: Vec<NodeId>,
}

impl PlatformBuilder {
    /// Start an empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a compute host and return its [`HostId`].
    pub fn add_host(&mut self, name: impl Into<String>, ip: IpAddr, spec: HostSpec) -> HostId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind: NodeKind::Host,
            name: name.into(),
            ip: Some(ip),
            speed_flops: spec.speed_flops,
        });
        self.hosts.push(id);
        HostId::new((self.hosts.len() - 1) as u32)
    }

    /// Add a router / switch / DSLAM and return its [`NodeId`].
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind: NodeKind::Router,
            name: name.into(),
            ip: None,
            speed_flops: 0.0,
        });
        id
    }

    /// The graph node behind a host id (needed to link hosts to routers).
    pub fn node_of_host(&self, h: HostId) -> NodeId {
        self.hosts[h.index()]
    }

    /// Connect two nodes with a full-duplex link; both directions get the
    /// same spec. Returns the indices of the two directed halves.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
        spec: LinkSpec,
    ) -> (usize, usize) {
        assert!(a != b, "self-links are not allowed");
        let name = name.into();
        let fwd = self.links.len();
        self.links.push(Link {
            name: format!("{name}:fwd"),
            from: a,
            to: b,
            bandwidth: spec.bandwidth,
            latency: spec.latency,
        });
        let rev = self.links.len();
        self.links.push(Link {
            name: format!("{name}:rev"),
            from: b,
            to: a,
            bandwidth: spec.bandwidth,
            latency: spec.latency,
        });
        (fwd, rev)
    }

    /// Convenience: connect a host to a router.
    pub fn add_host_link(
        &mut self,
        name: impl Into<String>,
        host: HostId,
        router: NodeId,
        spec: LinkSpec,
    ) -> (usize, usize) {
        let hnode = self.node_of_host(host);
        self.add_link(name, hnode, router, spec)
    }

    /// Finish building.
    pub fn build(self) -> Platform {
        Platform::index(self.nodes, self.links, self.hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_platform() -> Platform {
        // h0 -- sw -- h1, plus a slower detour h0 -- r -- h1.
        let mut b = PlatformBuilder::new();
        let h0 = b.add_host("h0", "10.0.0.1".parse().unwrap(), HostSpec::default());
        let h1 = b.add_host("h1", "10.0.0.2".parse().unwrap(), HostSpec::default());
        let sw = b.add_router("sw");
        let detour = b.add_router("detour");
        let fast = LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_micros(100));
        let slow = LinkSpec::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(10));
        b.add_host_link("l0", h0, sw, fast);
        b.add_host_link("l1", h1, sw, fast);
        b.add_host_link("d0", h0, detour, slow);
        b.add_host_link("d1", h1, detour, slow);
        b.build()
    }

    #[test]
    fn builder_counts_nodes_hosts_links() {
        let p = small_platform();
        assert_eq!(p.nodes().len(), 4);
        assert_eq!(p.host_count(), 2);
        assert_eq!(p.links().len(), 8, "4 physical links = 8 directed halves");
    }

    #[test]
    fn route_picks_the_low_latency_path() {
        let mut p = small_platform();
        let r = p.route(HostId::new(0), HostId::new(1));
        assert_eq!(r.links.len(), 2, "via the switch, not the detour");
        assert_eq!(r.latency, SimDuration::from_micros(200));
        assert_eq!(r.bottleneck, Bandwidth::from_gbps(1.0));
    }

    #[test]
    fn route_is_cached_and_symmetric_in_shape() {
        let mut p = small_platform();
        let a = p.route(HostId::new(0), HostId::new(1));
        let b = p.route(HostId::new(0), HostId::new(1));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let back = p.route(HostId::new(1), HostId::new(0));
        assert_eq!(back.links.len(), a.links.len());
        assert_eq!(back.latency, a.latency);
    }

    #[test]
    fn self_route_is_empty_and_instant() {
        let mut p = small_platform();
        let r = p.route(HostId::new(0), HostId::new(0));
        assert!(r.links.is_empty());
        assert_eq!(r.latency, SimDuration::ZERO);
    }

    #[test]
    fn analytic_transfer_time_adds_latency_and_serialisation() {
        let mut p = small_platform();
        let r = p.route(HostId::new(0), HostId::new(1));
        // 125 KB over 1 Gbps = 1 ms, plus 200 us of latency.
        let t = r.analytic_transfer_time(DataSize::from_bytes(125_000));
        assert_eq!(t, SimDuration::from_micros(1200));
    }

    #[test]
    fn scratch_epochs_survive_wraparound() {
        let mut p = small_platform();
        let fresh = p.route_uncached(HostId::new(0), HostId::new(1)).unwrap();
        // Leave stale entries behind, then wrap the epoch past zero: the
        // stamps must be cleared, not read as current.
        let _ = p.try_route(HostId::new(1), HostId::new(0));
        p.scratch.epoch = u32::MAX;
        let r = p.try_route(HostId::new(0), HostId::new(1)).unwrap();
        assert_eq!(p.scratch.epoch, 1);
        assert_eq!(*r, fresh);
    }

    #[test]
    fn a_node_with_one_way_links_to_two_neighbours_is_transited() {
        let mut b = PlatformBuilder::new();
        let h0 = b.add_host("h0", "10.0.0.1".parse().unwrap(), HostSpec::default());
        let h1 = b.add_host("h1", "10.0.0.2".parse().unwrap(), HostSpec::default());
        let sw = b.add_router("sw");
        let relay = b.add_router("relay");
        let slow = LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(10));
        let fast = LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_micros(1));
        b.add_host_link("s0", h0, sw, slow);
        b.add_host_link("s1", h1, sw, slow);
        let (n0, n1) = (b.node_of_host(h0), b.node_of_host(h1));
        b.add_link("f0", n0, relay, fast);
        b.add_link("f1", relay, n1, fast);
        // Keep only h0 -> relay -> h1 of the fast path: `relay` then has a
        // single out-neighbour, but two neighbours, and carries the route.
        let v = b.build().to_value();
        let one_way = match &v {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, val)| match val {
                        Value::Array(items) if k == "links" => (
                            k.clone(),
                            Value::Array(
                                items
                                    .iter()
                                    .filter(|l| {
                                        !matches!(
                                            l.get("name").and_then(Value::as_str),
                                            Some("f0:rev" | "f1:rev")
                                        )
                                    })
                                    .cloned()
                                    .collect(),
                            ),
                        ),
                        _ => (k.clone(), val.clone()),
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        let mut p = Platform::from_value(&one_way).unwrap();
        assert_eq!(p.links().len(), 6);
        let r = p.try_route(h0, h1).unwrap();
        assert_eq!(r.latency, SimDuration::from_micros(2), "via the relay");
        assert_eq!(p.route_uncached(h0, h1).as_ref(), Some(&*r));
    }

    #[test]
    fn disconnected_hosts_have_no_route() {
        let mut b = PlatformBuilder::new();
        let _h0 = b.add_host("a", "10.0.0.1".parse().unwrap(), HostSpec::default());
        let _h1 = b.add_host("b", "10.0.0.2".parse().unwrap(), HostSpec::default());
        let mut p = b.build();
        assert!(p.route_uncached(HostId::new(0), HostId::new(1)).is_none());
        assert!(p.try_route(HostId::new(0), HostId::new(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_are_rejected() {
        let mut b = PlatformBuilder::new();
        let r = b.add_router("r");
        b.add_link(
            "loop",
            r,
            r,
            LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::ZERO),
        );
    }

    #[test]
    fn serde_round_trip_rebuilds_derived_state() {
        let mut p = small_platform();
        let _ = p.route(HostId::new(0), HostId::new(1)); // warm the cache
        let mut q = Platform::from_value(&p.to_value()).unwrap();
        assert_eq!(q.nodes().len(), p.nodes().len());
        assert_eq!(q.links().len(), p.links().len());
        let a = p.route(HostId::new(0), HostId::new(1));
        let b = q.route(HostId::new(0), HostId::new(1));
        assert_eq!(a.links, b.links, "restored Dijkstra picks the same path");
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.bottleneck, b.bottleneck);
    }

    #[test]
    fn serde_rejects_links_outside_the_graph() {
        let p = small_platform();
        let v = p.to_value();
        let tampered = match &v {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, val)| {
                        if k == "nodes" {
                            // Drop the last node: links now dangle.
                            match val {
                                Value::Array(items) => {
                                    (k.clone(), Value::Array(items[..items.len() - 1].to_vec()))
                                }
                                _ => unreachable!(),
                            }
                        } else {
                            (k.clone(), val.clone())
                        }
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        assert!(Platform::from_value(&tampered).is_err());
    }

    #[test]
    fn hosts_expose_their_spec() {
        let p = small_platform();
        let h = p.host(HostId::new(0));
        assert_eq!(h.kind, NodeKind::Host);
        assert_eq!(h.speed_flops, HostSpec::xeon_em64t_3ghz().speed_flops);
        assert_eq!(h.ip.unwrap().to_string(), "10.0.0.1");
    }
}
