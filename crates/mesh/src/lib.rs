#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-mesh
//!
//! A 2-D mesh on-chip network (OCN) model for the Mosaic manycore
//! simulator, patterned after the HammerBlade "mesh-with-ruching"
//! network (Jung et al., NOCS '20; Ou et al., NOCS '20).
//!
//! The model is *analytic-contention* rather than flit-accurate: every
//! unidirectional link keeps a "next free cycle" reservation, a packet
//! traversing a route reserves each link in order, and the packet's
//! arrival time is the cycle at which its last link transfer completes.
//! Because the discrete-event engine in `mosaic-sim` issues requests in
//! global cycle order, reservations are approximately first-come
//! first-served, which is what a round-robin-arbitrated mesh router
//! provides. This captures the first-order congestion behaviour the
//! paper relies on (Y-bandwidth scarcity toward a hot node, Figure 5)
//! at a tiny fraction of the cost of flit-level simulation.
//!
//! ## Example
//!
//! ```
//! use mosaic_mesh::{Mesh, MeshConfig, NodeId};
//!
//! let mut mesh = Mesh::new(MeshConfig::hammerblade_128());
//! let src = mesh.config().core_node(0);
//! let dst = mesh.config().core_node(127);
//! // A one-flit request injected at cycle 100:
//! let arrival = mesh.traverse(src, dst, 100, 1);
//! assert!(arrival > 100);
//! ```

pub mod routing;
pub mod stats;
pub mod topology;

pub use routing::Route;
pub use stats::{LinkStats, TrafficMatrix};
pub use topology::{Coord, MeshConfig, NodeId, NodeKind};

/// One cycle of simulated time. The whole simulator counts in cycles of
/// the (notionally 1.5 GHz) core clock.
pub type Cycle = u64;

/// A unidirectional link identified by its index in the mesh's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Raw index of this link in [`Mesh::link_count`] order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The mesh network: topology plus per-link reservation state.
///
/// All timing state is owned here, behind `&mut self` — the
/// discrete-event engine serializes access.
#[derive(Debug)]
pub struct Mesh {
    config: MeshConfig,
    /// Next cycle at which each unidirectional link can accept a flit.
    next_free: Vec<Cycle>,
    /// Cumulative flits carried per link, for utilization statistics.
    flits_carried: Vec<u64>,
    /// Router pipeline latency charged per hop, in cycles.
    hop_latency: Cycle,
    /// Injected stall windows, `(link index, start, end)` half-open:
    /// a flit arriving at a stalled link waits until the window ends.
    /// Empty in normal operation — fault injection only.
    stalls: Vec<(u32, Cycle, Cycle)>,
}

impl Mesh {
    /// Create a mesh with all links idle at cycle 0.
    pub fn new(config: MeshConfig) -> Self {
        let links = config.link_table().len();
        Mesh {
            config,
            next_free: vec![0; links],
            flits_carried: vec![0; links],
            hop_latency: 1,
            stalls: Vec::new(),
        }
    }

    /// Inject a fault window: link `link` accepts no flits during
    /// `[start, end)` — a flit arriving inside the window waits for
    /// `end`. Used by the chaos subsystem; windows persist across
    /// [`Mesh::reset`] because they model scheduled faults, not
    /// accumulated traffic.
    pub fn inject_link_stall(&mut self, link: usize, start: Cycle, end: Cycle) {
        debug_assert!(link < self.next_free.len(), "stall on unknown link");
        self.stalls.push((link as u32, start, end));
    }

    /// Earliest cycle at or after `t` at which link `idx` is not
    /// inside an injected stall window.
    #[inline]
    fn past_stalls(&self, idx: usize, mut t: Cycle) -> Cycle {
        // Windows may abut or overlap, so keep scanning until none
        // contains `t`. The list is tiny (a handful of scheduled
        // faults) and empty in normal operation.
        loop {
            let mut moved = false;
            for &(link, start, end) in &self.stalls {
                if link as usize == idx && start <= t && t < end {
                    t = end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// The topology this mesh was built from.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Router pipeline latency charged per hop, in cycles. This is the
    /// smallest cross-component latency in the machine, which makes it
    /// `mosaic-sim`'s conservative lookahead.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// Number of unidirectional links in the network.
    pub fn link_count(&self) -> usize {
        self.next_free.len()
    }

    /// Route a packet of `flits` flits from `src` to `dst`, injecting at
    /// `cycle`. Returns the cycle at which the packet's tail arrives at
    /// `dst`. Reserves bandwidth on every link of the route.
    ///
    /// A zero-hop route (src == dst) costs nothing; endpoint service time
    /// is charged by the memory endpoint models, not the network.
    pub fn traverse(&mut self, src: NodeId, dst: NodeId, cycle: Cycle, flits: u32) -> Cycle {
        debug_assert!(flits >= 1, "packets carry at least one flit");
        let stalled = !self.stalls.is_empty();
        self.advance(src, dst, cycle, flits, stalled)
    }

    /// Route a request packet `src → dst` and its response `dst → src`
    /// in one call. `service` maps the request's tail-arrival cycle at
    /// `dst` to the cycle the endpoint injects the response. Returns
    /// the response's tail-arrival cycle back at `src`.
    ///
    /// Cycle-for-cycle equivalent to two [`Mesh::traverse`] calls with
    /// the endpoint model in between, but both directions' per-link
    /// flit advancement runs as one batch with the stall-window check
    /// (empty outside fault injection) hoisted out of the hot loop —
    /// one of the cheap wins that feeds the engine's per-window event
    /// batching.
    pub fn traverse_roundtrip(
        &mut self,
        src: NodeId,
        dst: NodeId,
        cycle: Cycle,
        flits: u32,
        service: impl FnOnce(Cycle) -> Cycle,
    ) -> Cycle {
        debug_assert!(flits >= 1, "packets carry at least one flit");
        let stalled = !self.stalls.is_empty();
        let there = self.advance(src, dst, cycle, flits, stalled);
        let back = service(there);
        self.advance(dst, src, back, flits, stalled)
    }

    /// Reserve every link of one route and return the packet's
    /// tail-arrival cycle. `stalled` hoists the fault-window check out
    /// of the per-link loop (the caller reads it once per packet or
    /// per roundtrip).
    #[inline]
    fn advance(
        &mut self,
        src: NodeId,
        dst: NodeId,
        cycle: Cycle,
        flits: u32,
        stalled: bool,
    ) -> Cycle {
        let route = self.config.route(src, dst);
        let mut head = cycle;
        for link in route.links() {
            let idx = link.index();
            // The head flit waits for the link to free up, then takes
            // `hop_latency` to cross; the remaining flits pipeline behind
            // it, holding the link for `flits` cycles total.
            let mut start = head.max(self.next_free[idx]);
            if stalled {
                start = self.past_stalls(idx, start);
            }
            head = start + self.hop_latency;
            self.next_free[idx] = start + flits as Cycle;
            self.flits_carried[idx] += flits as u64;
        }
        // Tail arrives `flits - 1` cycles after the head on the last hop.
        head + (flits as Cycle - 1)
    }

    /// Latency a packet *would* see, without reserving bandwidth.
    /// Useful for probes and for tests.
    pub fn probe(&self, src: NodeId, dst: NodeId, cycle: Cycle, flits: u32) -> Cycle {
        let route = self.config.route(src, dst);
        let mut head = cycle;
        for link in route.links() {
            let idx = link.index();
            let mut start = head.max(self.next_free[idx]);
            if !self.stalls.is_empty() {
                start = self.past_stalls(idx, start);
            }
            head = start + self.hop_latency;
        }
        head + (flits as Cycle - 1)
    }

    /// Number of hops between two nodes under the configured routing.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.config.route(src, dst).links().len()
    }

    /// Snapshot of cumulative per-link statistics.
    pub fn link_stats(&self) -> LinkStats {
        LinkStats::new(self.flits_carried.clone())
    }

    /// Forget all reservations and counters (e.g. between benchmark
    /// phases) while keeping the topology.
    pub fn reset(&mut self) {
        self.next_free.fill(0);
        self.flits_carried.fill(0);
    }

    /// Serialize per-link reservation state and flit counters to
    /// canonical little-endian bytes: link count, then every link's
    /// `next_free`, then every link's `flits_carried`. Topology and
    /// `hop_latency` are construction-time constants and injected stall
    /// windows are scheduled faults reinstalled from the fault plan at
    /// machine construction, so neither is captured.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.next_free.len() * 16);
        out.extend_from_slice(&(self.next_free.len() as u64).to_le_bytes());
        for &c in &self.next_free {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &f in &self.flits_carried {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mesh {
        // No ruche links so hop counts are plain Manhattan distance.
        Mesh::new(MeshConfig::new(4, 4, 0))
    }

    #[test]
    fn zero_hop_is_free() {
        let mut m = small();
        let n = m.config().core_node(5);
        assert_eq!(m.traverse(n, n, 42, 1), 42);
    }

    #[test]
    fn uncontended_latency_equals_hops() {
        let mut m = small();
        let src = m.config().core_node(0); // (0, 0) in core rows
        let dst = m.config().core_node(3); // (3, 0)
        let hops = m.hop_count(src, dst);
        assert_eq!(hops, 3);
        assert_eq!(m.traverse(src, dst, 100, 1), 100 + hops as Cycle);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut m = small();
        let a = m.config().core_node(0);
        let b = m.config().core_node(1);
        let dst = m.config().core_node(3);
        // Two big packets at the same cycle sharing links (1,y)->(3,y):
        let t1 = m.traverse(a, dst, 0, 8);
        let t2 = m.traverse(b, dst, 0, 8);
        // The second packet must queue behind the first on shared links.
        assert!(t2 > t1, "expected queuing: {t1} vs {t2}");
    }

    #[test]
    fn probe_does_not_reserve() {
        let mut m = small();
        let src = m.config().core_node(0);
        let dst = m.config().core_node(3);
        let p1 = m.probe(src, dst, 0, 4);
        let p2 = m.probe(src, dst, 0, 4);
        assert_eq!(p1, p2);
        let t = m.traverse(src, dst, 0, 4);
        assert_eq!(t, p1);
        // After a real traversal the probe sees congestion.
        assert!(m.probe(src, dst, 0, 4) > p1);
    }

    #[test]
    fn farther_nodes_have_longer_latency() {
        let m = Mesh::new(MeshConfig::hammerblade_128());
        let cfg = m.config().clone();
        let src = cfg.core_node(0);
        let near = cfg.core_node(1);
        let far = cfg.core_node(127);
        assert!(m.probe(src, far, 0, 1) > m.probe(src, near, 0, 1));
    }

    #[test]
    fn injected_stall_delays_traffic_inside_the_window_only() {
        let mut m = small();
        let src = m.config().core_node(0);
        let dst = m.config().core_node(3);
        let base = m.probe(src, dst, 0, 1);
        // Stall every link for [0, 50): the head flit can't start
        // crossing until cycle 50.
        for l in 0..m.link_count() {
            m.inject_link_stall(l, 0, 50);
        }
        assert_eq!(m.probe(src, dst, 0, 1), 50 + base);
        // Traffic injected after the window is unaffected.
        assert_eq!(m.probe(src, dst, 100, 1), 100 + base);
        // And the windows survive a reset (they are scheduled faults,
        // not accumulated state).
        m.reset();
        assert_eq!(m.probe(src, dst, 0, 1), 50 + base);
    }

    #[test]
    fn abutting_stall_windows_chain() {
        let mut m = small();
        let src = m.config().core_node(0);
        let dst = m.config().core_node(1);
        m.inject_link_stall(0, 0, 10);
        m.inject_link_stall(0, 10, 20);
        // Only link 0 may be on the route; probing directly via
        // traverse to exercise past_stalls chaining.
        let route_first_link = 0;
        assert_eq!(m.past_stalls(route_first_link, 0), 20);
        assert_eq!(m.past_stalls(route_first_link, 20), 20);
        let _ = (src, dst);
    }

    #[test]
    fn roundtrip_matches_two_traversals_cycle_for_cycle() {
        let endpoint = |arrive: Cycle| arrive + 7;
        // Several back-to-back round trips so link reservations from
        // earlier packets shape later ones; both meshes must agree on
        // every completion cycle *and* every link counter.
        let mut split = small();
        let mut batched = small();
        split.inject_link_stall(0, 5, 15);
        batched.inject_link_stall(0, 5, 15);
        let src = split.config().core_node(0);
        let dst = split.config().core_node(14);
        for i in 0..10u64 {
            let cycle = i * 3;
            let there = split.traverse(src, dst, cycle, 2);
            let done_split = split.traverse(dst, src, endpoint(there), 2);
            let done_batched = batched.traverse_roundtrip(src, dst, cycle, 2, endpoint);
            assert_eq!(done_split, done_batched, "trip {i}");
        }
        assert_eq!(
            split.link_stats().total_flits(),
            batched.link_stats().total_flits()
        );
        assert_eq!(split.probe(src, dst, 0, 1), batched.probe(src, dst, 0, 1));
    }

    #[test]
    fn snapshot_is_canonical_and_covers_reservations() {
        let warm = || {
            let mut m = small();
            let src = m.config().core_node(0);
            let dst = m.config().core_node(14);
            m.traverse(src, dst, 0, 8);
            m.traverse(dst, src, 5, 2);
            m
        };
        assert_eq!(warm().snapshot(), warm().snapshot());
        assert_ne!(warm().snapshot(), small().snapshot());
        // Stall windows are scheduled faults, not state: not captured.
        let mut stalled = small();
        stalled.inject_link_stall(0, 0, 50);
        assert_eq!(stalled.snapshot(), small().snapshot());
    }

    #[test]
    fn hop_latency_is_exposed_for_lookahead_sizing() {
        assert_eq!(small().hop_latency(), 1);
    }

    #[test]
    fn reset_clears_reservations() {
        let mut m = small();
        let src = m.config().core_node(0);
        let dst = m.config().core_node(3);
        let base = m.probe(src, dst, 0, 1);
        m.traverse(src, dst, 0, 16);
        assert!(m.probe(src, dst, 0, 1) > base);
        m.reset();
        assert_eq!(m.probe(src, dst, 0, 1), base);
        assert_eq!(m.link_stats().total_flits(), 0);
    }
}
