//! Mesh topology: node naming, coordinates, link table, and route
//! precomputation.
//!
//! The modeled chip follows HammerBlade's floorplan (paper Figure 2): a
//! `cols x core_rows` array of cores with a row of last-level-cache
//! banks above the top core row and another below the bottom core row.
//! A 16x8-core configuration therefore has 16 + 16 = 32 LLC banks, as in
//! the paper.
//!
//! Routing is dimension-ordered X-then-Y (the paper: "HammerBlade adopts
//! X-Y routing"). Optionally, *ruche* express links of a configurable
//! factor are added in the X dimension; the router then greedily takes
//! express hops while the remaining X distance allows, which is the
//! wire-maximal behaviour described by Jung et al. (NOCS '20).

use crate::{LinkId, Route};
use std::fmt;

/// A node's position on the physical grid, including LLC rows.
///
/// `x` grows to the east, `y` to the south. `y == 0` is the north LLC
/// row; core rows occupy `1..=core_rows`; the south LLC row is
/// `core_rows + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column (east-west position).
    pub x: u16,
    /// Grid row (north-south position), *including* LLC rows.
    pub y: u16,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Dense identifier of a mesh node (core or LLC bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw dense index, row-major over the full grid including LLC rows.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What lives at a mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A compute tile; payload is the core id in `0..core_count`.
    Core(u32),
    /// A last-level cache bank; payload is the bank id in `0..llc_count`.
    LlcBank(u32),
}

/// Immutable description of the mesh: dimensions, link table, and
/// precomputed X-Y routes between all node pairs.
#[derive(Clone)]
pub struct MeshConfig {
    cols: u16,
    core_rows: u16,
    ruche_x: u16,
    /// `(from, to)` endpoints for every unidirectional link.
    links: Vec<(NodeId, NodeId)>,
    /// Precomputed routes for every `(src, dst)` pair in compressed
    /// rows: pair `src * n + dst` owns
    /// `route_links[route_offsets[pair]..route_offsets[pair + 1]]`.
    route_offsets: Vec<u32>,
    route_links: Vec<LinkId>,
}

/// Directions a node can have an outgoing link in; indexes the
/// per-node table [`MeshConfig::new`] routes through.
#[derive(Clone, Copy)]
enum Dir {
    East,
    West,
    South,
    North,
    RucheEast,
    RucheWest,
}

impl fmt::Debug for MeshConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshConfig")
            .field("cols", &self.cols)
            .field("core_rows", &self.core_rows)
            .field("ruche_x", &self.ruche_x)
            .field("links", &self.links.len())
            .finish()
    }
}

impl MeshConfig {
    /// Build a mesh of `cols x core_rows` cores plus two LLC rows, with
    /// ruche factor `ruche_x` in the X dimension (`0` or `1` disables
    /// express links).
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `core_rows` is zero.
    pub fn new(cols: u16, core_rows: u16, ruche_x: u16) -> Self {
        assert!(cols > 0 && core_rows > 0, "mesh dimensions must be nonzero");
        let grid_rows = core_rows + 2;
        let n = cols as usize * grid_rows as usize;

        let node = |x: u16, y: u16| -> u32 { y as u32 * cols as u32 + x as u32 };

        // Links are numbered in the order they are added; `out[node]`
        // remembers the id of the node's outgoing link per direction so
        // routing below is an index, not a search.
        let mut links = Vec::new();
        let mut out = vec![[LinkId(u32::MAX); 6]; n];
        let mut add_link = |from: u32, to: u32, dir: Dir| {
            out[from as usize][dir as usize] = LinkId(links.len() as u32);
            links.push((NodeId(from), NodeId(to)));
        };

        // Local links: 4-neighbour, both directions.
        for y in 0..grid_rows {
            for x in 0..cols {
                if x + 1 < cols {
                    add_link(node(x, y), node(x + 1, y), Dir::East);
                    add_link(node(x + 1, y), node(x, y), Dir::West);
                }
                if y + 1 < grid_rows {
                    add_link(node(x, y), node(x, y + 1), Dir::South);
                    add_link(node(x, y + 1), node(x, y), Dir::North);
                }
            }
        }
        // Ruche (express) links in X.
        if ruche_x > 1 {
            for y in 0..grid_rows {
                for x in 0..cols {
                    if x + ruche_x < cols {
                        add_link(node(x, y), node(x + ruche_x, y), Dir::RucheEast);
                        add_link(node(x + ruche_x, y), node(x, y), Dir::RucheWest);
                    }
                }
            }
        }

        // Precompute X-then-Y routes for all pairs, in pair order.
        let mut route_offsets = Vec::with_capacity(n * n + 1);
        let mut route_links = Vec::new();
        for sy in 0..grid_rows {
            for sx in 0..cols {
                for dy in 0..grid_rows {
                    for dx in 0..cols {
                        route_offsets.push(route_links.len() as u32);
                        let mut x = sx;
                        // X dimension first, taking express hops greedily.
                        while x != dx {
                            let express = ruche_x > 1 && dx.abs_diff(x) >= ruche_x;
                            let (dir, nx) = match (dx > x, express) {
                                (true, true) => (Dir::RucheEast, x + ruche_x),
                                (true, false) => (Dir::East, x + 1),
                                (false, true) => (Dir::RucheWest, x - ruche_x),
                                (false, false) => (Dir::West, x - 1),
                            };
                            route_links.push(out[node(x, sy) as usize][dir as usize]);
                            x = nx;
                        }
                        // Then Y.
                        let mut y = sy;
                        while y != dy {
                            let (dir, ny) = if dy > y {
                                (Dir::South, y + 1)
                            } else {
                                (Dir::North, y - 1)
                            };
                            route_links.push(out[node(x, y) as usize][dir as usize]);
                            y = ny;
                        }
                    }
                }
            }
        }
        route_offsets.push(route_links.len() as u32);

        MeshConfig {
            cols,
            core_rows,
            ruche_x,
            links,
            route_offsets,
            route_links,
        }
    }

    /// The 128-core HammerBlade configuration the paper evaluates:
    /// 16 columns x 8 core rows, 32 LLC banks, ruche factor 3.
    pub fn hammerblade_128() -> Self {
        MeshConfig::new(16, 8, 3)
    }

    /// Columns of the grid.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Rows of *cores* (the grid has two extra LLC rows).
    pub fn core_rows(&self) -> u16 {
        self.core_rows
    }

    /// Configured ruche factor (values `<= 1` mean no express links).
    pub fn ruche_x(&self) -> u16 {
        self.ruche_x
    }

    /// Number of compute cores.
    pub fn core_count(&self) -> usize {
        self.cols as usize * self.core_rows as usize
    }

    /// Number of LLC banks (one north row plus one south row).
    pub fn llc_count(&self) -> usize {
        2 * self.cols as usize
    }

    /// Total grid nodes including LLC rows.
    pub fn node_count(&self) -> usize {
        self.cols as usize * (self.core_rows as usize + 2)
    }

    /// Grid node hosting core `core` (row-major over core rows).
    ///
    /// # Panics
    ///
    /// Panics if `core >= core_count()`.
    pub fn core_node(&self, core: usize) -> NodeId {
        assert!(core < self.core_count(), "core id out of range");
        let x = (core % self.cols as usize) as u16;
        let y = (core / self.cols as usize) as u16 + 1; // skip north LLC row
        self.node_at(Coord { x, y })
    }

    /// Grid node hosting LLC bank `bank`. Banks `0..cols` are the north
    /// row (west to east); banks `cols..2*cols` are the south row.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= llc_count()`.
    pub fn llc_node(&self, bank: usize) -> NodeId {
        assert!(bank < self.llc_count(), "llc bank id out of range");
        let cols = self.cols as usize;
        let (x, y) = if bank < cols {
            (bank as u16, 0)
        } else {
            ((bank - cols) as u16, self.core_rows + 1)
        };
        self.node_at(Coord { x, y })
    }

    /// Node at a grid coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn node_at(&self, c: Coord) -> NodeId {
        assert!(
            c.x < self.cols && c.y < self.core_rows + 2,
            "coord out of grid"
        );
        NodeId(c.y as u32 * self.cols as u32 + c.x as u32)
    }

    /// Coordinate of a node.
    pub fn coord(&self, n: NodeId) -> Coord {
        Coord {
            x: (n.0 % self.cols as u32) as u16,
            y: (n.0 / self.cols as u32) as u16,
        }
    }

    /// What occupies node `n`.
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        let c = self.coord(n);
        if c.y == 0 {
            NodeKind::LlcBank(c.x as u32)
        } else if c.y == self.core_rows + 1 {
            NodeKind::LlcBank(self.cols as u32 + c.x as u32)
        } else {
            NodeKind::Core((c.y as u32 - 1) * self.cols as u32 + c.x as u32)
        }
    }

    /// The precomputed X-then-Y route from `src` to `dst` (empty when
    /// `src == dst`).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route<'_> {
        let pair = src.index() * self.node_count() + dst.index();
        let (start, end) = (self.route_offsets[pair], self.route_offsets[pair + 1]);
        Route::new(&self.route_links[start as usize..end as usize])
    }

    /// The `(from, to)` endpoints of every unidirectional link.
    pub fn link_table(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hammerblade_dimensions() {
        let cfg = MeshConfig::hammerblade_128();
        assert_eq!(cfg.core_count(), 128);
        assert_eq!(cfg.llc_count(), 32);
        assert_eq!(cfg.node_count(), 160);
    }

    #[test]
    fn core_node_roundtrip() {
        let cfg = MeshConfig::new(5, 3, 0);
        for core in 0..cfg.core_count() {
            let node = cfg.core_node(core);
            assert_eq!(cfg.node_kind(node), NodeKind::Core(core as u32));
        }
    }

    #[test]
    fn llc_node_roundtrip() {
        let cfg = MeshConfig::new(5, 3, 0);
        for bank in 0..cfg.llc_count() {
            let node = cfg.llc_node(bank);
            assert_eq!(cfg.node_kind(node), NodeKind::LlcBank(bank as u32));
        }
    }

    #[test]
    fn llc_rows_bracket_core_rows() {
        let cfg = MeshConfig::new(4, 2, 0);
        assert_eq!(cfg.coord(cfg.llc_node(0)).y, 0);
        assert_eq!(cfg.coord(cfg.core_node(0)).y, 1);
        assert_eq!(cfg.coord(cfg.llc_node(4)).y, 3);
    }

    #[test]
    fn route_is_x_then_y() {
        let cfg = MeshConfig::new(4, 4, 0);
        let src = cfg.node_at(Coord { x: 0, y: 1 });
        let dst = cfg.node_at(Coord { x: 3, y: 4 });
        let route = cfg.route(src, dst);
        let links = cfg.link_table();
        let mut seen_y_move = false;
        let mut at = src;
        for l in route.links() {
            let (from, to) = links[l.index()];
            assert_eq!(from, at, "route must be contiguous");
            let (cf, ct) = (cfg.coord(from), cfg.coord(to));
            if cf.y != ct.y {
                seen_y_move = true;
            } else {
                assert!(!seen_y_move, "X move after Y move violates X-Y order");
            }
            at = to;
        }
        assert_eq!(at, dst);
    }

    #[test]
    fn route_is_minimal_without_ruche() {
        let cfg = MeshConfig::new(6, 4, 0);
        let src = cfg.node_at(Coord { x: 1, y: 1 });
        let dst = cfg.node_at(Coord { x: 5, y: 4 });
        assert_eq!(cfg.route(src, dst).links().len(), (5 - 1) + (4 - 1));
    }

    #[test]
    fn ruche_shortens_long_x_routes() {
        let no_ruche = MeshConfig::new(16, 2, 0);
        let ruche = MeshConfig::new(16, 2, 3);
        let src_n = no_ruche.node_at(Coord { x: 0, y: 1 });
        let dst_n = no_ruche.node_at(Coord { x: 15, y: 1 });
        let src_r = ruche.node_at(Coord { x: 0, y: 1 });
        let dst_r = ruche.node_at(Coord { x: 15, y: 1 });
        let plain = no_ruche.route(src_n, dst_n).links().len();
        let express = ruche.route(src_r, dst_r).links().len();
        assert_eq!(plain, 15);
        assert_eq!(express, 5); // 15 = 3 * 5 express hops, no local hops
        assert!(express < plain);
    }

    /// The route builder this module used before routes were stored in
    /// compressed rows: a `(from, to) -> link` map filled while the
    /// link table is enumerated, searched once per hop. Kept as the
    /// reference the indexed builder must reproduce link for link.
    fn reference_routes(cfg: &MeshConfig) -> Vec<Vec<LinkId>> {
        use std::collections::BTreeMap;
        let (cols, grid_rows, ruche_x) = (cfg.cols, cfg.core_rows + 2, cfg.ruche_x);
        let link_of: BTreeMap<(NodeId, NodeId), LinkId> = cfg
            .link_table()
            .iter()
            .enumerate()
            .map(|(i, &ends)| (ends, LinkId(i as u32)))
            .collect();
        let node = |x: u16, y: u16| NodeId(y as u32 * cols as u32 + x as u32);
        let mut routes = Vec::new();
        for sy in 0..grid_rows {
            for sx in 0..cols {
                for dy in 0..grid_rows {
                    for dx in 0..cols {
                        let mut path = Vec::new();
                        let mut x = sx;
                        while x != dx {
                            let dist = dx.abs_diff(x);
                            let step = if ruche_x > 1 && dist >= ruche_x {
                                ruche_x
                            } else {
                                1
                            };
                            let nx = if dx > x { x + step } else { x - step };
                            path.push(link_of[&(node(x, sy), node(nx, sy))]);
                            x = nx;
                        }
                        let mut y = sy;
                        while y != dy {
                            let ny = if dy > y { y + 1 } else { y - 1 };
                            path.push(link_of[&(node(x, y), node(x, ny))]);
                            y = ny;
                        }
                        routes.push(path);
                    }
                }
            }
        }
        routes
    }

    #[test]
    fn indexed_routes_match_the_map_based_reference_pairwise() {
        for cfg in [MeshConfig::new(16, 8, 3), MeshConfig::new(5, 3, 0)] {
            let reference = reference_routes(&cfg);
            let n = cfg.node_count();
            assert_eq!(reference.len(), n * n);
            for src in 0..n {
                for dst in 0..n {
                    assert_eq!(
                        cfg.route(NodeId(src as u32), NodeId(dst as u32)).links(),
                        reference[src * n + dst].as_slice(),
                        "{cfg:?}: route {src} -> {dst}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn core_node_bounds_checked() {
        let cfg = MeshConfig::new(2, 2, 0);
        cfg.core_node(4);
    }
}
