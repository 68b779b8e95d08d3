//! Fused per-source BFS engine: one traversal feeds paths, betweenness and
//! closeness.
//!
//! The seed measurement pipeline ran **two** independent BFS sweeps over the
//! sampled sources — one for the shortest-path statistics, one for Brandes
//! betweenness — even though both start from the same stride-sampled source
//! sets (and the betweenness strides are usually a subset of the path
//! strides). This module fuses them: each source is traversed once, and
//! per-source flags say which observables that traversal feeds.
//!
//! Per-source cost is kept minimal:
//!
//! * Sources that only feed the path-length histogram are traversed in
//!   **bit-parallel batches of 64**: each node carries a `u64` of
//!   per-source visited bits, so one pass over the edges advances 64 BFS
//!   frontiers at once and a popcount per node yields the histogram. This
//!   replaces 64 scattered `dist[w]` probes per edge with one word OR.
//! * Per-source traversals (Brandes or closeness sources) run on the
//!   hub-first relabeled graph, level by level over a single `order` vector
//!   that doubles as the FIFO queue and, read backwards, as the
//!   dependency-pass stack — no separate `VecDeque`/stack allocations.
//! * They walk only the **core**, the nodes of degree ≥ 2, and fold the
//!   degree-1 nodes ("leaves") in exactly. A shortest path can end at a
//!   leaf but never pass through one. Relabeling gives leaves the highest
//!   ids, so each sorted adjacency list ends in its leaves, and a parent
//!   pushes its leaf children last in its block of `order`. The dependency
//!   pass therefore adds their shares to δ_v before any other child's.
//!   So when node v is scanned, its `L_v` leaves are added to the next
//!   level's width, and δ_v is set to `L_v` sequential adds of
//!   `σ_v · ((1 + 0) / σ_v)`, the term each leaf would have added. A leaf is
//!   never pushed, scanned or reset, and a leaf source takes itself off its
//!   neighbour's count. On a leafless graph the core slice of every list is
//!   the whole list. AS-like graphs are stub-heavy (about 29% of a PFP
//!   giant, half of a Serrano giant), so this skips a large share of every
//!   traversal with every output bit unchanged.
//! * Brandes path counts `σ` are written on a node's discovery instead of
//!   being reset between sources. Between sources only the entries actually
//!   touched are reset: the core prefix by sequential fills when the
//!   traversal covered most of it, else the entries in `order`.
//! * Predecessors stay in per-node lists like the seed's. A flat
//!   CSR-shaped predecessor arena was measured *slower* on heavy-tailed
//!   graphs (extra random cache lines per DAG edge). With leaf folding in
//!   place, two more variants were measured on a PFP giant (n = 30 000,
//!   500 Brandes sources, one thread) and dropped (EXPERIMENTS.md, "Fused
//!   Brandes: exact leaf folding"). A pred-less rescan of the core
//!   adjacency in the dependency pass is bit-identical but 11–12% slower.
//!   A `u8` distance array was 4–6% faster on PFP and −3% to +4% on BA,
//!   all inside the runs' own quartile spread, and would need a second
//!   code path past 254 levels.
//! * The path-length histogram is updated **once per BFS level** (level
//!   width added to `counts[d]`), not once per visited node, and the
//!   efficiency sum `Σ 1/d` is derived from the final histogram instead of
//!   doing one float division per reachable pair.
//!
//! Batches and sources fan out over the deterministic pool behind
//! [`inet_exec::Executor::fold_ordered`], which folds each chunk's partial
//! into the totals in chunk order as the chunks finish, so every result is
//! **bit-identical for any thread count**. A betweenness partial is a
//! full-length `Vec<f64>`; the streaming fold keeps about `threads` of them
//! alive (about `threads × n` floats) rather than one per chunk.

use crate::paths::PathStats;
use inet_exec::Executor;
use inet_graph::traversal::UNREACHABLE;
use inet_graph::Csr;

/// What one source's traversal should feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSpec {
    /// The BFS source node.
    pub node: u32,
    /// Accumulate the shortest-path-length histogram from this source.
    pub paths: bool,
    /// Run the Brandes dependency pass from this source.
    pub betweenness: bool,
    /// Record the source's closeness centrality.
    pub closeness: bool,
}

/// Raw, unscaled accumulations of one fused sweep.
pub(crate) struct SweepTotals {
    /// `counts[d]` = reachable ordered pairs at distance `d` over the
    /// paths-flagged sources.
    pub counts: Vec<u64>,
    /// Unreachable ordered pairs over the paths-flagged sources.
    pub unreachable_pairs: u64,
    /// Unscaled Brandes dependency sums (both pair directions counted when
    /// every node is a source).
    pub betweenness: Vec<f64>,
    /// Closeness of each closeness-flagged source (0 elsewhere).
    pub closeness: Vec<f64>,
}

/// Result of [`paths_and_betweenness`]: both headline BFS observables from a
/// single sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedReport {
    /// Shortest-path statistics over the path source set.
    pub paths: PathStats,
    /// Betweenness estimate, scaled like
    /// [`crate::betweenness::betweenness_sampled`].
    pub betweenness: Vec<f64>,
}

/// Measures path statistics (from `path_sources` stride-sampled sources,
/// exact when `path_sources ≥ n`) and sampled betweenness (from
/// `betweenness_sources`) in **one** BFS sweep over the union of the two
/// source sets. Sources appearing in both sets are traversed once.
///
/// Output is identical (up to float summation order) to running
/// [`PathStats::measure_sampled`] and
/// [`crate::betweenness::betweenness_sampled`] separately, and bit-identical
/// across thread counts.
pub fn paths_and_betweenness(
    g: &Csr,
    path_sources: usize,
    betweenness_sources: usize,
    threads: usize,
) -> FusedReport {
    let n = g.node_count();
    let (path_set, exact) = path_source_set(n, path_sources);
    let (bc_set, scale) = betweenness_source_set(n, betweenness_sources);
    let specs = union_specs(&path_set, &bc_set);
    let totals = sweep(g, &specs, threads);
    let paths = PathStats::from_histogram(
        totals.counts,
        totals.unreachable_pairs,
        path_set.len(),
        exact,
    );
    let mut betweenness = totals.betweenness;
    for b in &mut betweenness {
        *b *= scale;
    }
    FusedReport { paths, betweenness }
}

/// Path source set (stride-sampled like the seed: `i·n/k`) and whether it is
/// exact (every node a source).
pub(crate) fn path_source_set(n: usize, k: usize) -> (Vec<u32>, bool) {
    if n == 0 {
        return (Vec::new(), true);
    }
    if k >= n {
        return ((0..n as u32).collect(), true);
    }
    let k = k.max(1);
    ((0..k).map(|i| (i * n / k) as u32).collect(), false)
}

/// Betweenness source set and the scale factor that turns raw dependency
/// sums into the estimate of `betweenness_sampled`.
pub(crate) fn betweenness_source_set(n: usize, k: usize) -> (Vec<u32>, f64) {
    if n == 0 || k == 0 {
        return (Vec::new(), 1.0);
    }
    if k >= n {
        return ((0..n as u32).collect(), 0.5);
    }
    let sources: Vec<u32> = (0..k).map(|i| (i * n / k) as u32).collect();
    let scale = n as f64 / sources.len() as f64 / 2.0;
    (sources, scale)
}

/// Merges two ascending source lists into flagged specs (two-pointer union).
fn union_specs(path_set: &[u32], bc_set: &[u32]) -> Vec<SourceSpec> {
    let mut specs = Vec::with_capacity(path_set.len() + bc_set.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < path_set.len() || j < bc_set.len() {
        let p = path_set.get(i).copied();
        let b = bc_set.get(j).copied();
        let (node, paths, betweenness) = match (p, b) {
            (Some(p), Some(b)) if p == b => {
                i += 1;
                j += 1;
                (p, true, true)
            }
            (Some(p), Some(b)) if p < b => {
                i += 1;
                (p, true, false)
            }
            (Some(_), Some(b)) => {
                j += 1;
                (b, false, true)
            }
            (Some(p), None) => {
                i += 1;
                (p, true, false)
            }
            (None, Some(b)) => {
                j += 1;
                (b, false, true)
            }
            (None, None) => unreachable!(),
        };
        specs.push(SourceSpec {
            node,
            paths,
            betweenness,
            closeness: false,
        });
    }
    specs
}

/// Betweenness-only sweep used by the thin wrappers in
/// [`mod@crate::betweenness`].
pub(crate) fn betweenness_from_sources(
    g: &Csr,
    sources: &[u32],
    scale: f64,
    threads: usize,
) -> Vec<f64> {
    let specs: Vec<SourceSpec> = sources
        .iter()
        .map(|&node| SourceSpec {
            node,
            paths: false,
            betweenness: true,
            closeness: false,
        })
        .collect();
    let mut bc = sweep(g, &specs, threads).betweenness;
    for b in &mut bc {
        *b *= scale;
    }
    bc
}

/// Paths-only sweep used by the thin wrappers in [`mod@crate::paths`].
pub(crate) fn paths_from_sources(
    g: &Csr,
    sources: &[u32],
    exact: bool,
    threads: usize,
) -> PathStats {
    let specs: Vec<SourceSpec> = sources
        .iter()
        .map(|&node| SourceSpec {
            node,
            paths: true,
            betweenness: false,
            closeness: false,
        })
        .collect();
    let totals = sweep(g, &specs, threads);
    PathStats::from_histogram(
        totals.counts,
        totals.unreachable_pairs,
        sources.len(),
        exact,
    )
}

/// Closeness of every node, computed with BFS sources fanned out over
/// `threads` workers. Values are identical to the sequential definition
/// (each node's closeness depends only on its own traversal).
pub(crate) fn closeness_values(g: &Csr, threads: usize) -> Vec<f64> {
    let specs: Vec<SourceSpec> = (0..g.node_count() as u32)
        .map(|node| SourceSpec {
            node,
            paths: false,
            betweenness: false,
            closeness: true,
        })
        .collect();
    sweep(g, &specs, threads).closeness
}

/// Per-worker reusable buffers. Betweenness arrays are only allocated when
/// the sweep contains betweenness sources. `sigma` is (over)written on a
/// node's discovery, so it needs no reset between sources; `dist`, `delta`
/// and the predecessor lists are reset after each source (core entries
/// only: leaves are never touched).
struct Workspace {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// Per-node predecessor lists, cleared touched-only between sources.
    preds: Vec<Vec<u32>>,
    /// BFS visitation order; doubles as the FIFO queue during traversal and
    /// as the reverse-iteration stack of the dependency pass.
    order: Vec<u32>,
}

impl Workspace {
    fn new(n: usize, betweenness: bool) -> Self {
        Workspace {
            dist: vec![UNREACHABLE; n],
            sigma: if betweenness {
                vec![0.0; n]
            } else {
                Vec::new()
            },
            delta: if betweenness {
                vec![0.0; n]
            } else {
                Vec::new()
            },
            preds: if betweenness {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            order: Vec::with_capacity(n),
        }
    }
}

/// Per-chunk partial accumulations, folded in chunk order by [`sweep`].
struct Partial {
    counts: Vec<u64>,
    unreachable: u64,
    bc: Option<Vec<f64>>,
    closeness: Vec<(u32, f64)>,
}

impl Partial {
    fn empty() -> Self {
        Partial {
            counts: Vec::new(),
            unreachable: 0,
            bc: None,
            closeness: Vec::new(),
        }
    }
}

impl SweepTotals {
    /// Nothing accumulated yet, over `n` nodes.
    fn zero(n: usize) -> Self {
        SweepTotals {
            counts: Vec::new(),
            unreachable_pairs: 0,
            betweenness: vec![0.0; n],
            closeness: vec![0.0; n],
        }
    }

    /// Adds one chunk's partial. The sweep's fan-outs call this in chunk
    /// order, so the float sums keep their order at any thread count.
    fn absorb(&mut self, part: Partial) {
        if part.counts.len() > self.counts.len() {
            self.counts.resize(part.counts.len(), 0);
        }
        for (slot, c) in self.counts.iter_mut().zip(part.counts) {
            *slot += c;
        }
        self.unreachable_pairs += part.unreachable;
        if let Some(pbc) = part.bc {
            for (slot, b) in self.betweenness.iter_mut().zip(pbc) {
                *slot += b;
            }
        }
        for (node, value) in part.closeness {
            self.closeness[node as usize] = value;
        }
    }

    /// Scatters per-node results taken over a relabeled graph back to the
    /// caller's ids: slot `new` lands in `old_of[new]`.
    fn unpermute(mut self, old_of: &[u32]) -> Self {
        let n = old_of.len();
        let mut betweenness = vec![0.0; n];
        let mut closeness = vec![0.0; n];
        for (new, &old) in old_of.iter().enumerate() {
            betweenness[old as usize] = self.betweenness[new];
            closeness[old as usize] = self.closeness[new];
        }
        self.betweenness = betweenness;
        self.closeness = closeness;
        self
    }
}

/// Runs the fused traversal for every spec, fanning sources out over
/// `threads` work-stealing workers, and folds the partials in chunk order.
///
/// The graph is first relabeled **hub-first** (degree descending): on
/// heavy-tailed graphs most shortest-path hops pass through the high-degree
/// core, so packing those nodes into the low indices keeps the hot prefix
/// of the `dist`/`σ`/`δ` arrays cache-resident. Relabeling permutes only
/// *which slot* each node's sums land in, not the order the sums are taken
/// in, for everything except the Brandes visitation order — whose deviation
/// from the seed is a couple of ulp, checked by the cross-check tests.
/// Results are scattered back to the caller's node ids.
///
/// Sources that only feed the path-length histogram are traversed in
/// bit-parallel batches of 64 (histogram counts are integers, so the
/// batched order changes nothing); sources that feed betweenness or
/// closeness take the per-source [`fused_source`] path, which folds the
/// degree-1 nodes in without visiting them.
pub(crate) fn sweep(g: &Csr, specs: &[SourceSpec], threads: usize) -> SweepTotals {
    let n = g.node_count();
    if n == 0 || specs.is_empty() {
        return SweepTotals::zero(n);
    }
    let (gp, old_of, specs) = hub_first(g, specs);
    sweep_relabeled(&gp, &specs, threads).unpermute(&old_of)
}

/// Relabels `g` hub-first — nodes sorted by (degree desc, id asc) — and
/// maps `specs` onto the new ids. Returns the relabeled graph and `old_of`,
/// where `old_of[new]` is the caller's id of node `new`.
fn hub_first(g: &Csr, specs: &[SourceSpec]) -> (Csr, Vec<u32>, Vec<SourceSpec>) {
    let n = g.node_count();
    let mut old_of: Vec<u32> = (0..n as u32).collect();
    old_of.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v as usize)), v));
    let mut new_of = vec![0u32; n];
    for (new, &old) in old_of.iter().enumerate() {
        new_of[old as usize] = new as u32;
    }
    let specs = specs
        .iter()
        .map(|s| SourceSpec {
            node: new_of[s.node as usize],
            ..*s
        })
        .collect();
    (g.permuted(&new_of), old_of, specs)
}

/// [`sweep`] body, operating on the hub-first relabeled graph.
fn sweep_relabeled(g: &Csr, specs: &[SourceSpec], threads: usize) -> SweepTotals {
    let n = g.node_count();
    let light: Vec<u32> = specs
        .iter()
        .filter(|s| s.paths && !s.betweenness && !s.closeness)
        .map(|s| s.node)
        .collect();
    let heavy: Vec<SourceSpec> = specs
        .iter()
        .copied()
        .filter(|s| s.betweenness || s.closeness)
        .collect();
    let needs_bc = heavy.iter().any(|s| s.betweenness);
    let first_leaf = first_leaf(g);

    // Heavy partials fold first, then light ones, each in chunk order.
    let pool = Executor::new(threads);
    let totals = pool.fold_ordered(
        heavy.len(),
        SweepTotals::zero(n),
        || Workspace::new(n, needs_bc),
        |ws, range| {
            let mut part = Partial::empty();
            for spec in &heavy[range] {
                fused_source(g, first_leaf, *spec, ws, &mut part);
            }
            part
        },
        SweepTotals::absorb,
    );
    let batches = light.len().div_ceil(BATCH);
    pool.fold_ordered(
        batches,
        totals,
        || BatchWorkspace::new(n),
        |ws, range| {
            let mut part = Partial::empty();
            for b in range {
                let batch = &light[b * BATCH..light.len().min((b + 1) * BATCH)];
                batched_paths(g, batch, ws, &mut part);
            }
            part
        },
        SweepTotals::absorb,
    )
}

/// Sources per bit-parallel BFS batch: one visited bit per `u64` lane.
const BATCH: usize = 64;

/// Per-worker frontier bitsets for the batched paths-only traversal.
struct BatchWorkspace {
    visited: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl BatchWorkspace {
    fn new(n: usize) -> Self {
        BatchWorkspace {
            visited: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }
}

/// Advances up to 64 BFS frontiers at once: each node holds a `u64` whose
/// bit *i* means "visited from `sources[i]`". One pass over the edges per
/// level ORs frontier words into neighbours, and the per-level popcount sum
/// is exactly the histogram width contributed by the whole batch.
fn batched_paths(g: &Csr, sources: &[u32], ws: &mut BatchWorkspace, out: &mut Partial) {
    let n = g.node_count();
    for x in ws.visited.iter_mut() {
        *x = 0;
    }
    for x in ws.frontier.iter_mut() {
        *x = 0;
    }
    for (i, &s) in sources.iter().enumerate() {
        ws.visited[s as usize] |= 1u64 << i;
        ws.frontier[s as usize] |= 1u64 << i;
    }
    // (source, source) pairs count as reached at distance 0.
    let mut reached = sources.len() as u64;
    let mut d = 0usize;
    loop {
        for v in 0..n {
            let f = ws.frontier[v];
            if f != 0 {
                for &w in g.neighbors(v) {
                    ws.next[w as usize] |= f;
                }
            }
        }
        d += 1;
        let mut width = 0u64;
        for v in 0..n {
            let new = ws.next[v] & !ws.visited[v];
            ws.visited[v] |= new;
            ws.frontier[v] = new;
            ws.next[v] = 0;
            width += new.count_ones() as u64;
        }
        if width == 0 {
            break;
        }
        if d >= out.counts.len() {
            out.counts.resize(d + 1, 0);
        }
        out.counts[d] += width;
        reached += width;
    }
    out.unreachable += n as u64 * sources.len() as u64 - reached;
}

/// The first degree-1 node ("leaf") of hub-first `g`. Sorting by degree
/// puts the leaves at the ids `first_leaf(g)..`, below only the isolated
/// nodes, so every sorted adjacency list ends in its leaves and every node
/// below the first leaf has degree ≥ 2.
fn first_leaf(g: &Csr) -> usize {
    (0..g.node_count())
        .take_while(|&v| g.degree(v) >= 2)
        .count()
}

/// One fused source traversal over the core of a hub-first graph:
/// level-by-level BFS with optional Brandes path counting, followed by the
/// optional dependency pass, then a workspace reset. Leaves are folded in
/// without being pushed, scanned or reset (see the module doc).
fn fused_source(
    g: &Csr,
    first_leaf: usize,
    spec: SourceSpec,
    ws: &mut Workspace,
    out: &mut Partial,
) {
    let n = g.node_count();
    let s = spec.node as usize;
    let bc_pass = spec.betweenness;
    // A leaf source is reached already: its neighbour folds one leaf less.
    let leaf_source_neighbour = match g.neighbors(s) {
        &[u] => u as usize,
        _ => usize::MAX,
    };

    ws.order.clear();
    ws.dist[s] = 0;
    ws.order.push(spec.node);
    if bc_pass {
        ws.sigma[s] = 1.0;
    }

    let mut close_sum = 0u64;
    let mut reached = 1usize;
    let mut level_start = 0usize;
    let mut d = 0u32;
    while level_start < ws.order.len() {
        let level_end = ws.order.len();
        let mut level_leaves = 0usize;
        for idx in level_start..level_end {
            let v = ws.order[idx] as usize;
            let nbrs = g.neighbors(v);
            // Only a list that ends in a leaf needs its core end searched.
            let core_len = match nbrs.last() {
                Some(&w) if w as usize >= first_leaf => {
                    nbrs.partition_point(|&w| (w as usize) < first_leaf)
                }
                _ => nbrs.len(),
            };
            let core = &nbrs[..core_len];
            let folded = nbrs.len() - core_len - usize::from(v == leaf_source_neighbour);
            level_leaves += folded;
            if bc_pass {
                let sv = ws.sigma[v];
                if folded > 0 {
                    // Each leaf child has σ = σ_v and δ = 0, and the
                    // dependency pass reaches v's leaves before its other
                    // children: δ_v starts as their terms, summed in turn.
                    let c = sv * ((1.0 + 0.0) / sv);
                    ws.delta[v] = (0..folded).fold(0.0, |delta, _| delta + c);
                }
                for &w in core {
                    let wi = w as usize;
                    let dw = ws.dist[wi];
                    if dw == UNREACHABLE {
                        ws.dist[wi] = d + 1;
                        // First touch: `σ = sv` is bitwise `0.0 + sv`, so σ
                        // never needs a reset between sources.
                        ws.sigma[wi] = sv;
                        ws.order.push(w);
                        ws.preds[wi].push(v as u32);
                    } else if dw == d + 1 {
                        ws.sigma[wi] += sv;
                        ws.preds[wi].push(v as u32);
                    }
                }
            } else {
                for &w in core {
                    let wi = w as usize;
                    if ws.dist[wi] == UNREACHABLE {
                        ws.dist[wi] = d + 1;
                        ws.order.push(w);
                    }
                }
            }
        }
        // Level d + 1: the core nodes just pushed plus the leaves folded in.
        let width = ws.order.len() - level_end + level_leaves;
        if width > 0 {
            if spec.paths {
                let di = d as usize + 1;
                if di >= out.counts.len() {
                    out.counts.resize(di + 1, 0);
                }
                out.counts[di] += width as u64;
            }
            if spec.closeness {
                close_sum += (d as u64 + 1) * width as u64;
            }
        }
        reached += width;
        level_start = level_end;
        d += 1;
    }

    if spec.paths {
        out.unreachable += (n - reached) as u64;
    }
    if spec.closeness {
        // Wasserman–Faust component-aware closeness, exactly as in
        // `centrality::closeness`.
        let reachable = (reached - 1) as u64;
        let value = if close_sum > 0 && n > 1 {
            let frac = reachable as f64 / (n as f64 - 1.0);
            frac * reachable as f64 / close_sum as f64
        } else {
            0.0
        };
        out.closeness.push((spec.node, value));
    }

    if bc_pass {
        // Dependency pass in reverse visitation order. `order[0]` is the
        // source, which has no predecessors and accumulates no betweenness,
        // so it is skipped; leaves are not in `order` at all, their δ is 0
        // and their share of δ_v is already in place. The per-node
        // coefficient `(1 + δ_w) / σ_w` is hoisted so each predecessor
        // costs one multiply instead of a divide and a multiply; this
        // deviates from the seed's per-edge `σ_v / σ_w · (1 + δ_w)` by at
        // most a couple of ulp (the cross-check tests compare at 1e-9) and
        // stays bit-identical across thread counts, which is the contract
        // that matters.
        let bc = out.bc.get_or_insert_with(|| vec![0.0; n]);
        for idx in (1..ws.order.len()).rev() {
            let w = ws.order[idx] as usize;
            let coeff = (1.0 + ws.delta[w]) / ws.sigma[w];
            for &v in &ws.preds[w] {
                let vi = v as usize;
                ws.delta[vi] += ws.sigma[vi] * coeff;
            }
            bc[w] += ws.delta[w];
        }
    }

    // Reset for the next source. Only core nodes and the source were
    // touched. When the traversal covered most of the core (the usual case
    // on a giant component), sequential fills of the core prefix beat
    // touching the same entries in random BFS order; the touched-only path
    // wins on small components.
    if ws.order.len() * 4 >= first_leaf {
        ws.dist[..first_leaf].fill(UNREACHABLE);
        ws.dist[s] = UNREACHABLE;
        if bc_pass {
            ws.delta[..first_leaf].fill(0.0);
            ws.delta[s] = 0.0;
            ws.preds[..first_leaf].iter_mut().for_each(Vec::clear);
        }
    } else {
        for &v in &ws.order {
            let vi = v as usize;
            ws.dist[vi] = UNREACHABLE;
            if bc_pass {
                ws.delta[vi] = 0.0;
                ws.preds[vi].clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain per-source traversal, visiting every node leaves included:
    /// the oracle [`fused_source`] must match bit for bit.
    fn unfolded_fused_source(g: &Csr, spec: SourceSpec, ws: &mut Workspace, out: &mut Partial) {
        let n = g.node_count();
        let s = spec.node as usize;
        let bc_pass = spec.betweenness;

        ws.order.clear();
        ws.dist[s] = 0;
        ws.order.push(spec.node);
        if bc_pass {
            ws.sigma[s] = 1.0;
        }

        let mut close_sum = 0u64;
        let mut level_start = 0usize;
        let mut d = 0u32;
        while level_start < ws.order.len() {
            let level_end = ws.order.len();
            if d >= 1 {
                let width = (level_end - level_start) as u64;
                if spec.paths {
                    let di = d as usize;
                    if di >= out.counts.len() {
                        out.counts.resize(di + 1, 0);
                    }
                    out.counts[di] += width;
                }
                if spec.closeness {
                    close_sum += d as u64 * width;
                }
            }
            for idx in level_start..level_end {
                let v = ws.order[idx] as usize;
                if bc_pass {
                    let sv = ws.sigma[v];
                    for &w in g.neighbors(v) {
                        let wi = w as usize;
                        let dw = ws.dist[wi];
                        if dw == UNREACHABLE {
                            ws.dist[wi] = d + 1;
                            // First touch: `σ = sv` is bitwise `0.0 + sv`, so σ
                            // never needs a reset between sources.
                            ws.sigma[wi] = sv;
                            ws.order.push(w);
                            ws.preds[wi].push(v as u32);
                        } else if dw == d + 1 {
                            ws.sigma[wi] += sv;
                            ws.preds[wi].push(v as u32);
                        }
                    }
                } else {
                    for &w in g.neighbors(v) {
                        let wi = w as usize;
                        if ws.dist[wi] == UNREACHABLE {
                            ws.dist[wi] = d + 1;
                            ws.order.push(w);
                        }
                    }
                }
            }
            level_start = level_end;
            d += 1;
        }

        if spec.paths {
            out.unreachable += (n - ws.order.len()) as u64;
        }
        if spec.closeness {
            // Wasserman–Faust component-aware closeness, exactly as in
            // `centrality::closeness`.
            let reachable = (ws.order.len() - 1) as u64;
            let value = if close_sum > 0 && n > 1 {
                let frac = reachable as f64 / (n as f64 - 1.0);
                frac * reachable as f64 / close_sum as f64
            } else {
                0.0
            };
            out.closeness.push((spec.node, value));
        }

        if bc_pass {
            // Dependency pass in reverse visitation order. `order[0]` is the
            // source, which has no predecessors and accumulates no betweenness,
            // so it is skipped. The per-node coefficient `(1 + δ_w) / σ_w` is
            // hoisted so each predecessor costs one multiply instead of a
            // divide and a multiply; this deviates from the seed's per-edge
            // `σ_v / σ_w · (1 + δ_w)` by at most a couple of ulp (the
            // cross-check tests compare at 1e-9) and stays bit-identical
            // across thread counts, which is the contract that matters.
            let bc = out.bc.get_or_insert_with(|| vec![0.0; n]);
            for idx in (1..ws.order.len()).rev() {
                let w = ws.order[idx] as usize;
                let coeff = (1.0 + ws.delta[w]) / ws.sigma[w];
                for &v in &ws.preds[w] {
                    let vi = v as usize;
                    ws.delta[vi] += ws.sigma[vi] * coeff;
                }
                bc[w] += ws.delta[w];
            }
        }

        // Reset for the next source. When the traversal covered most of the
        // graph (the usual case on a giant component), sequential fills beat
        // touching the same entries in random BFS order; the touched-only path
        // wins on small components.
        if ws.order.len() * 4 >= n {
            ws.dist.iter_mut().for_each(|x| *x = UNREACHABLE);
            if bc_pass {
                ws.delta.iter_mut().for_each(|x| *x = 0.0);
                ws.preds.iter_mut().for_each(Vec::clear);
            }
        } else {
            for &v in &ws.order {
                let vi = v as usize;
                ws.dist[vi] = UNREACHABLE;
                if bc_pass {
                    ws.delta[vi] = 0.0;
                    ws.preds[vi].clear();
                }
            }
        }
    }

    /// [`sweep`] with every source on [`unfolded_fused_source`]. Takes only
    /// specs that feed betweenness or closeness, which [`sweep`] sends
    /// through the same single fan-out.
    fn oracle_sweep(g: &Csr, specs: &[SourceSpec], threads: usize) -> SweepTotals {
        assert!(specs.iter().all(|s| s.betweenness || s.closeness));
        let n = g.node_count();
        let (gp, old_of, specs) = hub_first(g, specs);
        let needs_bc = specs.iter().any(|s| s.betweenness);
        Executor::new(threads)
            .fold_ordered(
                specs.len(),
                SweepTotals::zero(n),
                || Workspace::new(n, needs_bc),
                |ws, range| {
                    let mut part = Partial::empty();
                    for spec in &specs[range] {
                        unfolded_fused_source(&gp, *spec, ws, &mut part);
                    }
                    part
                },
                SweepTotals::absorb,
            )
            .unpermute(&old_of)
    }

    /// Random graph heavy in degree-1 nodes, under shuffled ids: a random
    /// tree with pendant stubs and a few (sometimes many) extra edges, a
    /// star, two-node components and isolated nodes.
    fn pendant_heavy(rng: &mut inet_stats::rng::StdRng) -> Csr {
        let tree = rng.gen_range(1..40usize);
        let mut edges: Vec<(usize, usize)> = (1..tree).map(|i| (rng.gen_range(0..i), i)).collect();
        let mut n = tree;
        for _ in 0..rng.gen_range(0..2 * tree) {
            edges.push((rng.gen_range(0..tree), n));
            n += 1;
        }
        let extra = if rng.gen_bool(0.3) {
            2 * tree
        } else {
            tree / 4
        };
        for _ in 0..rng.gen_range(0..=extra) {
            edges.push((rng.gen_range(0..tree), rng.gen_range(0..tree)));
        }
        let arms = rng.gen_range(0..6usize);
        edges.extend((1..=arms).map(|i| (n, n + i)));
        n += arms + 1;
        for _ in 0..rng.gen_range(0..3usize) {
            edges.push((n, n + 1));
            n += 2;
        }
        n += rng.gen_range(0..3usize);
        let mut label: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut label);
        let edges: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (label[u], label[v])).collect();
        Csr::from_edges(n, &edges)
    }

    /// Random specs that all take the per-source path: each node is a
    /// source with probability `p`, with random flags.
    fn heavy_specs(n: usize, p: f64, rng: &mut inet_stats::rng::StdRng) -> Vec<SourceSpec> {
        let mut specs = Vec::new();
        for node in 0..n as u32 {
            if rng.gen_bool(p) {
                let betweenness = rng.gen_bool(0.7);
                specs.push(SourceSpec {
                    node,
                    paths: rng.gen_bool(0.5),
                    betweenness,
                    closeness: !betweenness || rng.gen_bool(0.5),
                });
            }
        }
        specs
    }

    fn assert_bit_identical(a: &SweepTotals, b: &SweepTotals, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.counts, b.counts, "{what}: counts");
        assert_eq!(
            a.unreachable_pairs, b.unreachable_pairs,
            "{what}: unreachable"
        );
        assert_eq!(
            bits(&a.betweenness),
            bits(&b.betweenness),
            "{what}: betweenness"
        );
        assert_eq!(bits(&a.closeness), bits(&b.closeness), "{what}: closeness");
    }

    #[test]
    fn leaf_folding_matches_the_unfolded_traversal_bit_for_bit() {
        inet_stats::rng::check(200, |rng| {
            let g = pendant_heavy(rng);
            let p = if rng.gen_bool(0.3) { 1.0 } else { 0.4 };
            let specs = heavy_specs(g.node_count(), p, rng);
            let oracle = oracle_sweep(&g, &specs, 1);
            for threads in [1, 2, 7] {
                let got = sweep(&g, &specs, threads);
                assert_bit_identical(&got, &oracle, &format!("threads {threads}"));
            }
        });
    }

    #[test]
    fn leaf_folding_matches_the_unfolded_traversal_on_stars_and_pairs() {
        // Every node a source, so leaf sources and the hub both run, with
        // every flag combination that takes the per-source path.
        let mut shapes = vec![Csr::from_edges(2, &[(0, 1)]), Csr::from_edges(3, &[])];
        for arms in [1, 2, 5, 40] {
            let edges: Vec<(usize, usize)> = (1..=arms).map(|i| (0, i)).collect();
            shapes.push(Csr::from_edges(arms + 1, &edges));
        }
        // Two stars, two pairs and two isolated nodes, hubs mid-range.
        shapes.push(Csr::from_edges(
            14,
            &[
                (3, 0),
                (3, 1),
                (3, 2),
                (9, 7),
                (9, 8),
                (9, 10),
                (4, 5),
                (11, 12),
            ],
        ));
        for g in &shapes {
            for (paths, betweenness, closeness) in [
                (true, true, true),
                (false, true, false),
                (true, false, true),
            ] {
                let specs: Vec<SourceSpec> = (0..g.node_count() as u32)
                    .map(|node| SourceSpec {
                        node,
                        paths,
                        betweenness,
                        closeness,
                    })
                    .collect();
                let oracle = oracle_sweep(g, &specs, 1);
                for threads in [1, 2, 7] {
                    let got = sweep(g, &specs, threads);
                    let what = format!("n {} threads {threads}", g.node_count());
                    assert_bit_identical(&got, &oracle, &what);
                }
            }
        }
    }

    #[test]
    fn leaf_folding_matches_the_unfolded_traversal_where_sigma_times_its_inverse_is_not_one() {
        // σ·(1/σ) rounds below 1 for σ = 49, so each folded leaf adds a
        // term just under 1 and the sums are not plain counts. Node 50 is
        // reached from node 0 over 49 shortest paths and carries 3 leaves.
        assert_ne!(49.0 * (1.0 / 49.0), 1.0);
        let mut edges: Vec<(usize, usize)> = (1..50).flat_map(|m| [(0, m), (m, 50)]).collect();
        edges.extend([(50, 51), (50, 52), (50, 53)]);
        let g = Csr::from_edges(54, &edges);
        let specs: Vec<SourceSpec> = (0..54)
            .map(|node| SourceSpec {
                node,
                paths: true,
                betweenness: true,
                closeness: true,
            })
            .collect();
        let oracle = oracle_sweep(&g, &specs, 1);
        for threads in [1, 2, 7] {
            assert_bit_identical(&sweep(&g, &specs, threads), &oracle, "σ = 49");
        }
    }

    fn path(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    fn er_graph(n: usize, p: f64, seed: u64) -> Csr {
        let mut rng = inet_stats::rng::seeded_rng(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < p {
                    edges.push((i, j));
                }
            }
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn fused_path_graph_closed_forms() {
        let g = path(6);
        let fused = paths_and_betweenness(&g, usize::MAX, usize::MAX, 1);
        // Path stats: same counts as PathStats::measure.
        assert_eq!(fused.paths.counts, vec![0, 10, 8, 6, 4, 2]);
        assert_eq!(fused.paths.diameter, 5);
        assert!(fused.paths.exact);
        // Betweenness: b(v_i) = i (n-1-i).
        for (i, &b) in fused.betweenness.iter().enumerate() {
            let expect = (i * (5 - i)) as f64;
            assert!((b - expect).abs() < 1e-9, "node {i}: {b} vs {expect}");
        }
    }

    #[test]
    fn fused_matches_unfused_two_pass() {
        // The acceptance check of the fusion: one sweep must reproduce the
        // seed's separate paths + betweenness passes.
        for (n, p, seed) in [(60, 0.08, 4u64), (40, 0.05, 9), (30, 0.3, 2)] {
            let g = er_graph(n, p, seed);
            for (kp, kb) in [(usize::MAX, usize::MAX), (17, 9), (9, 17), (5, 0)] {
                let fused = paths_and_betweenness(&g, kp, kb, 2);
                let paths = crate::paths::PathStats::measure_sampled_unfused(&g, kp);
                let bc = crate::betweenness::betweenness_sampled_unfused(&g, kb);
                assert_eq!(fused.paths.counts, paths.counts, "n {n} kp {kp}");
                assert_eq!(fused.paths.diameter, paths.diameter);
                assert_eq!(fused.paths.sources, paths.sources);
                assert_eq!(fused.paths.exact, paths.exact);
                assert!((fused.paths.mean - paths.mean).abs() < 1e-12);
                assert!((fused.paths.efficiency - paths.efficiency).abs() < 1e-9);
                for (v, (a, b)) in fused.betweenness.iter().zip(&bc).enumerate() {
                    assert!((a - b).abs() < 1e-9, "node {v}: fused {a}, unfused {b}");
                }
            }
        }
    }

    #[test]
    fn fused_matches_unfused_across_several_batches() {
        // The graphs above fit in one 64-source bit-parallel batch; these
        // source counts on ~300 nodes span several, merged at every thread
        // count.
        let g = er_graph(300, 0.02, 17);
        for (kp, kb) in [(usize::MAX, usize::MAX), (130, 70), (70, 130)] {
            let paths = crate::paths::PathStats::measure_sampled_unfused(&g, kp);
            let bc = crate::betweenness::betweenness_sampled_unfused(&g, kb);
            let one = paths_and_betweenness(&g, kp, kb, 1);
            assert_eq!(one.paths.counts, paths.counts, "kp {kp}");
            assert_eq!(one.paths.diameter, paths.diameter);
            assert_eq!(one.paths.sources, paths.sources);
            assert!((one.paths.mean - paths.mean).abs() < 1e-12);
            assert!((one.paths.efficiency - paths.efficiency).abs() < 1e-9);
            for (v, (a, b)) in one.betweenness.iter().zip(&bc).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * b.max(1.0),
                    "kb {kb} node {v}: fused {a}, unfused {b}"
                );
            }
            for threads in [2, 7] {
                let other = paths_and_betweenness(&g, kp, kb, threads);
                assert_eq!(other.paths, one.paths, "threads {threads}");
                assert_eq!(other.betweenness, one.betweenness, "threads {threads}");
            }
        }
    }

    #[test]
    fn fused_engine_on_disconnected_multi_component_graphs() {
        // The percolation engine feeds the metrics exactly these: damaged
        // graphs with several components and isolated nodes. The fused
        // sweep must stay finite, count unreachable pairs instead of
        // poisoning the means, match the unfused two-pass on every
        // component, and stay bit-identical across thread counts.
        let mut edges = vec![(0, 1), (1, 2), (2, 0)]; // triangle
        edges.extend((4..9).map(|i| (i, i + 1))); // path 4..=9
        edges.extend([(11, 12), (12, 13), (11, 13), (11, 14)]); // tailed triangle
        let g = Csr::from_edges(16, &edges); // 3, 10, 15 isolated
        for (kp, kb) in [(usize::MAX, usize::MAX), (7, 3)] {
            let fused = paths_and_betweenness(&g, kp, kb, 1);
            let paths = crate::paths::PathStats::measure_sampled_unfused(&g, kp);
            let bc = crate::betweenness::betweenness_sampled_unfused(&g, kb);
            assert_eq!(fused.paths.counts, paths.counts, "kp {kp}");
            assert_eq!(fused.paths.diameter, paths.diameter);
            assert!(fused.paths.mean.is_finite());
            assert!(fused.paths.efficiency.is_finite());
            for (v, (a, b)) in fused.betweenness.iter().zip(&bc).enumerate() {
                assert!(a.is_finite(), "node {v}");
                assert!((a - b).abs() < 1e-9, "node {v}: fused {a}, unfused {b}");
            }
            for threads in [2, 7] {
                let other = paths_and_betweenness(&g, kp, kb, threads);
                assert_eq!(other.paths, fused.paths, "threads {threads}");
                assert_eq!(other.betweenness, fused.betweenness, "threads {threads}");
            }
        }
        // Exact run: the longest path lives in the 4..=9 chain (length 5),
        // and cross-component pairs count as unreachable, not distance 0.
        let exact = paths_and_betweenness(&g, usize::MAX, usize::MAX, 1);
        assert_eq!(exact.paths.diameter, 5);
        let reachable: u64 = exact.paths.counts.iter().sum();
        assert!(
            reachable < 16 * 15,
            "cross-component pairs must be unreachable, not distance 0"
        );
        // Isolated nodes carry zero betweenness.
        for v in [3usize, 10, 15] {
            assert_eq!(exact.betweenness[v], 0.0, "isolated node {v}");
        }
    }

    #[test]
    fn union_source_sets_share_traversals() {
        // kb strides are a subset of kp strides when kp is a multiple of kb,
        // so the union must be exactly the path set.
        let (pset, _) = path_source_set(1000, 100);
        let (bset, _) = betweenness_source_set(1000, 50);
        let specs = union_specs(&pset, &bset);
        assert_eq!(
            specs.len(),
            pset.len(),
            "betweenness sources must fold into path sources"
        );
        assert_eq!(specs.iter().filter(|s| s.betweenness).count(), bset.len());
        assert!(specs.iter().all(|s| s.paths || s.betweenness));
        // Specs stay sorted and unique.
        for pair in specs.windows(2) {
            assert!(pair[0].node < pair[1].node);
        }
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let g = er_graph(80, 0.06, 12);
        let base = paths_and_betweenness(&g, 23, 11, 1);
        for threads in [2, 3, 7] {
            let other = paths_and_betweenness(&g, 23, 11, threads);
            assert_eq!(base.paths, other.paths, "threads {threads}");
            let a: Vec<u64> = base.betweenness.iter().map(|b| b.to_bits()).collect();
            let b: Vec<u64> = other.betweenness.iter().map(|b| b.to_bits()).collect();
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn degenerate_graphs() {
        let empty = paths_and_betweenness(&Csr::from_edges(0, &[]), 10, 10, 4);
        assert!(empty.paths.counts.is_empty());
        assert!(empty.betweenness.is_empty());
        let single = paths_and_betweenness(&Csr::from_edges(1, &[]), 10, 10, 4);
        assert_eq!(single.paths.mean, 0.0);
        assert_eq!(single.betweenness, vec![0.0]);
        let pair = paths_and_betweenness(&Csr::from_edges(2, &[(0, 1)]), 10, 0, 1);
        assert_eq!(pair.betweenness, vec![0.0, 0.0]);
        assert_eq!(pair.paths.counts, vec![0, 2]);
    }

    #[test]
    fn closeness_matches_star_closed_form() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let g = Csr::from_edges(6, &edges);
        for threads in [1, 3] {
            let c = closeness_values(&g, threads);
            assert!((c[0] - 1.0).abs() < 1e-12);
            for &leaf in &c[1..] {
                assert!((leaf - 5.0 / 9.0).abs() < 1e-12);
            }
        }
    }
}
