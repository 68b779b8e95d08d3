//! The Serrano–Boguñá–Díaz-Guilera competition–adaptation model
//! (PRL 94, 038701 (2005)) — a weighted growing network driven by demand
//! and supply.
//!
//! The Internet is modeled as ASs competing for a growing pool of users and
//! adapting their bandwidth to serve them:
//!
//! 1. **Demand growth** — `ΔW(t)` new users join and pick providers by
//!    linear preference `Π_i = ω_i / W`.
//! 2. **Node birth** — `ΔN(t)` new ASs appear, each taking `ω₀` users
//!    withdrawn from the pool; placed on a fractal geography when the
//!    distance constraint is on.
//! 3. **Adaptation** — each AS targets bandwidth
//!    `b_i = 1 + a(t)(ω_i − ω₀)` with `a(t) = (2B(t) − N)/(W − ω₀N)`,
//!    where `B(t) = B₀e^{δ′t}` tracks global traffic.
//! 4. **Matching** — deficit-weighted peers pair up; distance acceptance
//!    `exp(−d_ij/d_c)` with `d_c = ω_i ω_j/(κW)` suppresses long links
//!    between small peers; reinforcement probability `r` trades
//!    multi-links against partner diversity.
//!
//! The run history (`W`, `N`, `E`, `B` per iteration) is recorded so growth
//! analyses (Fig. 1) and loop-scaling sweeps (Fig. 4) can read intermediate
//! states.

mod matching;
mod params;
mod users;

pub use matching::{match_deficits, MatchStats};
pub use params::{DistanceConstraint, SerranoParams};
pub use users::UserPool;

use crate::{GeneratedNetwork, Generator, ModelError};
use inet_graph::{MultiGraph, NodeId};
use inet_spatial::{FractalSet, Point2};
use inet_stats::rng::StdRng;

/// One iteration's aggregate state, recorded for growth analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthRecord {
    /// Iteration ("month").
    pub t: u32,
    /// Total users.
    pub users: f64,
    /// Node count.
    pub nodes: usize,
    /// Distinct edges.
    pub edges: usize,
    /// Total bandwidth (sum of multiplicities).
    pub bandwidth: u64,
}

/// Full output of a model run.
#[derive(Debug, Clone)]
pub struct SerranoRun {
    /// The generated network (graph + positions + user counts).
    pub network: GeneratedNetwork,
    /// Aggregate state per iteration.
    pub history: Vec<GrowthRecord>,
    /// Iterations executed.
    pub iterations: u32,
    /// Every matching round's counters, summed: pair draws, rejected draws
    /// (and those rejected on a bound, and on the storm bound), new edges,
    /// reinforcements, and each round's unmet deficit.
    pub matching: MatchStats,
}

/// The competition–adaptation generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerranoModel {
    /// Model parameters.
    pub params: SerranoParams,
}

impl SerranoModel {
    /// Creates the model, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics on incoherent parameters; [`SerranoModel::try_new`] is the
    /// panic-free form.
    pub fn new(params: SerranoParams) -> Self {
        params.validate();
        SerranoModel { params }
    }

    /// Creates the model, rejecting incoherent parameters with a typed
    /// error.
    pub fn try_new(params: SerranoParams) -> Result<Self, ModelError> {
        params.try_validate()?;
        Ok(SerranoModel { params })
    }

    /// Paper parameterization with the distance constraint.
    pub fn paper_2001() -> Self {
        Self::new(SerranoParams::paper_2001())
    }

    /// Paper parameterization without the distance constraint.
    pub fn paper_2001_no_distance() -> Self {
        Self::new(SerranoParams::paper_2001_no_distance())
    }

    /// Runs the model to `target_n` nodes, returning the full run record.
    pub fn run(&self, rng: &mut StdRng) -> SerranoRun {
        let p = &self.params;
        // Geography: a fixed fractal support for the whole run (the
        // environment's geography does not change as the network grows).
        let (cells, fractal) = match p.distance {
            Some(d) => {
                let f = FractalSet::new(d.fractal_dimension, d.depth);
                (Some(f.generate_cells(rng)), Some(f))
            }
            None => (None, None),
        };
        let mut positions: Vec<Point2> = Vec::new();
        let place = |n: usize, rng: &mut StdRng, positions: &mut Vec<Point2>| {
            if let (Some(cells), Some(f)) = (&cells, &fractal) {
                positions.extend(f.place_points(cells, n, rng));
            }
        };

        let mut pool = UserPool::new(p.n0, p.omega0);
        let mut g = MultiGraph::with_capacity(p.target_n + 16);
        g.add_nodes(p.n0);
        place(p.n0, rng, &mut positions);

        // Distance-kernel cost density: kappa0 = omega0 / (n0 * sqrt(2)),
        // scaled by the user's kappa_scale. Chosen so that at t = 0 two
        // seed-sized ASs have d_c equal to the domain diagonal.
        let kappa = p
            .distance
            .map(|d| d.kappa_scale * p.omega0 / (p.n0 as f64 * std::f64::consts::SQRT_2));

        let mut history: Vec<GrowthRecord> = vec![GrowthRecord {
            t: 0,
            users: pool.total(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            bandwidth: g.total_weight(),
        }];

        let mut deficits: Vec<f64> = Vec::new();
        let mut matching = MatchStats::default();
        let mut t: u32 = 0;
        // Birth reserve: users collected smoothly each iteration (the
        // continuum −βω₀ levy) and spent ω₀ at a time when a node is born.
        // Without the smoothing, the rare early births would hit the tiny
        // seed population with ω₀-sized slugs and make the oldest nodes'
        // trajectories path-dependent, breaking the Eq. (3) comparison.
        let mut reserve = 0.0f64;
        let mut max_node_target = p.n0 as f64;
        // Hard cap: generous multiple of the analytic horizon.
        let max_iters = p.horizon().saturating_mul(3).max(16);

        while g.node_count() < p.target_n && t < max_iters {
            t += 1;
            let tf = t as f64;

            // (1) demand growth.
            let delta_w = p.users_at(tf) - pool.total() - reserve;
            pool.grow_with_preference(delta_w.max(0.0), p.theta, p.stochastic_users, rng);

            // (3 of the rules list) user reallocation (diffusion only).
            pool.reallocate(p.lambda, p.stochastic_users, rng);

            // (2) node birth: levy the expected birth mass, then spawn as
            // many ω₀-funded nodes as the schedule and the reserve allow.
            let node_target = p.nodes_at(tf);
            let expected_births = node_target - max_node_target;
            max_node_target = node_target;
            reserve += pool.levy(expected_births.max(0.0) * p.omega0);
            while (g.node_count() as f64) < node_target.floor()
                && reserve >= p.omega0
                && g.node_count() < p.target_n
            {
                pool.add_node_funded(p.omega0);
                reserve -= p.omega0;
                g.add_node();
                place(1, rng, &mut positions);
            }

            // (4) adaptation: bandwidth targets and deficits.
            let n = g.node_count();
            let w = pool.total();
            let big_b = p.bandwidth_at(tf);
            let denom = w - p.omega0 * n as f64;
            let a = if denom > 1e-9 {
                ((2.0 * big_b - n as f64) / denom).max(0.0)
            } else {
                (2.0 * big_b / w).max(0.0)
            };
            deficits.clear();
            deficits.resize(n, 0.0);
            for (i, d) in deficits.iter_mut().enumerate() {
                let target = 1.0 + a * (pool.users(i) - p.omega0);
                let current = g.strength(NodeId::new(i)) as f64;
                *d = (target - current).max(0.0);
            }

            // Matching with the distance kernel (or always-accept).
            let total_deficit: f64 = deficits.iter().sum();
            let budget =
                (p.max_attempts_factor as u64).saturating_mul(total_deficit.ceil() as u64 + 2);
            let (pos, users) = (&positions, &pool);
            let kernel = kappa.map(|kappa| {
                move |i: usize, j: usize| {
                    let d = pos[i].dist(&pos[j]);
                    let dc = users.users(i) * users.users(j) / (kappa * w);
                    (-d / dc.max(1e-12)).exp()
                }
            });
            let prob = kernel.as_ref().map(|f| f as &dyn Fn(usize, usize) -> f64);
            let round = match_deficits(&mut g, &mut deficits, p.r, budget, rng, prob);
            matching.attempts += round.attempts;
            matching.rejected += round.rejected;
            matching.bounded += round.bounded;
            matching.stormed += round.stormed;
            matching.new_edges += round.new_edges;
            matching.reinforcements += round.reinforcements;
            matching.leftover += round.leftover;

            history.push(GrowthRecord {
                t,
                users: pool.total(),
                nodes: g.node_count(),
                edges: g.edge_count(),
                bandwidth: g.total_weight(),
            });
        }

        let users = pool.as_slice().to_vec();
        SerranoRun {
            network: GeneratedNetwork {
                graph: g,
                positions: if positions.is_empty() {
                    None
                } else {
                    Some(positions)
                },
                users: Some(users),
                name: self.name(),
            },
            history,
            iterations: t,
            matching,
        }
    }
}

impl Generator for SerranoModel {
    fn name(&self) -> String {
        let dist = if self.params.distance.is_some() {
            "dist"
        } else {
            "nodist"
        };
        format!("Serrano r={:.1} {dist}", self.params.r)
    }

    fn validate(&self) -> Result<(), ModelError> {
        self.params.try_validate()
    }

    fn generate(&self, rng: &mut StdRng) -> GeneratedNetwork {
        self.run(rng).network
    }
}

/// Shared schema for both Serrano registry entries; defaults come from
/// [`SerranoParams::paper_2001`] scaled by the caller-provided `n`
/// (i.e. the historical `SerranoParams::small(n)` CLI parameterization).
fn serrano_schema(distance_default: bool) -> Vec<crate::registry::ParamSpec> {
    use crate::registry::{p_bool, p_float, p_int, p_n};
    let d = DistanceConstraint::default();
    let p = SerranoParams::paper_2001();
    vec![
        p_n(),
        p_float("omega0", "users brought by each new node", p.omega0),
        p_int("n0", "seed node count", p.n0 as i64),
        p_float("b0", "seed total bandwidth", p.b0),
        p_float("alpha", "user growth rate per iteration", p.alpha),
        p_float("beta", "node growth rate per iteration", p.beta),
        p_float(
            "delta_prime",
            "bandwidth growth rate per iteration",
            p.delta_prime,
        ),
        p_float("lambda", "user reallocation (diffusion) rate", p.lambda),
        p_float("r", "parallel-unit reinforcement probability", p.r),
        p_float("theta", "preference-kernel exponent", p.theta),
        p_bool(
            "distance",
            "apply the fractal distance constraint",
            distance_default,
        ),
        p_float(
            "fractal_dimension",
            "fractal dimension of the placement set",
            d.fractal_dimension,
        ),
        p_int("depth", "fractal subdivision depth", i64::from(d.depth)),
        p_float(
            "kappa_scale",
            "cost-density multiplier of the distance kernel",
            d.kappa_scale,
        ),
        p_bool(
            "stochastic_users",
            "model user-dynamics noise",
            p.stochastic_users,
        ),
        p_int(
            "max_attempts_factor",
            "matching-loop attempt budget factor",
            p.max_attempts_factor as i64,
        ),
    ]
}

/// Builds a [`SerranoModel`] from resolved registry parameters.
fn serrano_build(p: &crate::registry::Params) -> Result<Box<dyn Generator>, ModelError> {
    let distance = if p.bool("distance")? {
        Some(DistanceConstraint {
            fractal_dimension: p.f64("fractal_dimension")?,
            depth: p.u32("depth")?,
            kappa_scale: p.f64("kappa_scale")?,
        })
    } else {
        None
    };
    let params = SerranoParams {
        omega0: p.f64("omega0")?,
        n0: p.usize("n0")?,
        b0: p.f64("b0")?,
        alpha: p.f64("alpha")?,
        beta: p.f64("beta")?,
        delta_prime: p.f64("delta_prime")?,
        lambda: p.f64("lambda")?,
        r: p.f64("r")?,
        theta: p.f64("theta")?,
        target_n: p.usize("n")?,
        distance,
        stochastic_users: p.bool("stochastic_users")?,
        max_attempts_factor: p.usize("max_attempts_factor")?,
    };
    Ok(Box::new(SerranoModel::try_new(params)?))
}

/// Registry entry: the CLI's `serrano` model (distance constraint on).
pub(crate) fn registry_entry() -> crate::registry::ModelSpec {
    crate::registry::ModelSpec {
        name: "serrano",
        summary: "Serrano-Boguna-Diaz-Guilera user-driven AS growth, with the fractal distance constraint",
        schema: serrano_schema(true),
        build: serrano_build,
    }
}

/// Registry entry: the CLI's `serrano-nodist` model (distance constraint
/// off — the paper's dashed-line variant).
pub(crate) fn registry_entry_nodist() -> crate::registry::ModelSpec {
    crate::registry::ModelSpec {
        name: "serrano-nodist",
        summary: "Serrano user-driven AS growth without the distance constraint",
        schema: serrano_schema(false),
        build: serrano_build,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    fn small_run(target: usize, seed: u64, distance: bool) -> SerranoRun {
        let mut params = SerranoParams::small(target);
        if !distance {
            params.distance = None;
        }
        SerranoModel::new(params).run(&mut seeded_rng(seed))
    }

    #[test]
    fn reaches_target_size() {
        let run = small_run(500, 1, false);
        assert!(run.network.graph.node_count() >= 500);
        assert!(run.iterations > 0);
        assert_eq!(run.history.len() as u32, run.iterations + 1);
    }

    #[test]
    fn history_is_monotone_growth() {
        let run = small_run(400, 2, false);
        for w in run.history.windows(2) {
            assert!(w[1].users >= w[0].users);
            assert!(w[1].nodes >= w[0].nodes);
            assert!(w[1].bandwidth >= w[0].bandwidth);
        }
    }

    #[test]
    fn user_conservation() {
        let run = small_run(300, 3, false);
        let users = run.network.users.as_ref().unwrap();
        let sum: f64 = users.iter().sum();
        let last = run.history.last().unwrap();
        assert!((sum - last.users).abs() < 1e-6 * sum);
        assert!(users.iter().all(|&u| u > 0.0));
    }

    #[test]
    fn bandwidth_tracks_prescription() {
        let run = small_run(600, 4, false);
        let p = SerranoParams::small(600);
        let last = run.history.last().unwrap();
        let prescribed = p.bandwidth_at(last.t as f64);
        let ratio = last.bandwidth as f64 / prescribed;
        assert!(
            (0.5..1.5).contains(&ratio),
            "bandwidth {} vs prescribed {prescribed}",
            last.bandwidth
        );
    }

    #[test]
    fn multi_edges_exist() {
        let run = small_run(800, 5, false);
        let g = &run.network.graph;
        assert!(
            g.total_weight() > g.edge_count() as u64,
            "the model must produce multiple connections"
        );
    }

    #[test]
    fn heavy_tailed_degrees() {
        let run = small_run(2000, 6, false);
        let degrees: Vec<u64> = run
            .network
            .graph
            .degrees()
            .iter()
            .map(|&d| d as u64)
            .collect();
        let max = *degrees.iter().max().unwrap();
        assert!(
            max as f64 > 0.05 * 2000.0,
            "max degree {max}: no hub emerged"
        );
    }

    #[test]
    fn distance_variant_produces_positions() {
        let run = small_run(300, 7, true);
        let pos = run.network.positions.as_ref().expect("positions recorded");
        assert_eq!(pos.len(), run.network.graph.node_count());
        let no_dist = small_run(300, 7, false);
        assert!(no_dist.network.positions.is_none());
    }

    #[test]
    fn users_correlate_with_strength() {
        let run = small_run(1000, 8, false);
        let g = &run.network.graph;
        let users = run.network.users.as_ref().unwrap();
        // Rank correlation proxy: the max-user node should be near the max
        // strength.
        let max_user = (0..g.node_count())
            .max_by(|&a, &b| users[a].partial_cmp(&users[b]).unwrap())
            .unwrap();
        let strengths = g.strengths();
        let max_strength = *strengths.iter().max().unwrap();
        assert!(
            strengths[max_user] as f64 >= 0.5 * max_strength as f64,
            "biggest AS is not among the best connected"
        );
    }

    #[test]
    fn matching_counters_account_for_every_edge_and_unit() {
        for distance in [false, true] {
            let run = small_run(600, 11, distance);
            let g = &run.network.graph;
            let m = run.matching;
            // The seed graph has no edges: matching made every one of them.
            assert_eq!(m.new_edges, g.edge_count() as u64, "distance {distance}");
            assert_eq!(
                m.new_edges + m.reinforcements,
                g.total_weight(),
                "distance {distance}"
            );
            assert!(m.stormed <= m.bounded, "distance {distance}");
            assert!(m.bounded <= m.rejected, "distance {distance}");
            assert!(m.rejected <= m.attempts, "distance {distance}");
            // A draw that is not rejected connects its pair with one unit or
            // more, and makes at most one new edge.
            let connected = m.attempts - m.rejected;
            assert!(m.new_edges <= connected, "distance {distance}");
            assert!(
                connected <= m.new_edges + m.reinforcements,
                "distance {distance}"
            );
            if distance {
                assert!(m.stormed > 0, "no storm at n = 600");
            } else {
                assert_eq!(m.rejected, 0);
            }
        }
    }

    /// FNV-1a 64 of the edge list (u, v, multiplicity as little-endian
    /// u64s) and the pair draws, rejected draws and draws rejected on a
    /// bound.
    type Pin = (u64, u64, u64, u64);

    fn pin(run: &SerranoRun) -> Pin {
        let mut h = inet_exec::durable::Fnv64::default();
        for (u, v, w) in run.network.graph.edges() {
            h.write_u64(u.index() as u64);
            h.write_u64(v.index() as u64);
            h.write_u64(w);
        }
        let m = run.matching;
        (h.finish(), m.attempts, m.rejected, m.bounded)
    }

    #[test]
    fn edge_lists_and_draw_counts_are_pinned() {
        // Known answers for `small(2000)`. A change to the random stream or
        // to any draw's outcome moves them; update them only on purpose.
        let pinned: [(bool, u64, Pin); 6] = [
            (true, 1, (0xee83_0b01_1959_792c, 559_167, 551_793, 539_660)),
            (
                true,
                2,
                (0xee64_0f12_975d_d616, 1_402_884, 1_395_537, 1_368_392),
            ),
            (
                true,
                3,
                (0xab4e_4763_48d8_bae8, 1_194_005, 1_186_669, 1_162_692),
            ),
            (false, 1, (0xa5b3_91e6_14b3_127e, 7_275, 0, 0)),
            (false, 2, (0x3a7e_ea58_0c02_e516, 7_321, 0, 0)),
            (false, 3, (0x5729_0cd9_bcbe_d11e, 7_327, 0, 0)),
        ];
        for (distance, seed, want) in pinned {
            let run = small_run(2000, seed, distance);
            assert_eq!(pin(&run), want, "distance {distance} seed {seed}");
        }
    }

    #[test]
    #[ignore = "paper scale; run in release with --ignored"]
    fn paper_scale_edge_lists_and_draw_counts_are_pinned() {
        // Known answers for `paper_2001` (n = 11 000), where the storms
        // still hold many active nodes. Same encoding as above.
        let pinned: [(u64, Pin); 3] = [
            (
                1,
                (0xdd9e_2e39_9a3a_ad69, 15_746_677, 15_690_070, 13_924_826),
            ),
            (
                2,
                (0x202d_2651_8d25_4abb, 16_738_484, 16_682_573, 12_942_709),
            ),
            (
                3,
                (0x09b0_af4d_d58e_e521, 16_500_108, 16_443_689, 12_656_005),
            ),
        ];
        for (seed, want) in pinned {
            let run = SerranoModel::paper_2001().run(&mut seeded_rng(seed));
            assert_eq!(pin(&run), want, "seed {seed}");
        }
    }

    #[test]
    fn determinism() {
        let a = small_run(300, 9, true);
        let b = small_run(300, 9, true);
        assert_eq!(a.network.graph, b.network.graph);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn giant_component_dominates() {
        let run = small_run(1500, 10, false);
        let csr = run.network.graph.to_csr();
        assert!(
            inet_graph::traversal::giant_fraction(&csr) > 0.9,
            "network fragmented"
        );
    }
}
