//! Anytime-search experiments: quality-vs-time Pareto fronts for the
//! metaheuristic placement searchers (`nfv-search`, GA + PSO).
//!
//! Three questions, three runners:
//!
//! * [`quality_vs_generations`] — how quickly does the anytime search
//!   close on (and pass) the greedy placers? The sweep reports mean nodes
//!   in service at generation checkpoints, with BFDSU/FFD/NAH as
//!   constant baselines: each row is one point of the quality-vs-time
//!   Pareto front.
//! * [`oracle_ratio`] — on instances small enough for the exact
//!   branch-and-bound oracle, how close do the searchers get to optimal?
//!   Reported as the mean `nodes used / optimal nodes` ratio, exactly as
//!   the placement experiments score the greedy placers.
//! * [`refiner_replay`] — the online counterpart: one churn trace
//!   replayed through the joint-reopt controller with and without the
//!   background refiner ([`ControllerConfig::refined`]), showing the
//!   searcher committing migration plans through the hysteresis path.
//!
//! Everything is seeded and thread-invariant: searches derive
//! per-individual streams from `(seed, generation·population + i)`, and
//! repetitions are replayed in index order.

use std::collections::BTreeSet;

use nfv_controller::{Controller, ControllerConfig};
use nfv_model::NodeId;
use nfv_parallel::{derive_seed, par_map};
use nfv_placement::{exact, PlacementProblem, Placer};
use nfv_search::{Engine, SearchConfig, SearchRun};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::churn::{self, ChurnComparison, ChurnOutcome, ChurnPoint};
use crate::experiments::placement::{build_problem, standard_placers, PlacementPoint};
use crate::experiments::Sweep;
use crate::CoreError;

/// Generation checkpoints of the quality-vs-time sweep; checkpoint 0 is
/// the seeded population (the deterministic FFD warm start plus random
/// genomes), so the first row is "zero search time spent".
pub const GENERATION_CHECKPOINTS: [usize; 6] = [0, 2, 5, 10, 20, 40];

/// The instance shape of the Pareto sweep: a mid-size placement problem
/// where the greedy placers leave a little quality on the table.
#[must_use]
pub fn pareto_point() -> PlacementPoint {
    PlacementPoint {
        nodes: 8,
        vnfs: 12,
        requests: 120,
        requests_per_instance: 10,
        fill: 0.7,
    }
}

/// The [`pareto_point`] instance for external harnesses — the `figures
/// bench` search entry times GA generations on exactly this problem.
///
/// # Errors
///
/// Propagates structural configuration errors.
pub fn bench_problem(seed: u64) -> Result<PlacementProblem, CoreError> {
    build_problem(&pareto_point(), seed)
}

/// Nodes hosting at least one VNF under `assignment`.
fn nodes_used(assignment: &[NodeId]) -> f64 {
    assignment.iter().collect::<BTreeSet<_>>().len() as f64
}

/// Steps one engine through the checkpoints, recording nodes in service
/// of the best-so-far assignment at each.
fn checkpointed_search(
    problem: &PlacementProblem,
    engine: Engine,
    seed: u64,
) -> Result<Vec<f64>, CoreError> {
    let config = match engine {
        Engine::Ga => SearchConfig::ga(seed),
        Engine::Pso => SearchConfig::pso(seed),
    };
    let mut run = SearchRun::new(problem, &config).map_err(CoreError::from)?;
    let mut at_checkpoints = Vec::with_capacity(GENERATION_CHECKPOINTS.len());
    for &checkpoint in &GENERATION_CHECKPOINTS {
        while run.generation() < checkpoint {
            run.step();
        }
        at_checkpoints.push(nodes_used(run.best_assignment()));
    }
    Ok(at_checkpoints)
}

/// The quality-vs-time Pareto front: mean nodes in service of the GA and
/// PSO incumbents at each generation checkpoint, against the (constant)
/// greedy baselines on the same instances. Repetitions are averaged; a
/// baseline that fails an instance is excluded from that repetition's
/// average.
///
/// # Errors
///
/// Propagates structural configuration errors.
pub fn quality_vs_generations(repetitions: u64, base_seed: u64) -> Result<Sweep, CoreError> {
    let point = pareto_point();
    let placers = standard_placers();
    let mut series: Vec<String> = vec!["ga".into(), "pso".into()];
    series.extend(placers.iter().map(|p| p.name().to_owned()));
    let mut sweep = Sweep::new("generations", series);

    // One row of per-checkpoint engine quality + baseline quality per
    // repetition, folded in repetition order.
    let mut ga = vec![0.0f64; GENERATION_CHECKPOINTS.len()];
    let mut pso = vec![0.0f64; GENERATION_CHECKPOINTS.len()];
    let mut baselines = vec![(0.0f64, 0u64); placers.len()];
    for rep in 0..repetitions {
        let seed = derive_seed(base_seed, rep);
        let problem = build_problem(&point, seed)?;
        let ga_row = checkpointed_search(&problem, Engine::Ga, derive_seed(seed, 1))?;
        let pso_row = checkpointed_search(&problem, Engine::Pso, derive_seed(seed, 2))?;
        for (acc, value) in ga.iter_mut().zip(&ga_row) {
            *acc += value;
        }
        for (acc, value) in pso.iter_mut().zip(&pso_row) {
            *acc += value;
        }
        for (i, placer) in placers.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3 + i as u64));
            if let Ok(outcome) = placer.place(&problem, &mut rng) {
                baselines[i].0 += outcome.placement().nodes_in_service() as f64;
                baselines[i].1 += 1;
            }
        }
    }
    let reps = repetitions.max(1) as f64;
    let baseline_means: Vec<f64> = baselines
        .iter()
        .map(|&(sum, n)| if n > 0 { sum / n as f64 } else { f64::NAN })
        .collect();
    for (c, &checkpoint) in GENERATION_CHECKPOINTS.iter().enumerate() {
        let mut values = vec![ga[c] / reps, pso[c] / reps];
        values.extend(baseline_means.iter().copied());
        sweep.push(checkpoint as f64, values);
    }
    Ok(sweep)
}

/// Searcher optimality on small instances: mean `nodes used / optimal
/// nodes` for GA and PSO (after [`ORACLE_GENERATIONS`] generations) with
/// BFDSU for context,
/// over the same 5-node instances the placement experiments solve
/// exactly. A ratio of 1.0 means the searcher matched the
/// branch-and-bound oracle on every repetition.
///
/// # Errors
///
/// Propagates structural configuration errors.
pub fn oracle_ratio(repetitions: u64, base_seed: u64) -> Result<Sweep, CoreError> {
    oracle_ratio_with(repetitions, base_seed, ORACLE_GENERATIONS)
}

/// Generation budget of [`oracle_ratio`]: enough for both engines to
/// close on the branch-and-bound optimum on every 5-node instance.
pub const ORACLE_GENERATIONS: usize = 60;

fn oracle_ratio_with(
    repetitions: u64,
    base_seed: u64,
    generations: usize,
) -> Result<Sweep, CoreError> {
    let mut sweep = Sweep::new("vnfs", vec!["ga".into(), "pso".into(), "bfdsu".into()]);
    let bfdsu = nfv_placement::Bfdsu::new();
    for vnfs in [5usize, 6, 7, 8] {
        let point = PlacementPoint {
            nodes: 5,
            vnfs,
            requests: 60,
            requests_per_instance: 10,
            fill: 0.7,
        };
        let mut sums = [0.0f64; 3];
        let mut counted = 0u64;
        for rep in 0..repetitions {
            let seed = derive_seed(base_seed, rep);
            let problem = build_problem(&point, seed)?;
            let Some(opt) = exact::optimal_node_count(&problem) else {
                continue;
            };
            let opt = opt.max(1) as f64;
            let ga = nfv_search::search(
                &problem,
                &SearchConfig::ga(derive_seed(seed, 1)),
                generations,
            )
            .map_err(CoreError::from)?;
            let pso = nfv_search::search(
                &problem,
                &SearchConfig::pso(derive_seed(seed, 2)),
                generations,
            )
            .map_err(CoreError::from)?;
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
            let Ok(greedy) = bfdsu.place(&problem, &mut rng) else {
                continue;
            };
            sums[0] += nodes_used(ga.best_assignment()) / opt;
            sums[1] += nodes_used(pso.best_assignment()) / opt;
            sums[2] += greedy.placement().nodes_in_service() as f64 / opt;
            counted += 1;
        }
        let n = counted.max(1) as f64;
        sweep.push(vnfs as f64, sums.iter().map(|s| s / n).collect());
    }
    Ok(sweep)
}

/// Replays one churn trace through the resilient controller with and
/// without the background refiner — [`ControllerConfig::refined`] differs
/// from [`ControllerConfig::resilient`] by exactly that one knob, so any
/// delta between the rows is the searcher's doing. The refined policy's
/// report carries the searcher's committed/rejected plan counts
/// ([`nfv_controller::ControllerReport::refines_applied`]).
///
/// # Errors
///
/// Propagates scenario/trace construction errors.
pub fn refiner_replay(seed: u64) -> Result<ChurnComparison, CoreError> {
    let point = ChurnPoint::base();
    let (scenario, trace) = churn::setup(&point, seed)?;
    let (nodes, placement) = churn::setup_cluster(&point, seed, &scenario)?;
    let controllers: Vec<(&str, Controller)> = vec![
        (
            "resilient",
            Controller::with_cluster(
                &scenario,
                nodes.clone(),
                &placement,
                ControllerConfig::resilient(),
            )?,
        ),
        (
            "refined",
            Controller::with_cluster(&scenario, nodes, &placement, ControllerConfig::refined())?,
        ),
    ];
    let outcomes = par_map(controllers, |_, (name, mut controller)| ChurnOutcome {
        policy: name.to_string(),
        report: controller.run_stream(trace.events().iter().cloned(), trace.horizon()),
    })
    .map_err(CoreError::from)?;
    Ok(ChurnComparison {
        point,
        seed,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_front_is_monotone_and_reaches_the_best_baseline() {
        let sweep = quality_vs_generations(2, 42).unwrap();
        assert_eq!(sweep.rows().len(), GENERATION_CHECKPOINTS.len());
        for name in ["ga", "pso"] {
            let values = sweep.series_values(name).unwrap();
            for pair in values.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-9, "{name} must not regress");
            }
        }
        let best_baseline = ["bfdsu", "ffd", "nah"]
            .iter()
            .map(|n| sweep.series_values(n).unwrap()[0])
            .fold(f64::INFINITY, f64::min);
        let ga_final = *sweep.series_values("ga").unwrap().last().unwrap();
        assert!(
            ga_final <= best_baseline + 1e-9,
            "40 GA generations must match or beat the best greedy placer: \
             {ga_final} vs {best_baseline}"
        );
    }

    #[test]
    fn searchers_match_the_oracle_on_small_instances() {
        let sweep = oracle_ratio(3, 5).unwrap();
        for name in ["ga", "pso", "bfdsu"] {
            for &ratio in &sweep.series_values(name).unwrap() {
                assert!(ratio >= 1.0 - 1e-9, "{name} below optimal: {ratio}");
            }
        }
        let ga = sweep.series_mean("ga").unwrap();
        let bfdsu = sweep.series_mean("bfdsu").unwrap();
        assert!(
            ga <= 1.0 + 1e-9,
            "GA must match the exact oracle on small instances: {ga}"
        );
        assert!(ga <= bfdsu + 1e-9, "GA {ga} worse than BFDSU {bfdsu}");
    }

    #[test]
    fn refiner_replay_commits_searched_plans_at_seed_42() {
        let comparison = refiner_replay(42).unwrap();
        let baseline = &comparison.outcome("resilient").unwrap().report;
        let refined = &comparison.outcome("refined").unwrap().report;
        assert_eq!(baseline.refines_applied + baseline.refines_rejected, 0);
        assert!(
            refined.refines_applied >= 1,
            "the refiner must commit at least one searched plan: {refined}"
        );
        assert!(
            refined.mean_latency.is_finite() && refined.peak_utilization < 1.0,
            "refinement must not destabilize the run"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(
            quality_vs_generations(2, 3).unwrap(),
            quality_vs_generations(2, 3).unwrap()
        );
        assert_eq!(refiner_replay(7).unwrap(), refiner_replay(7).unwrap());
    }
}
