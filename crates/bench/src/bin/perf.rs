//! `perf` — machine-readable performance harness for the ASP pipeline.
//!
//! Times grounding (with work counters), solving, and end-to-end CAV/XACML
//! learning at several scales, then writes `BENCH_asp.json` (through
//! [`agenp_bench::write_bench`]) alongside a human-readable table. The JSON
//! schema is documented in `docs/PERFORMANCE.md`.
//!
//! Usage: `cargo run -p agenp-bench --bin perf --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI. Both modes exit nonzero
//! if the file is malformed or a headline counter claim regresses.

use agenp_asp::{ground, ground_with_stats, GroundOptions, GroundStats, Program, Solver};
use agenp_bench::{
    birds_program, coloring_program, fixed, print_table, time_best_of, transitive_closure_program,
    write_bench,
};
use agenp_core::scenarios::{cav, xacml};
use agenp_learn::{LearnOptions, LearnStats, Learner};
use agenp_obs::json::Json;
use std::time::Instant;

/// Ceilings on the CAV generic-path row's `rules_instantiated`, by scale:
/// half the rule instantiations that re-grounding every hypothesis from
/// scratch with the naive engine spent on the same task (14,331 at n = 12
/// and 506 at n = 4 in the last `agenp-bench/perf/v1` file). They hold
/// delta grounding to the >= 2x saving the old naive/delta ratio gate
/// enforced.
const CAV_RULES_CEILING: [(usize, u64); 2] = [(4, 253), (12, 7_165)];

/// One grounder measurement.
struct GroundRow {
    workload: &'static str,
    n: usize,
    micros: u128,
    stats: GroundStats,
    atoms: usize,
    rules: usize,
}

impl GroundRow {
    fn json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.into()),
            ("n", self.n.into()),
            ("micros", self.micros.into()),
            ("passes", self.stats.passes.into()),
            ("rules_instantiated", self.stats.rules_instantiated.into()),
            ("join_candidates", self.stats.join_candidates.into()),
            ("atoms", self.atoms.into()),
            ("rules", self.rules.into()),
        ])
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let ground_rows = run_grounding(smoke);
    let solving = run_solving(smoke);
    let (learning, (cav_n, cav_rules)) = run_learning(smoke);

    let grounding: Vec<Json> = ground_rows.iter().map(GroundRow::json).collect();
    print_table("-- grounding --", &grounding, &[]);
    print_table("\n-- solving (ground vs solve time) --", &solving, &[]);
    print_table("\n-- end-to-end learning --", &learning, &[]);

    let waste = |workload| fixed(waste_ratio(&ground_rows, workload), 3);
    write_bench(
        "perf",
        "asp",
        "agenp-bench/perf/v2",
        smoke,
        vec![
            ("grounding", Json::Arr(grounding)),
            ("solving", Json::Arr(solving)),
            ("learning", Json::Arr(learning)),
        ],
        vec![
            ("cav_generic_rules_instantiated", cav_rules.into()),
            ("ground_waste_ratio_coloring", waste("coloring")),
            (
                "ground_waste_ratio_transitive_closure",
                waste("transitive_closure"),
            ),
            ("ground_waste_ratio_birds", waste("birds")),
        ],
    );

    let ceiling = CAV_RULES_CEILING
        .iter()
        .find(|&&(n, _)| n == cav_n)
        .map(|&(_, c)| c)
        .expect("every largest CAV scale has a ceiling");
    if cav_rules > ceiling {
        eprintln!(
            "perf: CAV generic-path learning at n={cav_n} instantiated {cav_rules} rules \
             (gate: <= {ceiling}, half of what naive re-grounding spent)"
        );
        std::process::exit(1);
    }
    let tc_waste = waste_ratio(&ground_rows, "transitive_closure");
    if tc_waste > 8.0 {
        eprintln!(
            "perf: transitive-closure ground waste ratio regressed: \
             {tc_waste:.1} join candidates per instantiation (gate: <= 8.0; \
             argument-value join indices should hold this near 3)"
        );
        std::process::exit(1);
    }
    println!(
        "BENCH_asp.json validated (cav generic rule instantiations {cav_rules} <= {ceiling}, \
         tc ground waste ratio {tc_waste:.1})"
    );
}

// --- measurement -----------------------------------------------------------

/// A named workload family: label, scales to run, and the program builder.
type GroundWorkload = (&'static str, Vec<usize>, fn(usize) -> Program);

fn run_grounding(smoke: bool) -> Vec<GroundRow> {
    let workloads: Vec<GroundWorkload> = if smoke {
        vec![
            ("coloring", vec![6], coloring_program),
            ("transitive_closure", vec![12], transitive_closure_program),
            ("birds", vec![20], birds_program),
        ]
    } else {
        vec![
            ("coloring", vec![10, 20, 40], coloring_program),
            (
                "transitive_closure",
                vec![20, 40, 80],
                transitive_closure_program,
            ),
            ("birds", vec![50, 100, 200], birds_program),
        ]
    };
    let opts = GroundOptions::default();
    let mut rows = Vec::new();
    for (name, scales, build) in workloads {
        for n in scales {
            let p = build(n);
            // Warmup + best-of-3: first-touch allocation and interner costs
            // would otherwise land on the first row.
            let (micros, (g, stats)) =
                time_best_of(3, || ground_with_stats(&p, opts).expect("workload grounds"));
            rows.push(GroundRow {
                workload: name,
                n,
                micros,
                stats,
                atoms: g.atoms().len(),
                rules: g.len(),
            });
        }
    }
    rows
}

/// Join waste (candidates probed per rule actually instantiated) on the
/// largest row of `workload`. This is the figure the argument-value
/// indices exist to hold down.
fn waste_ratio(rows: &[GroundRow], workload: &str) -> f64 {
    rows.iter()
        .filter(|r| r.workload == workload)
        .max_by_key(|r| r.n)
        .map(|r| r.stats.join_candidates as f64 / r.stats.rules_instantiated.max(1) as f64)
        .unwrap_or(0.0)
}

fn run_solving(smoke: bool) -> Vec<Json> {
    let scales: &[usize] = if smoke { &[6] } else { &[6, 10, 14] };
    let solver = Solver::new();
    let mut rows = Vec::new();
    for &n in scales {
        let p = coloring_program(n);
        // Warmup + best-of-3 on both phases: the first solve row used to
        // absorb one-time costs and make larger scales read *faster* than
        // smaller ones.
        let (ground_micros, g) = time_best_of(3, || ground(&p).expect("grounds"));
        let (solve_micros, r) = time_best_of(3, || solver.solve(&g));
        rows.push(Json::obj([
            ("workload", "coloring".into()),
            ("n", n.into()),
            ("ground_micros", ground_micros.into()),
            ("solve_micros", solve_micros.into()),
            ("models", r.models().len().into()),
            ("decisions", r.stats().decisions.into()),
        ]));
    }
    rows
}

/// Runs CAV learning on the generic path (forced, so hypotheses are
/// grounded as deltas) and XACML learning under the default options.
/// Returns the rows plus the largest CAV scale and its rule
/// instantiations.
fn run_learning(smoke: bool) -> (Vec<Json>, (usize, u64)) {
    let cav_scales: &[usize] = if smoke { &[4] } else { &[4, 8, 12] };
    let xacml_scales: &[usize] = if smoke { &[20] } else { &[40, 100] };
    let generic = LearnOptions::default().with_force_generic(true);
    let mut rows = Vec::new();
    let mut cav = (0, 0);
    for &n in cav_scales {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let stats = measure_learn(&mut rows, "cav", n, "generic", generic, &task);
        cav = (n, stats.rules_instantiated);
    }
    for &n in xacml_scales {
        let log = xacml::generate_log(n, 11, 0.0);
        let task = xacml::learning_task(
            &log,
            xacml::SpaceConfig::default(),
            xacml::NoiseHandling::Filter,
        );
        measure_learn(
            &mut rows,
            "xacml",
            n,
            "default",
            LearnOptions::default(),
            &task,
        );
    }
    (rows, cav)
}

/// Learns `task` under `opts`, appends the measurement to `rows`, and
/// returns the learner's work counters.
fn measure_learn(
    rows: &mut Vec<Json>,
    workload: &str,
    n: usize,
    config: &str,
    opts: LearnOptions,
    task: &agenp_learn::LearningTask,
) -> LearnStats {
    let t = Instant::now();
    let (h, stats) = Learner::with_options(opts)
        .learn_with_stats(task)
        .expect("benchmark task is learnable");
    rows.push(Json::obj([
        ("workload", workload.into()),
        ("n", n.into()),
        ("config", config.into()),
        ("micros", t.elapsed().as_micros().into()),
        ("cost", h.cost.into()),
        ("grounding_passes", stats.grounding_passes.into()),
        ("rules_instantiated", stats.rules_instantiated.into()),
        ("solver_calls", stats.solver_calls.into()),
        ("eval_cache_hits", stats.eval_cache_hits.into()),
        ("eval_cache_misses", stats.eval_cache_misses.into()),
        ("search_nodes", stats.search_nodes.into()),
        ("used_monotone", stats.used_monotone.into()),
    ]));
    stats
}
