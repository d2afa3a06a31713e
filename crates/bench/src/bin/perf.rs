//! `perf` — machine-readable performance harness for the ASP pipeline.
//!
//! Times grounding (semi-naive vs the retained naive reference, with work
//! counters), solving, and end-to-end CAV/XACML learning at several scales,
//! then writes `BENCH_asp.json` at the repository root alongside a
//! human-readable table. The JSON schema is documented in
//! `docs/PERFORMANCE.md`.
//!
//! Usage: `cargo run -p agenp-bench --bin perf --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI, re-reads the emitted JSON
//! through a validating parser, and exits nonzero if the file is malformed
//! or a headline counter claim regresses.

use agenp_asp::{ground_with_stats, GroundMode, GroundOptions, GroundStats, Program, Solver};
use agenp_bench::{birds_program, coloring_program, time_best_of, transitive_closure_program};
use agenp_core::scenarios::{cav, xacml};
use agenp_learn::{CompileOptions, LearnOptions, LearnStats, Learner};
use std::path::PathBuf;
use std::time::Instant;

/// One grounder measurement.
struct GroundRow {
    workload: &'static str,
    n: usize,
    engine: &'static str,
    micros: u128,
    stats: GroundStats,
    atoms: usize,
    rules: usize,
}

/// One solver measurement (grounding and solving timed separately).
struct SolveRow {
    workload: &'static str,
    n: usize,
    ground_micros: u128,
    solve_micros: u128,
    models: usize,
    decisions: u64,
}

/// One end-to-end learning measurement.
struct LearnRow {
    workload: &'static str,
    n: usize,
    config: &'static str,
    micros: u128,
    cost: u64,
    stats: LearnStats,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let ground_rows = run_grounding(smoke);
    let solve_rows = run_solving(smoke);
    let (learn_rows, cav_ratio) = run_learning(smoke);

    print_tables(&ground_rows, &solve_rows, &learn_rows, cav_ratio);

    let tc_waste = waste_ratio(&ground_rows, "transitive_closure");
    let json = render_json(smoke, &ground_rows, &solve_rows, &learn_rows, cav_ratio);
    let path = output_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());

    // Re-read and validate what actually landed on disk.
    let on_disk = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf: cannot re-read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = agenp_pdpd::json::parse(&on_disk) {
        eprintln!("perf: BENCH_asp.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    for key in ["\"grounding\"", "\"solving\"", "\"learning\"", "\"claims\""] {
        if !on_disk.contains(key) {
            eprintln!("perf: BENCH_asp.json is missing the {key} section");
            std::process::exit(1);
        }
    }
    if cav_ratio < 2.0 {
        eprintln!(
            "perf: CAV delta grounding must instantiate >= 2x fewer rules than \
             naive re-grounding (measured ratio {cav_ratio:.2})"
        );
        std::process::exit(1);
    }
    if tc_waste > 8.0 {
        eprintln!(
            "perf: transitive-closure ground waste ratio regressed: \
             {tc_waste:.1} join candidates per instantiation (gate: <= 8.0; \
             argument-value join indices should hold this near 4)"
        );
        std::process::exit(1);
    }
    println!(
        "BENCH_asp.json validated (cav naive/delta instantiation ratio {cav_ratio:.1}x, \
         tc ground waste ratio {tc_waste:.1})"
    );
}

/// `BENCH_asp.json` lives at the repository root regardless of the cwd
/// cargo chose for the binary.
fn output_path() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join("BENCH_asp.json"),
        Err(_) => PathBuf::from("BENCH_asp.json"),
    }
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
    let serial = GroundOptions::default().with_parallelism(1);
    let mut rows = Vec::new();
    for (name, scales, build) in workloads {
        let max_n = *scales.last().expect("workloads have scales");
        for n in scales {
            let p = build(n);
            // Warmup + best-of-3: first-touch allocation and interner costs
            // used to make the first seminaive row measure *slower* than
            // naive on small programs.
            let (micros, (g, stats)) = time_best_of(3, || {
                ground_with_stats(&p, serial).expect("workload grounds")
            });
            let serial_render = g.to_string();
            rows.push(GroundRow {
                workload: name,
                n,
                engine: "seminaive",
                micros,
                stats,
                atoms: g.atoms().len(),
                rules: g.len(),
            });
            let (micros, (g, stats)) = time_best_of(3, || {
                ground_with_stats(&p, serial.with_mode(GroundMode::Naive))
                    .expect("workload grounds")
            });
            rows.push(GroundRow {
                workload: name,
                n,
                engine: "naive",
                micros,
                stats,
                atoms: g.atoms().len(),
                rules: g.len(),
            });
            // At the top scale, run the work-stealing pool configuration and
            // hold it to byte-identical output (thread scaling itself is
            // read against the `cpus` claim, as BENCH_pdp.json does).
            if n == max_n {
                let pooled = GroundOptions::default()
                    .with_parallelism(4)
                    .with_parallel_grain(16);
                let (micros, (g, stats)) = time_best_of(3, || {
                    ground_with_stats(&p, pooled).expect("workload grounds")
                });
                assert_eq!(
                    g.to_string(),
                    serial_render,
                    "parallel grounding must be byte-identical to serial ({name} n={n})"
                );
                rows.push(GroundRow {
                    workload: name,
                    n,
                    engine: "seminaive_t4",
                    micros,
                    stats,
                    atoms: g.atoms().len(),
                    rules: g.len(),
                });
            }
        }
    }
    rows
}

/// Join waste (candidates probed per rule actually instantiated) on the
/// largest serial semi-naive row of `workload`. This is the figure the
/// argument-value indices exist to hold down.
fn waste_ratio(rows: &[GroundRow], workload: &str) -> f64 {
    rows.iter()
        .filter(|r| r.workload == workload && r.engine == "seminaive")
        .max_by_key(|r| r.n)
        .map(|r| r.stats.join_candidates as f64 / r.stats.rules_instantiated.max(1) as f64)
        .unwrap_or(0.0)
}

fn run_solving(smoke: bool) -> Vec<SolveRow> {
    let scales: &[usize] = if smoke { &[6] } else { &[6, 10, 14] };
    let solver = Solver::new();
    let mut rows = Vec::new();
    for &n in scales {
        let p = coloring_program(n);
        // Warmup + best-of-3 on both phases: the first solve row used to
        // absorb one-time costs and make larger scales read *faster* than
        // smaller ones.
        let (ground_micros, g) = time_best_of(3, || {
            let (g, _) = ground_with_stats(&p, GroundOptions::default().with_parallelism(1))
                .expect("grounds");
            g
        });
        let (solve_micros, r) = time_best_of(3, || solver.solve(&g));
        rows.push(SolveRow {
            workload: "coloring",
            n,
            ground_micros,
            solve_micros,
            models: r.models().len(),
            decisions: r.stats().decisions,
        });
    }
    rows
}

/// Runs CAV and XACML learning under the default configuration (delta
/// grounding + evaluation memo) and the ablation (naive re-grounding, no
/// memo). Returns the rows plus the headline naive/delta rule-instantiation
/// ratio on the largest CAV scale.
fn run_learning(smoke: bool) -> (Vec<LearnRow>, f64) {
    let cav_scales: &[usize] = if smoke { &[4] } else { &[4, 8, 12] };
    let xacml_scales: &[usize] = if smoke { &[20] } else { &[40, 100] };
    let delta_opts = LearnOptions::default().with_force_generic(true);
    let naive_opts = LearnOptions::default()
        .with_force_generic(true)
        .with_eval_cache(false)
        .with_compile(CompileOptions::default().with_naive_ground(true));
    let mut rows = Vec::new();
    let mut ratio = 0.0;
    for &n in cav_scales {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let delta = measure_learn("cav", n, "delta_cached", delta_opts, &task);
        let naive = measure_learn("cav", n, "naive_uncached", naive_opts, &task);
        let delta_work = delta.stats.rules_instantiated.max(1);
        ratio = naive.stats.rules_instantiated as f64 / delta_work as f64;
        rows.push(delta);
        rows.push(naive);
    }
    for &n in xacml_scales {
        let log = xacml::generate_log(n, 11, 0.0);
        let task = xacml::learning_task(
            &log,
            xacml::SpaceConfig::default(),
            xacml::NoiseHandling::Filter,
        );
        rows.push(measure_learn(
            "xacml",
            n,
            "default",
            LearnOptions::default(),
            &task,
        ));
        rows.push(measure_learn(
            "xacml",
            n,
            "naive_ground",
            LearnOptions::default().with_compile(CompileOptions::default().with_naive_ground(true)),
            &task,
        ));
    }
    (rows, ratio)
}

fn measure_learn(
    workload: &'static str,
    n: usize,
    config: &'static str,
    opts: LearnOptions,
    task: &agenp_learn::LearningTask,
) -> LearnRow {
    let t = Instant::now();
    let (h, stats) = Learner::with_options(opts)
        .learn_with_stats(task)
        .expect("benchmark task is learnable");
    LearnRow {
        workload,
        n,
        config,
        micros: t.elapsed().as_micros(),
        cost: h.cost,
        stats,
    }
}

// --- human-readable output -------------------------------------------------

fn print_tables(
    ground_rows: &[GroundRow],
    solve_rows: &[SolveRow],
    learn_rows: &[LearnRow],
    cav_ratio: f64,
) {
    println!("-- grounding: semi-naive vs naive reference --");
    println!(
        "{:>20} {:>6} {:>10} {:>10} {:>7} {:>12} {:>12} {:>8} {:>8}",
        "workload",
        "n",
        "engine",
        "micros",
        "passes",
        "instantiated",
        "candidates",
        "atoms",
        "rules"
    );
    for r in ground_rows {
        println!(
            "{:>20} {:>6} {:>10} {:>10} {:>7} {:>12} {:>12} {:>8} {:>8}",
            r.workload,
            r.n,
            r.engine,
            r.micros,
            r.stats.passes,
            r.stats.rules_instantiated,
            r.stats.join_candidates,
            r.atoms,
            r.rules
        );
    }
    println!("\n-- solving (ground vs solve time) --");
    println!(
        "{:>20} {:>6} {:>12} {:>12} {:>8} {:>10}",
        "workload", "n", "ground_us", "solve_us", "models", "decisions"
    );
    for r in solve_rows {
        println!(
            "{:>20} {:>6} {:>12} {:>12} {:>8} {:>10}",
            r.workload, r.n, r.ground_micros, r.solve_micros, r.models, r.decisions
        );
    }
    println!("\n-- end-to-end learning: delta+memo vs naive ablation --");
    println!(
        "{:>10} {:>6} {:>16} {:>10} {:>6} {:>8} {:>12} {:>8} {:>8} {:>8}",
        "workload",
        "n",
        "config",
        "micros",
        "cost",
        "passes",
        "instantiated",
        "solves",
        "hits",
        "misses"
    );
    for r in learn_rows {
        println!(
            "{:>10} {:>6} {:>16} {:>10} {:>6} {:>8} {:>12} {:>8} {:>8} {:>8}",
            r.workload,
            r.n,
            r.config,
            r.micros,
            r.cost,
            r.stats.grounding_passes,
            r.stats.rules_instantiated,
            r.stats.solver_calls,
            r.stats.eval_cache_hits,
            r.stats.eval_cache_misses
        );
    }
    println!("\ncav naive/delta rule-instantiation ratio: {cav_ratio:.1}x");
}

// --- JSON emission ---------------------------------------------------------

fn render_json(
    smoke: bool,
    ground_rows: &[GroundRow],
    solve_rows: &[SolveRow],
    learn_rows: &[LearnRow],
    cav_ratio: f64,
) -> String {
    let grounding: Vec<String> = ground_rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"n\": {}, \"engine\": \"{}\", \"micros\": {}, \
                 \"passes\": {}, \"rules_instantiated\": {}, \"join_candidates\": {}, \
                 \"atoms\": {}, \"rules\": {}}}",
                r.workload,
                r.n,
                r.engine,
                r.micros,
                r.stats.passes,
                r.stats.rules_instantiated,
                r.stats.join_candidates,
                r.atoms,
                r.rules
            )
        })
        .collect();
    let solving: Vec<String> = solve_rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"n\": {}, \"ground_micros\": {}, \
                 \"solve_micros\": {}, \"models\": {}, \"decisions\": {}}}",
                r.workload, r.n, r.ground_micros, r.solve_micros, r.models, r.decisions
            )
        })
        .collect();
    let learning: Vec<String> = learn_rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"n\": {}, \"config\": \"{}\", \"micros\": {}, \
                 \"cost\": {}, \"grounding_passes\": {}, \"rules_instantiated\": {}, \
                 \"solver_calls\": {}, \"eval_cache_hits\": {}, \"eval_cache_misses\": {}, \
                 \"search_nodes\": {}, \"used_monotone\": {}}}",
                r.workload,
                r.n,
                r.config,
                r.micros,
                r.cost,
                r.stats.grounding_passes,
                r.stats.rules_instantiated,
                r.stats.solver_calls,
                r.stats.eval_cache_hits,
                r.stats.eval_cache_misses,
                r.stats.search_nodes,
                r.stats.used_monotone
            )
        })
        .collect();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\n\"schema\": \"agenp-bench/perf/v1\",\n\"smoke\": {},\n\
         \"grounding\": [\n{}\n],\n\"solving\": [\n{}\n],\n\"learning\": [\n{}\n],\n\
         \"claims\": {{\"cav_naive_over_delta_rule_instantiations\": {:.3}, \
         \"ground_waste_ratio_coloring\": {:.3}, \
         \"ground_waste_ratio_transitive_closure\": {:.3}, \
         \"ground_waste_ratio_birds\": {:.3}, \
         \"cpus\": {}}}\n}}\n",
        smoke,
        grounding.join(",\n"),
        solving.join(",\n"),
        learning.join(",\n"),
        cav_ratio,
        waste_ratio(ground_rows, "coloring"),
        waste_ratio(ground_rows, "transitive_closure"),
        waste_ratio(ground_rows, "birds"),
        cpus
    )
}
