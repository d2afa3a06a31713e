//! `coalition` — machine-readable harness for the deterministic chaos
//! fabric (`agenp_coalition::sim`).
//!
//! For every selected scenario the harness runs three simulations from
//! the same seed: the never-faulted **reference** twin (identical
//! protocol schedule, empty chaos plan), the **chaos** run checked live
//! against the reference's served-decision corpus, and a **replay** of
//! the chaos run that must reproduce the exact event-trace hash and
//! counters. Observability is enabled with an in-memory exporter, so the
//! flight-recorder dumps the fabric fires at fault boundaries
//! (`chaos.partition`, `chaos.crash`, ...) are counted into the report.
//! Results land in `BENCH_coalition.json` (through
//! [`agenp_bench::write_bench`]; schema `agenp-bench/coalition/v1`,
//! documented in `docs/RESILIENCE.md`).
//!
//! Usage:
//!   cargo run -p agenp-bench --bin coalition --release [-- FLAGS]
//!
//! Flags:
//!   --smoke            CI mode: 1,000 parties, every scenario, seed 42.
//!                      Both modes exit nonzero on malformed output, any
//!                      invariant violation, reference mismatch, or
//!                      replay divergence.
//!   --scenario NAME    run one scenario (data-sharing, partition-storm,
//!                      mass-reground, crash-restart); gates only, writes
//!                      no BENCH file.
//!   --seed N           run seed (default 42).
//!   --parties N        fleet size (default 2000; smoke pins 1000).
//!   --trace PATH       also write the chaos run's full event trace to
//!                      PATH (requires --scenario; meant for replaying a
//!                      failing seed, see docs/RESILIENCE.md).

use agenp_bench::{fixed, print_table, write_bench};
use agenp_coalition::sim::{run_scenario_with, RunConfig, Scenario, SimReport};
use agenp_obs::json::Json;
use agenp_obs::{MemoryExporter, ObsConfig};

/// Everything measured for one scenario.
struct ScenarioRow {
    reference: SimReport,
    chaos: SimReport,
    deterministic: bool,
}

impl ScenarioRow {
    fn json(&self) -> Json {
        let (c, s) = (&self.chaos, &self.chaos.stats);
        let stats = [
            ("messages_sent", s.messages_sent),
            ("delivered", s.delivered),
            ("dropped_loss", s.dropped_loss),
            ("dropped_partition", s.dropped_partition),
            ("dropped_down", s.dropped_down),
            ("duplicated", s.duplicated),
            ("stragglers", s.stragglers),
            ("publishes", s.publishes),
            ("mass_refreshes", s.mass_refreshes),
            ("adoptions", s.adoptions),
            ("crashes", s.crashes),
            ("restarts", s.restarts),
            ("refresh_failures", s.refresh_failures),
            ("degraded_publishes", s.degraded_publishes),
            ("partitions", s.partitions),
            ("heals", s.heals),
            ("decisions", s.decisions),
            ("permits", s.permits),
            ("denies", s.denies),
            ("gaps", s.gaps),
            ("stale_serves", s.stale_serves),
            ("convergence_checks", s.convergence_checks),
            ("convergence_skipped", s.convergence_skipped),
        ];
        Json::obj([
            ("name", c.scenario.into()),
            ("ticks", c.ticks.into()),
            ("head", c.head.into()),
            ("invariant_violations", c.invariant_violations.into()),
            ("reference_mismatches", c.reference_mismatches.into()),
            ("deterministic", self.deterministic.into()),
            ("trace_hash", format!("{:#018x}", c.trace_hash).into()),
            ("elapsed_ms", c.elapsed.as_millis().into()),
            ("decisions_per_sec", fixed(c.decisions_per_sec(), 1)),
            (
                "reference",
                Json::obj([
                    (
                        "invariant_violations",
                        self.reference.invariant_violations.into(),
                    ),
                    ("decisions", self.reference.stats.decisions.into()),
                ]),
            ),
            ("stats", Json::obj(stats.map(|(k, v)| (k, v.into())))),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = flag_value(&args, "--seed").map_or(42, |v| parse_or_die(&v, "--seed"));
    let parties = if smoke {
        1000
    } else {
        flag_value(&args, "--parties").map_or(2000, |v| parse_or_die(&v, "--parties"))
    };
    let scenario_name = flag_value(&args, "--scenario");
    let trace_path = flag_value(&args, "--trace");
    if trace_path.is_some() && scenario_name.is_none() {
        eprintln!("coalition: --trace requires --scenario (one run, one trace)");
        std::process::exit(2);
    }

    let scenarios = match &scenario_name {
        Some(name) => match Scenario::by_name(name, parties) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "coalition: unknown scenario {name:?} (known: {})",
                    Scenario::all(2)
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        },
        None => Scenario::all(parties),
    };

    // Observability on: the fabric dumps the flight recorder at every
    // fault boundary; the exporter lets us count that it actually did.
    agenp_obs::install(ObsConfig::enabled());
    let exporter = MemoryExporter::new();
    agenp_obs::set_exporter(Box::new(exporter.clone()));

    let record = RunConfig {
        record_trace: trace_path.is_some(),
    };
    let rows: Vec<ScenarioRow> = scenarios
        .iter()
        .map(|scenario| run_one(seed, scenario, record))
        .collect();

    if let Some(path) = &trace_path {
        let trace = rows[0]
            .chaos
            .trace
            .as_deref()
            .expect("trace recording was requested");
        if let Err(e) = std::fs::write(path, trace.join("\n") + "\n") {
            eprintln!("coalition: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} trace lines to {path}", trace.len());
    }

    let chaos_dumps = exporter
        .exports()
        .iter()
        .filter(|doc| doc.contains("\"trigger\": \"chaos."))
        .count();

    let scenarios: Vec<Json> = rows.iter().map(ScenarioRow::json).collect();
    print_table(
        "deterministic chaos fabric:",
        &scenarios,
        &[
            "name",
            "ticks",
            "stats.messages_sent",
            "stats.delivered",
            "stats.decisions",
            "stats.crashes",
            "stats.heals",
            "invariant_violations",
            "decisions_per_sec",
            "deterministic",
        ],
    );
    println!("({chaos_dumps} chaos.* flight-recorder dumps)");

    let total_violations: u64 = rows
        .iter()
        .map(|r| r.chaos.invariant_violations + r.reference.invariant_violations)
        .sum();
    // A `--scenario` run is a partial run: it gates but writes no file, so
    // a replay never replaces the all-scenario document.
    if scenario_name.is_none() {
        write_bench(
            "coalition",
            "coalition",
            "agenp-bench/coalition/v1",
            smoke,
            vec![
                ("seed", seed.into()),
                ("parties", parties.into()),
                ("scenarios", Json::Arr(scenarios)),
                ("obs", Json::obj([("chaos_dumps", chaos_dumps.into())])),
            ],
            vec![
                ("scenarios", rows.len().into()),
                ("total_invariant_violations", total_violations.into()),
                (
                    "all_deterministic",
                    rows.iter().all(|r| r.deterministic).into(),
                ),
            ],
        );
    }

    gate(&rows, smoke, parties, chaos_dumps);
}

fn run_one(seed: u64, scenario: &Scenario, record: RunConfig) -> ScenarioRow {
    let reference = run_scenario_with(seed, &scenario.reference(), RunConfig::default(), None);
    let chaos = run_scenario_with(seed, scenario, record, Some(&reference.served));
    // Replay: byte-identical event trace and counters, or the
    // reproducibility contract is broken.
    let replay = run_scenario_with(
        seed,
        scenario,
        RunConfig::default(),
        Some(&reference.served),
    );
    let deterministic = replay.trace_hash == chaos.trace_hash && replay.stats == chaos.stats;
    ScenarioRow {
        reference,
        chaos,
        deterministic,
    }
}

/// Exits nonzero when any hard property failed.
fn gate(rows: &[ScenarioRow], smoke: bool, parties: usize, chaos_dumps: usize) {
    let mut failed = false;
    for row in rows {
        let name = row.chaos.scenario;
        if row.reference.invariant_violations > 0 {
            eprintln!(
                "coalition: {name}: reference run hit {} invariant violations: {:?}",
                row.reference.invariant_violations, row.reference.violations
            );
            failed = true;
        }
        if row.chaos.invariant_violations > 0 {
            eprintln!(
                "coalition: {name}: chaos run hit {} invariant violations: {:?}",
                row.chaos.invariant_violations, row.chaos.violations
            );
            failed = true;
        }
        if row.chaos.reference_mismatches > 0 {
            eprintln!(
                "coalition: {name}: {} decisions disagreed with the never-faulted reference",
                row.chaos.reference_mismatches
            );
            failed = true;
        }
        if !row.deterministic {
            eprintln!(
                "coalition: {name}: replay diverged from the first run — \
                 the (seed, scenario) reproducibility contract is broken"
            );
            failed = true;
        }
    }
    if smoke {
        if parties < 1000 {
            eprintln!("coalition: smoke must run >= 1000 parties (ran {parties})");
            failed = true;
        }
        if rows.len() < 2 {
            eprintln!(
                "coalition: smoke must cover >= 2 scenarios (ran {})",
                rows.len()
            );
            failed = true;
        }
        if chaos_dumps == 0 {
            eprintln!("coalition: smoke saw no chaos.* flight-recorder dumps");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    let violations: u64 = rows.iter().map(|r| r.chaos.invariant_violations).sum();
    println!(
        "BENCH_coalition.json validated ({} scenarios x {parties} parties, \
         {violations} violations, {chaos_dumps} chaos dumps, all replays identical)",
        rows.len()
    );
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_or_die<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("coalition: bad value {value:?} for {flag}");
        std::process::exit(2);
    })
}
