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
//! Results land in `BENCH_coalition.json` at the repository root
//! (schema `agenp-bench/coalition/v1`, documented in
//! `docs/RESILIENCE.md`).
//!
//! Usage:
//!   cargo run -p agenp-bench --bin coalition --release [-- FLAGS]
//!
//! Flags:
//!   --smoke            CI mode: 1,000 parties, every scenario, seed 42;
//!                      validates the emitted JSON and exits nonzero on
//!                      any invariant violation, reference mismatch, or
//!                      replay divergence.
//!   --scenario NAME    run one scenario (data-sharing, partition-storm,
//!                      mass-reground, crash-restart).
//!   --seed N           run seed (default 42).
//!   --parties N        fleet size (default 2000; smoke pins 1000).
//!   --trace PATH       also write the chaos run's full event trace to
//!                      PATH (requires --scenario; meant for replaying a
//!                      failing seed, see docs/RESILIENCE.md).

use agenp_coalition::sim::{run_scenario_with, RunConfig, Scenario, SimReport};
use agenp_obs::{MemoryExporter, ObsConfig};
use std::path::PathBuf;

/// Everything measured for one scenario.
struct ScenarioRow {
    reference: SimReport,
    chaos: SimReport,
    deterministic: bool,
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

    print_tables(&rows, chaos_dumps);

    let json = render_json(smoke, seed, parties, &rows, chaos_dumps);
    let path = output_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("coalition: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());

    gate(&path, &rows, smoke, parties, chaos_dumps);
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

/// Exits nonzero when any hard property failed; validates the JSON that
/// actually landed on disk.
fn gate(path: &PathBuf, rows: &[ScenarioRow], smoke: bool, parties: usize, chaos_dumps: usize) {
    let on_disk = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coalition: cannot re-read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = agenp_pdpd::json::parse(&on_disk) {
        eprintln!("coalition: BENCH_coalition.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    for key in ["\"scenarios\"", "\"obs\"", "\"claims\""] {
        if !on_disk.contains(key) {
            eprintln!("coalition: BENCH_coalition.json is missing the {key} section");
            std::process::exit(1);
        }
    }

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

/// `BENCH_coalition.json` lives at the repository root regardless of the
/// cwd cargo chose for the binary.
fn output_path() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .join("../..")
            .join("BENCH_coalition.json"),
        Err(_) => PathBuf::from("BENCH_coalition.json"),
    }
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

fn print_tables(rows: &[ScenarioRow], chaos_dumps: usize) {
    println!("deterministic chaos fabric:");
    println!(
        "{:>16} {:>7} {:>9} {:>10} {:>10} {:>7} {:>7} {:>6} {:>11} {:>7}",
        "scenario",
        "ticks",
        "events*",
        "delivered",
        "decisions",
        "crash",
        "heals",
        "viol",
        "decis/sec",
        "replay"
    );
    for row in rows {
        let c = &row.chaos;
        println!(
            "{:>16} {:>7} {:>9} {:>10} {:>10} {:>7} {:>7} {:>6} {:>11.0} {:>7}",
            c.scenario,
            c.ticks,
            c.stats.messages_sent,
            c.stats.delivered,
            c.stats.decisions,
            c.stats.crashes,
            c.stats.heals,
            c.invariant_violations,
            c.decisions_per_sec(),
            if row.deterministic { "ok" } else { "DIVERGED" },
        );
    }
    println!("(* messages handed to the fabric; {chaos_dumps} chaos.* flight-recorder dumps)");
}

fn render_json(
    smoke: bool,
    seed: u64,
    parties: usize,
    rows: &[ScenarioRow],
    chaos_dumps: usize,
) -> String {
    let scenarios: Vec<String> = rows
        .iter()
        .map(|row| {
            let c = &row.chaos;
            let s = &c.stats;
            format!(
                "{{\"name\": \"{}\", \"ticks\": {}, \"head\": {}, \
                 \"invariant_violations\": {}, \"reference_mismatches\": {}, \
                 \"deterministic\": {}, \"trace_hash\": \"{:#018x}\", \
                 \"elapsed_ms\": {}, \"decisions_per_sec\": {:.1}, \
                 \"reference\": {{\"invariant_violations\": {}, \"decisions\": {}}}, \
                 \"stats\": {{\
                 \"messages_sent\": {}, \"delivered\": {}, \"dropped_loss\": {}, \
                 \"dropped_partition\": {}, \"dropped_down\": {}, \"duplicated\": {}, \
                 \"stragglers\": {}, \"publishes\": {}, \"mass_refreshes\": {}, \
                 \"adoptions\": {}, \"crashes\": {}, \"restarts\": {}, \
                 \"refresh_failures\": {}, \"degraded_publishes\": {}, \
                 \"partitions\": {}, \"heals\": {}, \"decisions\": {}, \
                 \"permits\": {}, \"denies\": {}, \"gaps\": {}, \"stale_serves\": {}, \
                 \"convergence_checks\": {}, \"convergence_skipped\": {}}}}}",
                c.scenario,
                c.ticks,
                c.head,
                c.invariant_violations,
                c.reference_mismatches,
                row.deterministic,
                c.trace_hash,
                c.elapsed.as_millis(),
                c.decisions_per_sec(),
                row.reference.invariant_violations,
                row.reference.stats.decisions,
                s.messages_sent,
                s.delivered,
                s.dropped_loss,
                s.dropped_partition,
                s.dropped_down,
                s.duplicated,
                s.stragglers,
                s.publishes,
                s.mass_refreshes,
                s.adoptions,
                s.crashes,
                s.restarts,
                s.refresh_failures,
                s.degraded_publishes,
                s.partitions,
                s.heals,
                s.decisions,
                s.permits,
                s.denies,
                s.gaps,
                s.stale_serves,
                s.convergence_checks,
                s.convergence_skipped,
            )
        })
        .collect();
    let total_violations: u64 = rows
        .iter()
        .map(|r| r.chaos.invariant_violations + r.reference.invariant_violations)
        .sum();
    let all_deterministic = rows.iter().all(|r| r.deterministic);
    format!(
        "{{\n\"schema\": \"agenp-bench/coalition/v1\",\n\"smoke\": {},\n\
         \"seed\": {},\n\"parties\": {},\n\
         \"scenarios\": [\n{}\n],\n\
         \"obs\": {{\"chaos_dumps\": {}}},\n\
         \"claims\": {{\"scenarios\": {}, \"total_invariant_violations\": {}, \
         \"all_deterministic\": {}, \"cpus\": {}}}\n}}\n",
        smoke,
        seed,
        parties,
        scenarios.join(",\n"),
        chaos_dumps,
        rows.len(),
        total_violations,
        all_deterministic,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    )
}
