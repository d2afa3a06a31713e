//! `fuzz` — seeded differential-fuzz gate over the generative harness in
//! `agenp-refsem` (see `docs/TESTING.md`).
//!
//! Each case is one seed pushed through one of the harness's runners:
//! fast-vs-reference differential checks for the ASP solver, the serving
//! PDP (all four `decide`/`decide_batch` paths, on small sets and on
//! large sets of 16-64 policies), ASG membership, the
//! learner's world coverage (compiled candidate plans against brute-force
//! stable models), and generation plus PCP screening on a learning
//! session's worlds (against grounding every tree and string), pdpd's
//! connection loop on pipelined HTTP trains with malformed requests mixed
//! in (`wire`, driven in memory), plus the metamorphic transform suites.
//! Any mismatch
//! prints a one-line repro leading with the seed —
//! `(repro: run_pdp_case(8231))` — and exits nonzero, so CI failures
//! replay locally from a single integer.
//!
//! Usage:
//!   cargo run -p agenp-bench --bin fuzz --release [-- FLAGS]
//!
//! Flags:
//!   --smoke        CI mode: at least 1,024 cases mixing every kind,
//!                  base seed 0.
//!   --cases N      case count (default 1,024; the AGENP_FUZZ_CASES env
//!                  var overrides the default for deeper local runs,
//!                  e.g. AGENP_FUZZ_CASES=100000).
//!   --base N       first seed (default 0; shift to explore new ground).

use agenp_refsem::{
    run_asg_case, run_asp_case, run_generate_case, run_large_pdp_case, run_metamorphic_asp_case,
    run_metamorphic_pdp_case, run_pdp_case, run_wire_case, run_world_case,
};
use std::time::Instant;

/// A seed-driven case runner from `agenp-refsem`.
type CaseRunner = fn(u64) -> Result<(), String>;

/// One rotation of the case mix. ASG membership is exhaustive over all
/// strings up to length 4 per grammar, so it rides on a fraction of seeds
/// rather than a full rotation slot.
const KINDS: [(&str, CaseRunner); 8] = [
    ("asp", run_asp_case),
    ("pdp", run_pdp_case),
    ("large-pdp", run_large_pdp_case),
    ("metamorphic-asp", run_metamorphic_asp_case),
    ("metamorphic-pdp", run_metamorphic_pdp_case),
    ("world", run_world_case),
    ("generate", run_generate_case),
    ("wire", run_wire_case),
];

/// Every `ASG_EVERY`-th case additionally runs the grammar differential.
const ASG_EVERY: u64 = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let default_cases: u64 = std::env::var("AGENP_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_024);
    let mut cases =
        flag_value(&args, "--cases").map_or(default_cases, |v| parse_or_die(&v, "--cases"));
    if smoke && cases < 1_024 {
        cases = 1_024;
    }
    let base: u64 = flag_value(&args, "--base").map_or(0, |v| parse_or_die(&v, "--base"));

    println!("fuzz: {cases} cases, seeds {base}..{}", base + cases);
    let start = Instant::now();
    let mut per_kind = [0u64; KINDS.len()];
    let mut asg_cases = 0u64;
    let mut failures = 0u32;

    for i in 0..cases {
        let seed = base + i;
        let slot = (i % KINDS.len() as u64) as usize;
        let (kind, runner) = KINDS[slot];
        if let Err(msg) = runner(seed) {
            eprintln!("FAIL [{kind}] {msg}");
            failures += 1;
        }
        per_kind[slot] += 1;
        if i % ASG_EVERY == 0 {
            if let Err(msg) = run_asg_case(seed) {
                eprintln!("FAIL [asg] {msg}");
                failures += 1;
            }
            asg_cases += 1;
        }
        if failures >= 10 {
            eprintln!("fuzz: stopping after {failures} failures");
            break;
        }
    }

    let elapsed = start.elapsed();
    for (slot, (kind, _)) in KINDS.iter().enumerate() {
        println!("  {kind}: {} cases", per_kind[slot]);
    }
    println!("  asg: {asg_cases} cases");
    println!(
        "fuzz: {} checks in {:.1}s, {failures} failure(s)",
        per_kind.iter().sum::<u64>() + asg_cases,
        elapsed.as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or_die(value: &str, flag: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("fuzz: {flag} expects an unsigned integer, got {value:?}");
        std::process::exit(2);
    })
}
