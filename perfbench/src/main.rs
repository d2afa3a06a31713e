//! The repository benchmark: one command, three workloads, every metric
//! by name and unit, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `wire-hot` — `/decide` over loopback HTTP against an in-process
//!   `PdpdServer`; the pin cache answers almost every request.
//! * `inproc-cold` — `PdpHandle::decide_batch` on unique requests against
//!   384 generated rules; the cache never hits.
//! * `relearn` — the AMS observe / set_context / adapt loop on the CAV
//!   scenario while a second thread keeps deciding.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's own spans and staged replays and prints
//! the per-layer metrics. The last stdout line is the result object; the
//! exit code is nonzero when any output fails its check.

mod affinity;
mod calib;
mod cold;
mod relearn;
mod report;
mod stats;
mod trace;
mod wire;

use report::Report;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("adopt_p50_ms", "ms"),
    ("adopt_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer nanosecond timings, each reported as `.p50` and `.p99`.
pub const LAYER_TIMINGS: [&str; 21] = [
    "pdpd.read_ns",
    "pdpd.json_parse_ns",
    "pdpd.request_build_ns",
    "pdpd.encode_ns",
    "pdpd.write_ns",
    "pdpd.unattributed_ns",
    "serve.decide_ns",
    "serve.decide_batch_ns",
    "serve.unattributed_ns",
    "serve.publish_ns",
    "serve.adopt_lag_ns",
    "policy.eval_ns",
    "policy.canonical_key_ns",
    "ams.adapt_ns",
    "ams.set_context_ns",
    "ams.unattributed_ns",
    "learn.learn_ns",
    "grammar.generate_ns",
    "grammar.screen_ns",
    "obs.decide_overhead_ns",
    "trace.request_ns",
];

/// Per-layer counts and ratios, with their units.
pub const LAYER_COUNTS: [(&str, &str); 17] = [
    ("pdpd.bytes_in", "B"),
    ("pdpd.bytes_out", "B"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.invalidations", "count"),
    ("serve.cache_entries", "count"),
    ("policy.rules", "count"),
    ("learn.examples", "count"),
    ("learn.search_nodes", "count"),
    ("learn.eval_cache_hit_ratio", "ratio"),
    ("asp.solver_calls", "count"),
    ("asp.grounding_passes", "count"),
    ("asp.rules_instantiated", "count"),
    ("grammar.strings", "count"),
    ("obs.spans_recorded", "count"),
    ("obs.spans_dropped", "count"),
    ("trace.spans", "count"),
    ("trace.replays", "count"),
];

/// The names every traced run prints, in order, with their units.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for t in LAYER_TIMINGS {
        out.push((format!("{t}.p50"), "ns"));
        out.push((format!("{t}.p99"), "ns"));
    }
    for (c, unit) in LAYER_COUNTS {
        out.push((c.to_owned(), unit));
    }
    out
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required (wire-hot, inproc-cold, relearn)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the grounder to the calling thread so no workload runs more
    // than the two threads it declares.
    std::env::set_var("AGENP_GROUND_THREADS", "1");
    // Counted before the workload pins its threads.
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);

    let mut report = match args.workload.as_str() {
        "wire-hot" => wire::run(&args),
        "inproc-cold" => cold::run(&args),
        "relearn" => relearn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (wire-hot, inproc-cold, relearn)");
            std::process::exit(2);
        }
    };
    if args.trace {
        complete_per_layer(&mut report);
    } else {
        report.metric("peak_rss_mb", report::peak_rss_mb(), "MB", None);
        check_end_to_end(&mut report);
    }
    report.provenance("workload", &args.workload);
    report.provenance("seed", args.seed);
    report.provenance("seconds", args.seconds);
    report.provenance("trace", u8::from(args.trace));
    report.provenance("cpus", cpus);
    report.provenance("commit", commit());
    report.provenance("rustc", env!("PERFBENCH_RUSTC"));
    report.provenance("profile", env!("PERFBENCH_PROFILE"));
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

/// The checkout's git commit, with `-dirty` when the tree has uncommitted
/// changes; `unknown` in a checkout without git metadata. Only a `.git`
/// in the working directory counts, so no repository around it is read.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(head), Some(status)) if status.is_empty() => head,
        (Some(head), Some(_)) => format!("{head}-dirty"),
        _ => "unknown".into(),
    }
}

/// Fails the run if a workload left out an end-to-end metric.
fn check_end_to_end(report: &mut Report) {
    for (name, _) in END_TO_END {
        if !report.metrics().iter().any(|m| m.name == name) {
            report.fail(format!("end-to-end metric {name} was not measured"));
        }
    }
}

/// Reports every per-layer metric the workload does not run as zero, and
/// orders the metrics as declared.
fn complete_per_layer(report: &mut Report) {
    let measured = report.metrics().to_vec();
    let mut out = Report::default();
    out.attempted = report.attempted;
    out.failed = report.failed;
    out.failures = std::mem::take(&mut report.failures);
    out.provenance = std::mem::take(&mut report.provenance);
    for (name, unit) in per_layer_names() {
        match measured.iter().find(|m| m.name == name) {
            Some(m) => out.metric(&name, m.value, unit, m.samples),
            None => out.metric(&name, 0.0, unit, Some(0)),
        }
    }
    for m in &measured {
        if !out.metrics().iter().any(|o| o.name == m.name) {
            out.fail(format!("metric {} is not declared", m.name));
        }
    }
    *report = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the code prints are the ones `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn absent_layers_are_filled_and_undeclared_ones_fail() {
        let mut r = Report::default();
        r.attempted = 1;
        r.metric("serve.decide_ns.p50", 12.0, "ns", Some(3));
        complete_per_layer(&mut r);
        assert_eq!(r.metrics().len(), per_layer_names().len());
        assert!(r.correct());
        let mut bad = Report::default();
        bad.attempted = 1;
        bad.metric("made.up", 1.0, "ns", None);
        complete_per_layer(&mut bad);
        assert!(!bad.correct());
    }
}
