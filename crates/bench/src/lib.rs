//! # agenp-bench — workloads and helpers for the AGENP benchmark harness
//!
//! Shared workload builders used by the harness binaries: `report`, which
//! regenerates every figure and quantitative claim of the paper (see
//! EXPERIMENTS.md for the experiment index), and `perf`, which times the
//! ASP pipeline into `BENCH_asp.json`.
//!
//! [`write_bench`] is the one writer of every `BENCH_*.json` file and
//! [`print_table`] the one table printer: a binary builds each result row
//! once, as a [`Json`] object, and hands the same rows to both.

#![warn(missing_docs)]

use agenp_asp::Program;
use agenp_grammar::Asg;
use agenp_obs::json::{self, Json};
use std::path::PathBuf;

/// A 2-colorable ring-coloring program over `n` nodes — a classic
/// non-stratified benchmark with answer sets for the solver to enumerate.
pub fn coloring_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("node({i}). "));
        src.push_str(&format!("edge({i}, {}). ", (i + 1) % n));
    }
    src.push_str(
        "
        red(X)  :- node(X), not blue(X).
        blue(X) :- node(X), not red(X).
        :- edge(X, Y), red(X), red(Y).
        :- edge(X, Y), blue(X), blue(Y).
    ",
    );
    src.parse().expect("coloring program parses")
}

/// A stratified transitive-closure program over a chain of `n` nodes.
pub fn transitive_closure_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n.saturating_sub(1) {
        src.push_str(&format!("edge({i}, {}). ", i + 1));
    }
    src.push_str(
        "
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
    ",
    );
    src.parse().expect("transitive closure program parses")
}

/// A stratified default-reasoning program over `n` individuals.
pub fn birds_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("bird(b{i}). "));
        if i % 3 == 0 {
            src.push_str(&format!("abnormal(b{i}). "));
        }
    }
    src.push_str("flies(X) :- bird(X), not abnormal(X).");
    src.parse().expect("birds program parses")
}

/// The aⁿbⁿcⁿ answer set grammar from the ASG paper \[12\].
pub fn anbncn_grammar() -> Asg {
    r#"
        start -> as bs cs {
            :- size(X)@1, not size(X)@2.
            :- size(X)@2, not size(X)@3.
            :- size(X)@3, not size(X)@1.
        }
        as -> "a" as { size(X + 1) :- size(X)@2. }
        as -> { size(0). }
        bs -> "b" bs { size(X + 1) :- size(X)@2. }
        bs -> { size(0). }
        cs -> "c" cs { size(X + 1) :- size(X)@2. }
        cs -> { size(0). }
    "#
    .parse()
    .expect("anbncn grammar parses")
}

/// The string `aⁿ bⁿ cⁿ` (whitespace-tokenized).
pub fn anbncn_string(n: usize) -> String {
    let mut parts: Vec<&str> = Vec::with_capacity(3 * n);
    parts.extend(std::iter::repeat_n("a", n));
    parts.extend(std::iter::repeat_n("b", n));
    parts.extend(std::iter::repeat_n("c", n));
    parts.join(" ")
}

/// Formats a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Times `f` with one untimed warmup call followed by `runs` timed calls,
/// returning the best (minimum) duration in microseconds and the final
/// run's result. First-touch allocation, interner population, and lazy
/// thread spawning land in the warmup instead of polluting the first
/// measured row; the minimum is the stable estimator for short runs on a
/// noisy box.
pub fn time_best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut result = f();
    let mut best = u128::MAX;
    for _ in 0..runs.max(1) {
        let t = std::time::Instant::now();
        result = f();
        best = best.min(t.elapsed().as_micros());
    }
    (best, result)
}

/// The parallelism the box offers, recorded as `claims.cpus` in every
/// `BENCH_*.json`.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The nearest-rank `pct` percentile of ascending `sorted` (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `x` rounded to `places` decimals, the value `format!("{x:.places$}")`
/// prints.
pub fn fixed(x: f64, places: usize) -> Json {
    Json::Num(format!("{x:.places$}").parse().unwrap_or(f64::NAN))
}

/// Writes `BENCH_<name>.json` and checks what landed on disk.
///
/// The document holds `schema`, `smoke`, the `sections` in order, and
/// `claims` with `cpus` appended, one top-level member and one array row
/// per line. A full run writes the repository root's file; a smoke run
/// writes `target/bench-smoke/`, so it never touches the committed files.
/// The file is re-read and parsed, and every section and `claims` must be
/// a top-level key of the parsed document. Any failure exits nonzero with
/// a message naming `bin`.
pub fn write_bench(
    bin: &str,
    name: &str,
    schema: &str,
    smoke: bool,
    sections: Vec<(&str, Json)>,
    mut claims: Vec<(&str, Json)>,
) {
    let root = std::env::var("CARGO_MANIFEST_DIR").map_or_else(
        |_| PathBuf::from("."),
        |dir| PathBuf::from(dir).join("../.."),
    );
    let dir = if smoke {
        root.join("target/bench-smoke")
    } else {
        root
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    let names: Vec<&str> = sections.iter().map(|(key, _)| *key).collect();
    claims.push(("cpus", cpus().into()));
    let members = [("schema", schema.into()), ("smoke", smoke.into())]
        .into_iter()
        .chain(sections)
        .chain([("claims", Json::obj(claims))]);
    let lines: Vec<String> = members
        .map(|(key, value)| match value {
            Json::Arr(rows) if !rows.is_empty() => {
                let rows: Vec<String> = rows.iter().map(Json::to_string).collect();
                format!("{}: [\n{}\n]", json::escaped(key), rows.join(",\n"))
            }
            value => format!("{}: {value}", json::escaped(key)),
        })
        .collect();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))))
        .and_then(|()| std::fs::read_to_string(&path));
    let result = match written {
        Ok(text) => check_bench(&text, &names),
        Err(e) => Err(format!("cannot write or re-read: {e}")),
    };
    if let Err(e) = result {
        eprintln!("{bin}: {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}

/// Parses a `BENCH_*.json` document and requires `claims` and each of
/// `sections` as top-level keys.
///
/// # Errors
///
/// What is wrong: invalid JSON, or the first missing section.
fn check_bench(text: &str, sections: &[&str]) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match sections
        .iter()
        .chain(&["claims"])
        .find(|key| doc.get(key).is_none())
    {
        Some(key) => Err(format!("missing the {key:?} section")),
        None => Ok(()),
    }
}

/// Prints `rows` under `title` as a table of right-aligned, fixed-width
/// columns: one per key of the first row, or one per entry of `columns`,
/// where a dotted path (`"stats.delivered"`) reaches into a nested object.
pub fn print_table(title: &str, rows: &[Json], columns: &[&str]) {
    let keys: Vec<&str> = match (columns, rows.first().and_then(Json::as_obj)) {
        ([], Some(members)) => members.iter().map(|(key, _)| key.as_str()).collect(),
        _ => columns.to_vec(),
    };
    let cell = |row: &Json, key: &str| match key.split('.').try_fold(row, Json::get) {
        Some(Json::Str(s)) => s.clone(),
        Some(value) => value.to_string(),
        None => "-".to_string(),
    };
    let mut table = vec![keys.iter().map(|key| key.to_string()).collect::<Vec<_>>()];
    table.extend(
        rows.iter()
            .map(|row| keys.iter().map(|key| cell(row, key)).collect()),
    );
    let widths: Vec<usize> = (0..keys.len())
        .map(|i| table.iter().map(|line| line[i].len()).max().unwrap_or(0))
        .collect();
    println!("{title}");
    for line in &table {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(s, w)| format!("{s:>w$}"))
            .collect();
        println!("{}", padded.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_asp::{ground, Solver};

    #[test]
    fn bench_check_requires_sections_as_top_level_keys() {
        let sections = ["grounding", "solving"];
        let ok = "{\"schema\": \"s\", \"grounding\": [], \"solving\": [], \"claims\": {}}";
        assert!(check_bench(ok, &sections).is_ok());
        let missing = "{\"schema\": \"s\", \"grounding\": [], \"claims\": {}}";
        assert!(check_bench(missing, &sections)
            .unwrap_err()
            .contains("\"solving\""));
        // A substring search of the text would accept this document.
        let in_value = "{\"grounding\": [], \"next\": \"solving\", \"claims\": {}}";
        assert!(in_value.contains("\"solving\""));
        assert!(check_bench(in_value, &sections).is_err());
        assert!(check_bench("{\"grounding\": [}", &sections).is_err());
    }

    #[test]
    fn fixed_rounds_as_the_format_prints() {
        assert_eq!(fixed(26.150_943, 3), Json::Num(26.151));
        assert_eq!(fixed(2.0, 3).to_string(), "2.0");
        assert_eq!(fixed(f64::NAN, 1).to_string(), "null");
    }

    #[test]
    fn coloring_has_two_models_on_even_ring() {
        let g = ground(&coloring_program(4)).unwrap();
        let r = Solver::new().solve(&g);
        assert_eq!(r.models().len(), 2);
    }

    #[test]
    fn odd_ring_is_uncolorable() {
        let g = ground(&coloring_program(5)).unwrap();
        assert!(!Solver::new().has_answer_set(&g));
    }

    #[test]
    fn tc_and_birds_are_stratified() {
        for p in [transitive_closure_program(10), birds_program(10)] {
            let g = ground(&p).unwrap();
            let r = Solver::new().solve(&g);
            assert!(r.stats().used_stratified);
            assert_eq!(r.models().len(), 1);
        }
    }

    #[test]
    fn anbncn_builders_agree() {
        let g = anbncn_grammar();
        assert!(g.accepts(&anbncn_string(3)).unwrap());
        assert!(!g.accepts("a a b c").unwrap());
    }
}
