//! `agenp` — the AGENP command-line tool.
//!
//! ```text
//! agenp solve <file.lp> [--models N] [--optimize]
//! agenp ground <file.lp>
//! agenp grammar check <file.asg>
//! agenp grammar accepts <file.asg> "<string>" [--context <ctx.lp>]
//! agenp grammar language <file.asg> [--context <ctx.lp>] [--depth N]
//! agenp learn <file.task> [--out <learned.asg>]
//! agenp explain <file.asg> "<string>" [--context <ctx.lp>]
//! ```

mod task_file;

use agenp_asp::{ground, Program, Solver};
use agenp_core::explain::explain_policy;
use agenp_grammar::{ambiguity_sample, validate_asg, Asg, CfgAnalysis, GenOptions};
use agenp_learn::Learner;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("agenp: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  agenp solve <file.lp> [--models N] [--optimize]
  agenp ground <file.lp>
  agenp grammar check <file.asg>
  agenp grammar accepts <file.asg> \"<string>\" [--context <ctx.lp>]
  agenp grammar language <file.asg> [--context <ctx.lp>] [--depth N]
  agenp learn <file.task> [--out <learned.asg>]
  agenp explain <file.asg> \"<string>\" [--context <ctx.lp>]";

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("ground") => cmd_ground(&args[1..]),
        Some("grammar") => cmd_grammar(&args[1..]),
        Some("learn") => cmd_learn(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn read_program(path: &str) -> Result<Program, String> {
    read_file(path)?
        .parse()
        .map_err(|e| format!("in `{path}`: {e}"))
}

fn read_grammar(path: &str) -> Result<Asg, String> {
    read_file(path)?
        .parse::<Asg>()
        .map_err(|e| format!("in `{path}`: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn optional_context(args: &[String]) -> Result<Program, String> {
    match flag_value(args, "--context") {
        Some(path) => read_program(path),
        None => Ok(Program::new()),
    }
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let program = read_program(path)?;
    let g = ground(&program).map_err(|e| e.to_string())?;
    let max_models: usize = flag_value(args, "--models")
        .map(|v| v.parse().map_err(|_| "--models expects a number"))
        .transpose()?
        .unwrap_or(0);
    if args.iter().any(|a| a == "--optimize") {
        let r = Solver::new().max_models(max_models).optimize(&g);
        match r.cost() {
            None => println!("UNSATISFIABLE"),
            Some(cost) => {
                println!(
                    "OPTIMUM {cost} ({} model(s), proven: {})",
                    r.optima().len(),
                    r.proven_optimal()
                );
                for m in r.optima() {
                    println!("{m}");
                }
            }
        }
        return Ok(());
    }
    let r = Solver::new().max_models(max_models).solve(&g);
    if !r.satisfiable() {
        println!("UNSATISFIABLE");
    } else {
        for (i, m) in r.models().iter().enumerate() {
            println!("Answer {}: {m}", i + 1);
        }
        if !r.complete() {
            println!("(enumeration incomplete)");
        }
    }
    Ok(())
}

fn cmd_ground(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let program = read_program(path)?;
    let g = ground(&program).map_err(|e| e.to_string())?;
    print!("{g}");
    Ok(())
}

fn cmd_grammar(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("check") => {
            let path = args.get(1).ok_or(USAGE)?;
            let g = read_grammar(path)?;
            let analysis = CfgAnalysis::of(g.cfg());
            println!(
                "{} productions, {} nonterminals ({} reachable, {} productive)",
                g.cfg().production_count(),
                g.cfg().nt_count(),
                analysis.reachable.len(),
                analysis.productive.len()
            );
            for p in &analysis.useless_productions {
                println!("warning: production p{} is useless", p.index());
            }
            for nt in &analysis.unit_cyclic {
                println!(
                    "warning: nonterminal `{}` is in a unit cycle",
                    g.cfg().nt_name(*nt)
                );
            }
            for issue in validate_asg(&g) {
                println!("warning: {issue}");
            }
            let ambiguous = ambiguity_sample(
                g.cfg(),
                GenOptions {
                    max_depth: 6,
                    max_trees: 500,
                },
                3,
            );
            for (s, n) in ambiguous {
                println!("note: `{s}` has {n} parse trees");
            }
            Ok(())
        }
        Some("accepts") => {
            let path = args.get(1).ok_or(USAGE)?;
            let string = args.get(2).ok_or(USAGE)?;
            let g = read_grammar(path)?;
            let ctx = optional_context(&args[3..])?;
            let ok = g
                .with_context(&ctx)
                .accepts(string)
                .map_err(|e| e.to_string())?;
            println!("{}", if ok { "ACCEPTED" } else { "REJECTED" });
            Ok(())
        }
        Some("language") => {
            let path = args.get(1).ok_or(USAGE)?;
            let g = read_grammar(path)?;
            let ctx = optional_context(&args[2..])?;
            let depth: usize = flag_value(&args[2..], "--depth")
                .map(|v| v.parse().map_err(|_| "--depth expects a number"))
                .transpose()?
                .unwrap_or(8);
            let lang = g
                .with_context(&ctx)
                .language(GenOptions {
                    max_depth: depth,
                    max_trees: 20_000,
                })
                .map_err(|e| e.to_string())?;
            for s in lang {
                println!("{s}");
            }
            Ok(())
        }
        _ => Err(format!("unknown grammar subcommand\n{USAGE}")),
    }
}

fn cmd_learn(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let task = task_file::parse_task(&read_file(path)?).map_err(|e| e.to_string())?;
    println!(
        "task: {} productions, {} candidates, {}+ / {}- examples",
        task.grammar.cfg().production_count(),
        task.space.len(),
        task.positive.len(),
        task.negative.len()
    );
    let hypothesis = Learner::new().learn(&task).map_err(|e| e.to_string())?;
    print!("{hypothesis}");
    let learned = hypothesis.apply(&task.grammar);
    println!("learned grammar:\n{learned}");
    if let Some(out) = flag_value(args, "--out") {
        std::fs::write(out, learned.to_string())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("wrote learned grammar to {out}");
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let string = args.get(1).ok_or(USAGE)?;
    let g = read_grammar(path)?;
    let ctx = optional_context(&args[2..])?;
    let explanation = explain_policy(&g, &ctx, string).map_err(|e| e.to_string())?;
    print!("{explanation}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--context", "ctx.lp", "--depth", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--context"), Some("ctx.lp"));
        assert_eq!(flag_value(&args, "--depth"), Some("5"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_owned()]).is_err());
        assert!(run(&[]).is_ok()); // prints usage
    }
}
