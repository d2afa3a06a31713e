//! End-to-end tests of the `agenp` binary via `std::process::Command`.

use std::io::Write;
use std::process::Command;

fn agenp(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_agenp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("agenp-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

#[test]
fn solve_enumerates_models() {
    let lp = temp_file("even.lp", "p :- not q. q :- not p.");
    let (stdout, _, ok) = agenp(&["solve", lp.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("Answer 1"));
    assert!(stdout.contains("Answer 2"));
}

#[test]
fn solve_reports_unsat() {
    let lp = temp_file("unsat.lp", "a. :- a.");
    let (stdout, _, ok) = agenp(&["solve", lp.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("UNSATISFIABLE"));
}

#[test]
fn solve_optimizes() {
    let lp = temp_file("opt.lp", "a :- not b. b :- not a. :~ a. [3] :~ b. [1]");
    let (stdout, _, ok) = agenp(&["solve", lp.to_str().unwrap(), "--optimize"]);
    assert!(ok);
    assert!(stdout.contains("OPTIMUM 1@0"), "{stdout}");
    assert!(stdout.contains('b'));
}

#[test]
fn grammar_accepts_respects_context() {
    let asg = temp_file(
        "gate.asg",
        "policy -> \"allow\" { :- alert. }\npolicy -> \"deny\" { :- not alert. }\n",
    );
    let ctx = temp_file("alert.lp", "alert.");
    let (o1, _, ok1) = agenp(&[
        "grammar",
        "accepts",
        asg.to_str().unwrap(),
        "deny",
        "--context",
        ctx.to_str().unwrap(),
    ]);
    assert!(ok1);
    assert!(o1.contains("ACCEPTED"));
    let (o2, _, _) = agenp(&["grammar", "accepts", asg.to_str().unwrap(), "deny"]);
    assert!(o2.contains("REJECTED"));
}

#[test]
fn grammar_language_enumerates() {
    let asg = temp_file(
        "lang.asg",
        "s -> \"a\" s { size(X + 1) :- size(X)@2. :- size(X), X >= 3. }\ns -> { size(0). }\n",
    );
    let (stdout, _, ok) = agenp(&["grammar", "language", asg.to_str().unwrap(), "--depth", "8"]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    // ε, a, a a (size < 3 at every node).
    assert_eq!(lines.len(), 3, "{stdout}");
}

#[test]
fn grammar_check_reports_issues() {
    let asg = temp_file("bad.asg", "s -> \"x\" { p :- q(X)@9. }\norphan -> \"y\"\n");
    let (stdout, _, ok) = agenp(&["grammar", "check", asg.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("warning"), "{stdout}");
    assert!(stdout.contains("child 9"), "{stdout}");
}

#[test]
fn learn_solves_task_files() {
    let task = temp_file(
        "demo.task",
        "%% grammar\npolicy -> \"allow\" { act(allow). }\n%% space\n0 :- storm.\n%% pos\nallow | calm.\n%% neg\nallow | storm.\n",
    );
    let (stdout, _, ok) = agenp(&["learn", task.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains(":- storm."), "{stdout}");
}

#[test]
fn explain_diagnoses_rejections() {
    let asg = temp_file("explain.asg", "policy -> \"allow\" { :- lockdown. }\n");
    let ctx = temp_file("lockdown.lp", "lockdown.");
    let (stdout, _, ok) = agenp(&[
        "explain",
        asg.to_str().unwrap(),
        "allow",
        "--context",
        ctx.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("decisive constraint"), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (_, stderr, ok) = agenp(&["solve", "/nonexistent/file.lp"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    let (_, stderr2, ok2) = agenp(&["nonsense"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"));
    let bad = temp_file("bad.lp", "p :- .");
    let (_, stderr3, ok3) = agenp(&["solve", bad.to_str().unwrap()]);
    assert!(!ok3);
    assert!(stderr3.contains("parse error"));
}

#[test]
fn learn_persists_the_learned_grammar() {
    let task = temp_file(
        "persist.task",
        "%% grammar\npolicy -> \"allow\" { act(allow). }\n%% space\n0 :- storm.\n%% pos\nallow | calm.\n%% neg\nallow | storm.\n",
    );
    let out = std::env::temp_dir().join(format!("agenp-learned-{}.asg", std::process::id()));
    let (stdout, _, ok) = agenp(&[
        "learn",
        task.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    // The persisted grammar is loadable and enforces the learned constraint.
    let ctx = temp_file("storm.lp", "storm.");
    let (verdict, _, ok2) = agenp(&[
        "grammar",
        "accepts",
        out.to_str().unwrap(),
        "allow",
        "--context",
        ctx.to_str().unwrap(),
    ]);
    assert!(ok2);
    assert!(verdict.contains("REJECTED"), "{verdict}");
    let (verdict2, _, _) = agenp(&["grammar", "accepts", out.to_str().unwrap(), "allow"]);
    assert!(verdict2.contains("ACCEPTED"));
}
