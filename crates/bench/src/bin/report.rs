//! `report` — regenerates every figure and quantitative claim of the paper
//! as plain-text tables (the per-experiment index lives in EXPERIMENTS.md).
//!
//! Usage: `cargo run -p agenp-bench --bin report [--release] [EXPERIMENT…]`
//! where EXPERIMENT ∈ {fig1, fig3a, fig3b, curve, scale, quality, sharing,
//! federated, resupply, ablation, all}. Default: all.

use agenp_asp::{ground, Solver};
use agenp_baselines::{Classifier, DecisionTree, Knn, NaiveBayes};
use agenp_bench::{anbncn_grammar, anbncn_string, coloring_program, pct};
use agenp_coalition::{
    datashare, distributed_cav_learning, federated, warm_start_comparison, CasWiki, TrustModel,
};
use agenp_core::scenarios::{cav, resupply, xacml};
use agenp_learn::{LearnOptions, Learner};
use agenp_policy::QualityChecker;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig1",
            "fig3a",
            "fig3b",
            "curve",
            "scale",
            "quality",
            "sharing",
            "federated",
            "resupply",
            "services",
            "hybrid",
            "explain",
            "ablation",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for w in wanted {
        match w {
            "fig1" => fig1(),
            "fig3a" => fig3a(),
            "fig3b" => fig3b(),
            "curve" => curve(),
            "scale" => scale(),
            "quality" => quality(),
            "sharing" => sharing(),
            "federated" => federated_report(),
            "resupply" => resupply_report(),
            "services" => services_report(),
            "hybrid" => hybrid_report(),
            "explain" => explain_report(),
            "ablation" => ablation(),
            other => eprintln!("unknown experiment `{other}` (see EXPERIMENTS.md)"),
        }
    }
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// E1 — Fig. 1: the ILASP learning workflow on the CAV GPM.
fn fig1() {
    header("E1 (Fig. 1) — learning ASGs with ILASP: initial GPM + examples -> learned GPM");
    let train = cav::samples(64, 7);
    let task = cav::learning_task(&train, None);
    println!(
        "initial GPM: {} productions, hypothesis space: {} candidates, examples: {}+{}",
        task.grammar.cfg().production_count(),
        task.space.len(),
        task.positive.len(),
        task.negative.len()
    );
    let t = Instant::now();
    let h = Learner::new().learn(&task).expect("CAV task is learnable");
    println!("learned in {:?}:\n{h}", t.elapsed());
    println!("learned GPM (ASG):\n{}", h.apply(&task.grammar));
}

/// E2 — Fig. 3a: correctly learned XACML policies.
fn fig3a() {
    header("E2 (Fig. 3a) — correctly learned access-control policies");
    let log = xacml::generate_log(150, 7, 0.0);
    let task = xacml::learning_task(
        &log,
        xacml::SpaceConfig::default(),
        xacml::NoiseHandling::Filter,
    );
    let h = Learner::new().learn(&task).expect("clean log is learnable");
    let policy = xacml::learned_policy(&h.rules);
    println!("{policy}");
    println!(
        "ground truth for comparison:\n{}",
        xacml::ground_truth_policy()
    );
    println!(
        "accuracy vs ground truth on 1000 fresh requests: {}",
        pct(xacml::policy_accuracy(&policy, 1000, 99))
    );
}

/// E3/E4/E5 — Fig. 3b: the three incorrect-learning modes + mitigations.
fn fig3b() {
    header("E3 (Fig. 3b-1) — overfitting without statistical background");
    let sparse = vec![
        (
            xacml::XacmlRequest {
                role: 1,
                age: 30,
                rtype: 1,
                action: 0,
            },
            xacml::Response::Permit,
        ),
        (
            xacml::XacmlRequest {
                role: 3,
                age: 40,
                rtype: 2,
                action: 2,
            },
            xacml::Response::Deny,
        ),
    ];
    let cfg = xacml::SpaceConfig {
        include_age: true,
        require_subject_attribute: false,
    };
    let h = Learner::new()
        .learn(&xacml::learning_task(
            &sparse,
            cfg,
            xacml::NoiseHandling::Filter,
        ))
        .expect("sparse task is learnable");
    println!("from a 2-entry log the minimal hypothesis is over-specific:");
    println!("{}", xacml::learned_policy(&h.rules));
    println!("mitigation — statistics (a 150-entry log across the role's users):");
    let log = xacml::generate_log(150, 21, 0.0);
    let h2 = Learner::new()
        .learn(&xacml::learning_task(
            &log,
            cfg,
            xacml::NoiseHandling::Filter,
        ))
        .expect("learnable");
    let p2 = xacml::learned_policy(&h2.rules);
    println!("{p2}");
    println!("accuracy: {}", pct(xacml::policy_accuracy(&p2, 1000, 31)));

    header("E4 (Fig. 3b-2) — unsafe generalization and target-based restrictions");
    let unrestricted = xacml::hypothesis_space(xacml::SpaceConfig::default());
    let restricted = xacml::hypothesis_space(xacml::SpaceConfig {
        include_age: false,
        require_subject_attribute: true,
    });
    println!(
        "hypothesis space: {} candidates; {} after requiring an explicit subject attribute",
        unrestricted.len(),
        restricted.len()
    );
    let n_subjectless = unrestricted
        .candidates()
        .iter()
        .filter(|c| {
            !c.rule.body.iter().any(|l| {
                l.atom()
                    .is_some_and(|a| a.pred.with_name(|n| n == "role" || n == "age"))
            })
        })
        .count();
    println!("candidates with under-specified subjects removed: {n_subjectless}");

    header("E5 (Fig. 3b-3) — noisy logs: NotApplicable responses");
    println!(
        "{:<10} {:<32} {:>10} {:>8} {:>12}",
        "noise", "handling", "accuracy", "rules", "learn time"
    );
    for p_na in [0.0, 0.05, 0.1, 0.2] {
        // Deduplicate requests so the naive misinterpretation yields a
        // *wrong* policy (Fig. 3b-3's Policy 3) rather than an outright
        // inconsistency; with duplicates it is typically unsatisfiable.
        let mut log = xacml::generate_log(240, 13, p_na);
        let mut seen = std::collections::HashSet::new();
        log.retain(|(r, _)| seen.insert(format!("{r:?}")));
        log.truncate(40);
        for (name, handling) in [
            ("naive (NA treated as Deny)", xacml::NoiseHandling::Naive),
            ("filtered (NA pruned)", xacml::NoiseHandling::Filter),
            ("penalty (soft examples)", xacml::NoiseHandling::Penalty(5)),
        ] {
            let t = xacml::learning_task(&log, xacml::SpaceConfig::default(), handling);
            let start = Instant::now();
            let learned = Learner::new().learn(&t);
            let took = start.elapsed();
            match learned {
                Ok(h) => {
                    let pol = xacml::learned_policy(&h.rules);
                    println!(
                        "{:<10} {:<32} {:>10} {:>8} {:>12?}",
                        pct(p_na),
                        name,
                        pct(xacml::policy_accuracy(&pol, 600, 5)),
                        pol.rules.len(),
                        took
                    );
                }
                Err(e) => {
                    println!(
                        "{:<10} {:<32} {:>10} {:>8} {:>12?}",
                        pct(p_na),
                        name,
                        format!("{e}"),
                        "-",
                        took
                    )
                }
            }
        }
    }
}

/// E6 — the §IV-A claim: ASG-GPM vs shallow ML learning curves.
fn curve() {
    header("E6 (§IV-A claim) — ASG-based GPM vs shallow ML: accuracy vs training-set size");
    let test = cav::samples(500, 2024);
    let test_tab = cav::to_dataset(&test);
    println!(
        "{:>8} {:>10} {:>14} {:>12} {:>8} {:>12} {:>12}",
        "n_train", "ASG-GPM", "DecisionTree", "NaiveBayes", "kNN(5)", "GPM fit", "DT fit"
    );
    for n in [4usize, 8, 16, 32, 64, 128, 256] {
        // Average over 3 seeds to smooth sampling noise.
        let mut accs = [0.0f64; 4];
        let mut fit_time = [std::time::Duration::ZERO; 2];
        let seeds = [7u64, 77, 777];
        for &seed in &seeds {
            let train = cav::samples(n, seed);
            let task = cav::learning_task(&train, None);
            let t = Instant::now();
            let learned = Learner::new().learn(&task);
            fit_time[0] += t.elapsed();
            accs[0] += match learned {
                Ok(h) => cav::gpm_accuracy(&h.apply(&task.grammar), &test),
                Err(_) => 0.5,
            };
            let tab = cav::to_dataset(&train);
            let t = Instant::now();
            let tree = DecisionTree::fit(&tab);
            fit_time[1] += t.elapsed();
            accs[1] += tree.accuracy(&test_tab);
            accs[2] += NaiveBayes::fit(&tab).accuracy(&test_tab);
            accs[3] += Knn::fit(&tab, 5.min(n)).accuracy(&test_tab);
        }
        for a in &mut accs {
            *a /= seeds.len() as f64;
        }
        println!(
            "{n:>8} {:>10} {:>14} {:>12} {:>8} {:>12?} {:>12?}",
            pct(accs[0]),
            pct(accs[1]),
            pct(accs[2]),
            pct(accs[3]),
            fit_time[0] / seeds.len() as u32,
            fit_time[1] / seeds.len() as u32
        );
    }
}

/// E7 — scalability: timing of solving, membership, and learning.
fn scale() {
    header("E7 (§III-B / §IV-B) — performance: solving, membership, learning");
    println!("-- answer-set solving (ring coloring, all models) --");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "models", "ground", "solve", "decisions", "first model"
    );
    let solver = Solver::new();
    for n in [6usize, 10, 14, 18] {
        let p = coloring_program(n);
        let tg = Instant::now();
        let g = ground(&p).expect("grounds");
        let ground_time = tg.elapsed();
        let ts = Instant::now();
        let r = solver.solve(&g);
        let solve_time = ts.elapsed();
        let tf = Instant::now();
        let _ = solver.max_models(1).solve(&g).satisfiable();
        println!(
            "{n:>8} {:>10} {:>12?} {:>12?} {:>12} {:>12?}",
            r.models().len(),
            ground_time,
            solve_time,
            r.stats().decisions,
            tf.elapsed()
        );
    }
    println!("\n-- weak-constraint optimization (branch and bound, n choices) --");
    println!("{:>8} {:>12} {:>10}", "n", "time", "cost");
    for n in [6usize, 10, 14] {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!(
                "a{i} :- not b{i}. b{i} :- not a{i}. :~ a{i}. [{}]\n",
                i + 1
            ));
        }
        src.push_str(":- b0, b1.\n");
        let g = ground(&src.parse().expect("parses")).expect("grounds");
        let t = Instant::now();
        let r = solver.optimize(&g);
        let cost = r.cost().map_or("-".to_string(), ToString::to_string);
        println!("{n:>8} {:>12?} {cost:>10}", t.elapsed());
    }
    println!("\n-- ASG membership (a^n b^n c^n) --");
    println!("{:>8} {:>12} {:>10}", "n", "time", "member");
    let g = anbncn_grammar();
    for n in [2usize, 4, 8, 12] {
        let s = anbncn_string(n);
        let t = Instant::now();
        let member = g.accepts(&s).expect("membership check succeeds");
        println!("{n:>8} {:>12?} {:>10}", t.elapsed(), member);
    }
    // One real-time decision: membership of a policy string in a learned
    // CAV GPM under a context (the paper's real-time concern in §IV-A).
    let train = cav::samples(64, 7);
    let task = cav::learning_task(&train, None);
    let gpm = Learner::new()
        .learn(&task)
        .expect("CAV task is learnable")
        .apply(&task.grammar);
    let ctx = cav::CavContext {
        loa: 3,
        limit: 4,
        rain: true,
        emergency: false,
    };
    let t = Instant::now();
    let accepted = gpm
        .with_context(&ctx.to_program())
        .accepts("accept overtake")
        .expect("membership check succeeds");
    println!(
        "learned CAV GPM, one decision: {:?} (accepted: {accepted})",
        t.elapsed()
    );
    println!("\n-- symbolic learning time vs examples (CAV) --");
    println!("{:>8} {:>12} {:>10} {:>10}", "n", "time", "cost", "rules");
    for n in [8usize, 16, 32, 64, 128] {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let t = Instant::now();
        match Learner::new().learn(&task) {
            Ok(h) => println!(
                "{n:>8} {:>12?} {:>10} {:>10}",
                t.elapsed(),
                h.cost,
                h.rules.len()
            ),
            Err(e) => println!("{n:>8} {:>12?} {e}", t.elapsed()),
        }
    }
}

/// E8 — §V-A: policy quality assessment.
fn quality() {
    header("E8 (§V-A) — policy quality: consistency, relevance, minimality, completeness");
    // Learned XACML policies assessed over a request space.
    let log = xacml::generate_log(150, 11, 0.0);
    let task = xacml::learning_task(
        &log,
        xacml::SpaceConfig::default(),
        xacml::NoiseHandling::Filter,
    );
    let h = Learner::new().learn(&task).expect("learnable");
    let learned = xacml::learned_policy(&h.rules);
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let space: Vec<agenp_policy::Request> = (0..200)
        .map(|_| xacml::XacmlRequest::random(&mut rng).to_request())
        .collect();
    let checker = QualityChecker::new();
    println!("learned policy set: {}", checker.assess(&[learned], &space));
    println!(
        "ground-truth set:   {}",
        checker.assess(&[xacml::ground_truth_policy()], &space)
    );
    println!("-- PCP assessment cost vs request-space size (ground-truth set) --");
    println!("{:>8} {:>12}", "requests", "time");
    for n in [50usize, 200, 800] {
        let mut rng = StdRng::seed_from_u64(42);
        let space: Vec<agenp_policy::Request> = (0..n)
            .map(|_| xacml::XacmlRequest::random(&mut rng).to_request())
            .collect();
        let policy = [xacml::ground_truth_policy()];
        let t = Instant::now();
        let _ = checker.assess(&policy, &space);
        println!("{n:>8} {:>12?}", t.elapsed());
    }

    // Context-dependent conflicts: the paper's Crypto-project/postdoc case.
    println!("-- context-dependent conflict detection (crypto-project vs postdoc) --");
    use agenp_policy::{Category, Cond, Effect, Policy, PolicyRule, Request};
    let policies = vec![
        Policy::new(
            "proj",
            vec![PolicyRule::new(
                "crypto-members",
                Effect::Permit,
                Cond::And(vec![
                    Cond::eq(Category::Subject, "project", "crypto"),
                    Cond::eq(Category::Action, "action-id", "modify"),
                ]),
            )],
        ),
        Policy::new(
            "role",
            vec![PolicyRule::new(
                "no-postdocs",
                Effect::Deny,
                Cond::And(vec![
                    Cond::eq(Category::Subject, "position", "postdoc"),
                    Cond::eq(Category::Action, "action-id", "modify"),
                ]),
            )],
        ),
    ];
    println!(
        "static potential conflicts: {}",
        checker.potential_conflicts(&policies).len()
    );
    let ctx_a = vec![Request::new()
        .subject("project", "crypto")
        .subject("position", "faculty")
        .action("action-id", "modify")];
    let ctx_b = vec![Request::new()
        .subject("project", "crypto")
        .subject("position", "postdoc")
        .action("action-id", "modify")];
    println!(
        "confirmed in context A (no postdoc crypto members): {}",
        checker.assess(&policies, &ctx_a).conflicts.len()
    );
    println!(
        "confirmed in context B (a postdoc crypto member):   {}",
        checker.assess(&policies, &ctx_b).conflicts.len()
    );

    // Learned, context-dependent conflict-resolution strategies (§V-A:
    // "learning from human decisions about conflict resolutions").
    use agenp_core::scenarios::conflict;
    let task = conflict::learning_task(160, 17);
    let h = Learner::new().learn(&task).expect("doctrine is learnable");
    let gpm = h.apply(&task.grammar);
    println!("\n-- learned conflict-resolution doctrine --\n{h}");
    println!(
        "strategy-selection accuracy vs administrator doctrine: {}",
        pct(conflict::selector_accuracy(&gpm, 500, 88))
    );
}

/// E9 — §IV-D: coalition data sharing + CASWiki warm start.
fn sharing() {
    header("E9 (§IV-D / §III-A-3) — coalition sharing: CASWiki warm start and trust shifts");
    let wiki = CasWiki::new();
    let reports = distributed_cav_learning(3, 50, 5, &wiki);
    for r in &reports {
        println!(
            "  {:<10} {} local examples -> {} rules, accuracy {}",
            r.name,
            r.local_examples,
            r.learned_rules,
            pct(r.accuracy)
        );
    }
    let mut trust = TrustModel::new();
    for r in &reports {
        trust.set(&r.name, 0.9);
    }
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "local_n", "cold", "warm", "shared"
    );
    for local_n in [2usize, 4, 8, 16] {
        let o = warm_start_comparison(local_n, &wiki, &trust, 0.5, 4242 + local_n as u64);
        println!(
            "{local_n:>10} {:>10} {:>10} {:>8}",
            pct(o.cold_accuracy),
            pct(o.warm_accuracy),
            o.shared_used
        );
    }

    println!("\n-- data-sharing policy under coalition change (§V-C) --");
    let partners = ["amber", "bravo", "delta"];
    let mut before = TrustModel::new();
    before.set("amber", 0.95);
    before.set("bravo", 0.6);
    before.set("delta", 0.6);
    let mut after = before.clone();
    after.set("delta", 0.05);
    let o = datashare::coalition_shift_experiment(&partners, &before, &after, 120, 17);
    println!("{:>24} {:>10} {:>10}", "", "symbolic", "dec.tree");
    println!(
        "{:>24} {:>10} {:>10}",
        "before shift",
        pct(o.symbolic_before),
        pct(o.statistical_before)
    );
    println!(
        "{:>24} {:>10} {:>10}",
        "after shift",
        pct(o.symbolic_after),
        pct(o.statistical_after)
    );
}

/// E10 — §IV-E: federated-learning governance.
fn federated_report() {
    header("E10 (§IV-E) — federated-learning governance");
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(12);
    let offers: Vec<federated::ModelOffer> = (0..80)
        .map(|_| federated::ModelOffer::random(&mut rng))
        .collect();
    let task = federated::learning_task(&offers);
    let h = Learner::new()
        .learn(&task)
        .expect("governance is learnable");
    println!("learned governance constraints:\n{h}");
    let gpm = h.apply(&task.grammar);
    println!(
        "governance accuracy vs oracle: {}",
        pct(federated::governance_accuracy(&gpm, 500, 777))
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "rounds", "governed", "ungoverned", "adoptions"
    );
    for rounds in [20usize, 40, 60] {
        let o = federated::simulate_federation(&gpm, rounds, 99 + rounds as u64);
        println!(
            "{rounds:>8} {:>12.1} {:>12.1} {:>10}",
            o.governed_final_acc, o.ungoverned_final_acc, o.governed_adoptions
        );
    }
}

/// E11 — §IV-B: logistical resupply learning curve + risk-appetite shift.
fn resupply_report() {
    header("E11 (§IV-B) — logistical resupply: accuracy vs missions flown");
    println!("{:>10} {:>10} {:>10}", "missions", "examples", "accuracy");
    let mut last = None;
    for n in [2usize, 4, 8, 16, 32] {
        let data = resupply::reviews(n, 3, 9);
        let task = resupply::learning_task(&data);
        match Learner::new().learn(&task) {
            Ok(h) => {
                let gpm = h.apply(&task.grammar);
                let acc = resupply::gpm_accuracy(&gpm, 50, 555);
                println!("{n:>10} {:>10} {:>10}", data.len(), pct(acc));
                last = Some(gpm);
            }
            Err(e) => println!("{n:>10} {:>10} learn failed: {e}", data.len()),
        }
    }
    if let Some(gpm) = last.clone() {
        // Utility-based plan selection via weak constraints (§I type iii).
        let pref = resupply::with_preferences(&gpm);
        let mission = resupply::Mission {
            threat: [0, 2, 1],
            rain: true,
            appetite: 2,
        };
        if let Some((plan, cost)) = resupply::preferred_plan(&pref, mission) {
            println!(
                "utility-preferred plan for {mission:?}: {} (cost {cost})",
                plan.text()
            );
        }
    }
    // Convoy composition (§IV-B: "how the convoy should be made up").
    {
        let reviews = resupply::convoy_reviews(80, 5, 11);
        let task = resupply::convoy_learning_task(&reviews);
        match Learner::new().learn(&task) {
            Ok(h) => {
                let gpm = h.apply(&task.grammar);
                println!(
                    "\nconvoy composition doctrine learned from {} reviews:\n{h}",
                    reviews.len()
                );
                println!(
                    "full-plan accuracy (route x slot x composition): {}",
                    pct(resupply::convoy_gpm_accuracy(&gpm, 30, 777))
                );
            }
            Err(e) => println!("convoy learning failed: {e}"),
        }
    }
    if let Some(gpm) = last {
        let cautious = resupply::Mission {
            threat: [2, 3, 3],
            rain: false,
            appetite: 1,
        };
        let bold = resupply::Mission {
            appetite: 2,
            ..cautious
        };
        let plan = resupply::Plan { route: 0, slot: 0 };
        let a = gpm
            .with_context(&cautious.to_program())
            .accepts(&plan.text())
            .unwrap_or(false);
        let b = gpm
            .with_context(&bold.to_program())
            .accepts(&plan.text())
            .unwrap_or(false);
        println!(
            "risk-appetite shift: plan `{}` appetite 1 -> {}, appetite 2 -> {}",
            plan.text(),
            if a { "admitted" } else { "discounted" },
            if b { "admitted" } else { "discounted" }
        );
    }
}

/// E14 — §IV-A (capability sharing): temporal/spatial/utility-constrained
/// service sharing between CAVs.
fn services_report() {
    use agenp_coalition::cav_services;
    header("E14 (§IV-A) — CAV capability sharing between vehicles");
    let task = cav_services::learning_task(100, 31);
    let h = Learner::new().learn(&task).expect("learnable");
    println!("learned sharing constraints:\n{h}");
    let gpm = h.apply(&task.grammar);
    println!(
        "policy accuracy vs oracle: {}",
        pct(cav_services::gpm_accuracy(&gpm, 500, 77))
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "attempts", "shared", "solo", "improper"
    );
    for (label, g) in [("learned", &gpm), ("ungoverned", &cav_services::grammar())] {
        let o = cav_services::simulate_fleet(g, 300, 99);
        println!(
            "{:>10} {:>10} {:>10} {:>10}  ({label})",
            o.attempts, o.shared_completions, o.solo_completions, o.improper_shares
        );
    }
}

/// E15 — §V-C: statistical atomic concepts feeding symbolic policies.
fn hybrid_report() {
    use agenp_core::scenarios::hybrid;
    header("E15 (§V-C) — hybrid: statistical concept detection + symbolic policy");
    let hybrid = hybrid::HybridPolicy::train_with_regime(200, 200, 11, (2, 5));
    let e2e = hybrid::train_end_to_end_with_regime(200, 11, (2, 5));
    println!(
        "symbolic layer learned on detector-inferred weather facts:\n{}",
        hybrid.gpm()
    );
    println!("{:>28} {:>10} {:>12}", "regime", "hybrid", "end-to-end");
    for (label, range) in [
        ("training (limits 2-5)", (2i64, 5i64)),
        ("shifted (limits 0-1)", (0, 1)),
    ] {
        let (h, s) = hybrid::compare(&hybrid, &e2e, 500, 77, range);
        println!("{label:>28} {:>10} {:>12}", pct(h), pct(s));
    }
}

/// E13 — §V-B: policy explainability (derivations + counterfactuals).
fn explain_report() {
    use agenp_core::explain::{counterfactual, explain_policy, MutableFact};
    header("E13 (§V-B) — policy explainability");
    let train = cav::samples(64, 7);
    let task = cav::learning_task(&train, None);
    let h = Learner::new().learn(&task).expect("learnable");
    let gpm = h.apply(&task.grammar);
    let low = cav::CavContext {
        loa: 2,
        limit: 5,
        rain: false,
        emergency: false,
    };
    println!("why is `accept park` not generated at {low:?}?");
    println!(
        "{}",
        explain_policy(&gpm, &low.to_program(), "accept park").expect("explanation")
    );
    let mutable = vec![MutableFact::parse(
        "loa(2).",
        &["loa(0).", "loa(1).", "loa(3).", "loa(4).", "loa(5)."],
    )];
    match counterfactual(
        &gpm,
        &low.to_program(),
        "accept overtake",
        &mutable,
        true,
        1,
    )
    .expect("counterfactual search")
    {
        Some(cf) => println!("counterfactual: {cf}, the task would have been accepted."),
        None => println!("no single-change counterfactual"),
    }
}

/// E12 — ablations of the design choices in DESIGN.md §5.
fn ablation() {
    header("E12 — ablations: stratified fast path, monotone learner, incremental learning");
    println!("-- solver: stratified fast path vs forced DPLL (birds, n individuals) --");
    println!("{:>8} {:>14} {:>14}", "n", "stratified", "dpll");
    for n in [50usize, 200, 800] {
        let p = agenp_bench::birds_program(n);
        let g = ground(&p).expect("grounds");
        let t1 = Instant::now();
        let r1 = Solver::new().solve(&g);
        let e1 = t1.elapsed();
        let t2 = Instant::now();
        let r2 = Solver::new().force_search(true).solve(&g);
        let e2 = t2.elapsed();
        assert_eq!(r1.models().len(), r2.models().len());
        println!("{n:>8} {e1:>14?} {e2:>14?}");
    }
    println!("\n-- learner: monotone fast path vs generic subset search (CAV) --");
    println!("{:>8} {:>14} {:>14}", "n", "monotone", "generic");
    for n in [4usize, 8, 12] {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let t1 = Instant::now();
        let fast = Learner::new().learn(&task);
        let e1 = t1.elapsed();
        let t2 = Instant::now();
        let slow = Learner::with_options(
            LearnOptions::default()
                .with_force_generic(true)
                .with_max_nodes(50_000_000),
        )
        .learn(&task);
        let e2 = t2.elapsed();
        let note = match (&fast, &slow) {
            (Ok(a), Ok(b)) if a.cost == b.cost => "",
            _ => " (!)",
        };
        println!("{n:>8} {e1:>14?} {e2:>14?}{note}");
    }
    println!("\n-- learner backends: native BnB vs ASP meta-encoding --");
    println!("{:>8} {:>14} {:>14}", "n", "native", "meta");
    for n in [4usize, 6, 8] {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let t1 = Instant::now();
        let a = Learner::new().learn(&task);
        let e1 = t1.elapsed();
        let t2 = Instant::now();
        let b = Learner::new().learn_meta(&task);
        let e2 = t2.elapsed();
        let note = match (&a, &b) {
            (Ok(x), Ok(y)) if x.cost == y.cost => "",
            _ => " (!)",
        };
        println!("{n:>8} {e1:>14?} {e2:>14?}{note}");
    }

    println!("\n-- learner branching: guided vs cost-first (search nodes) --");
    println!("{:>8} {:>14} {:>14}", "n", "guided", "cost-first");
    for n in [32usize, 64, 128] {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let guided = Learner::new().learn_with_stats(&task).expect("learnable").1;
        let costfirst = Learner::with_options(
            LearnOptions::default().with_branching(agenp_learn::Branching::CostFirst),
        )
        .learn_with_stats(&task)
        .expect("learnable")
        .1;
        println!(
            "{n:>8} {:>14} {:>14}",
            guided.search_nodes, costfirst.search_nodes
        );
    }

    println!("\n-- learner: batch vs incremental (relevant examples) --");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "n", "batch", "incremental", "relevant"
    );
    for n in [32usize, 64, 128, 256] {
        let train = cav::samples(n, 7);
        let task = cav::learning_task(&train, None);
        let t1 = Instant::now();
        let _ = Learner::new().learn(&task);
        let e1 = t1.elapsed();
        let t2 = Instant::now();
        let inc = Learner::new().learn_incremental(&task);
        let e2 = t2.elapsed();
        let rel = inc.as_ref().map(|(_, s)| s.relevant).unwrap_or(0);
        println!("{n:>8} {e1:>14?} {e2:>14?} {rel:>10}");
    }
}
