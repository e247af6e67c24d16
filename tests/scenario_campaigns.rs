//! PR-7 fault surface: gray partitions, schedulable disk faults,
//! state-triggered adversaries, campaign composition, and the
//! coverage-guided corpus.

use ddemos_harness::{
    campaign_from_seed, guided_coverage_search, run_campaign, run_plan, run_scenario_with, Corpus,
    DiskPool, FaultMix, NodeId, ScenarioBuilder, ScenarioOptions, ScenarioPlan, Schedule,
    VcBehavior,
};
use std::time::Duration;

fn options(faults: FaultMix) -> ScenarioOptions {
    ScenarioOptions {
        faults,
        threads: None,
    }
}

#[test]
fn gray_one_way_cut_stays_within_the_fault_model() {
    // A 100% one-way cut against one collector is one fault (the victim
    // is deaf or mute, everyone else talks freely): liveness must hold.
    let seed = (0..64u64)
        .find(|&s| ScenarioPlan::from_seed_with(s, FaultMix::Gray).liveness_expected)
        .expect("a full-cut gray seed exists");
    let outcome = run_scenario_with(seed, &options(FaultMix::Gray));
    assert!(
        outcome.passed(),
        "gray seed {seed} violated invariants:\n{}\nplan:\n{}",
        outcome.violations.join("\n"),
        outcome.plan.describe(),
    );
}

#[test]
fn lossy_gray_link_still_checks_safety() {
    // Probabilistic loss voids the liveness guarantee (like loss bursts)
    // but safety must survive it.
    let seed = (0..64u64)
        .find(|&s| !ScenarioPlan::from_seed_with(s, FaultMix::Gray).liveness_expected)
        .expect("a lossy gray seed exists");
    let outcome = run_scenario_with(seed, &options(FaultMix::Gray));
    assert!(
        outcome.passed(),
        "lossy gray seed {seed} violated safety:\n{}",
        outcome.violations.join("\n"),
    );
}

#[test]
fn gray_budget_counts_the_smaller_side_in_both_directions() {
    // Deaf (rest → victim cut) and mute (victim → rest cut) are both one
    // fault charged to the victim, never to the larger group.
    for seed in 0..32u64 {
        let plan = ScenarioPlan::from_seed_with(seed, FaultMix::Gray);
        let targets = plan.schedule.vc_budget_targets();
        assert!(
            targets.len() <= 1,
            "seed {seed}: gray cut charged {targets:?} against f_v = 1"
        );
    }
}

#[test]
fn full_disk_degrades_the_replica_without_breaking_receipts() {
    // The device under collector 0 fills up *before* most casts, so the
    // replica must journal-fail, degrade to read-only, and refuse new
    // votes — while the other three collectors carry every voter to a
    // receipt, and re-submissions reproduce identical receipts.
    let script = ScenarioBuilder::new("disk-early-full")
        .at_ms(1_200, |t| t.disk_full("vc-0"))
        .at_ms(6_000, |t| t.slow_fsync("bb-1", Duration::from_millis(30)))
        .at_ms(24_000, |t| t.disk_restore("bb-1"))
        .at_ms(30_000, |t| t.disk_heal("vc-0"))
        .build();
    let mut plan = ScenarioPlan::from_seed_with(3, FaultMix::Disk);
    plan.schedule = Schedule::default();
    plan.schedule.label = script.label.clone();
    plan.extras = script;
    plan.behaviors = vec![VcBehavior::Honest; 4];
    plan.liveness_expected = true;
    plan.durability = true;

    let pool = DiskPool::new();
    let outcome = run_plan(&plan, &options(FaultMix::Disk), Some(pool.clone()));
    assert!(
        outcome.passed(),
        "disk-fault scenario violated invariants:\n{}\nfingerprint:\n{}",
        outcome.violations.join("\n"),
        outcome.fingerprint,
    );
    // The runner executed the disk events at their virtual times…
    assert!(outcome.fingerprint.contains("disk vc-0: full"));
    assert!(outcome.fingerprint.contains("disk bb-1: slow fsync 30ms"));
    // …and the full device genuinely rejected appends: the faulted
    // journal stays far behind its healthy peers.
    let faulted = pool.get("vc-0").expect("vc-0 journal exists").appended();
    let healthy = pool.get("vc-1").expect("vc-1 journal exists").appended();
    assert!(
        faulted < healthy,
        "vc-0 appended {faulted} bytes, vc-1 {healthy}: the full device never rejected a write"
    );
}

#[test]
fn slow_fsync_brownout_meets_liveness_in_virtual_time() {
    // A pathological 80 ms fsync on two journals is charged on the
    // virtual clock: the election slows down in virtual time but every
    // voter still gets a receipt well within the voting window.
    let script = ScenarioBuilder::new("disk-brownout")
        .at_ms(1_000, |t| {
            t.slow_fsync("vc-1", Duration::from_millis(80))
                .slow_fsync("bb-0", Duration::from_millis(80))
        })
        .at_ms(26_000, |t| t.disk_restore("vc-1").disk_restore("bb-0"))
        .build();
    let mut plan = ScenarioPlan::from_seed_with(7, FaultMix::Disk);
    plan.schedule = Schedule::default();
    plan.schedule.label = script.label.clone();
    plan.extras = script;
    plan.behaviors = vec![VcBehavior::Honest; 4];
    plan.liveness_expected = true;
    plan.durability = true;
    let outcome = run_plan(&plan, &options(FaultMix::Disk), None);
    assert!(
        outcome.passed(),
        "brown-out scenario violated invariants:\n{}",
        outcome.violations.join("\n"),
    );
}

#[test]
fn adaptive_adversary_seeds_uphold_the_invariants() {
    for seed in 0..4u64 {
        let outcome = run_scenario_with(seed, &options(FaultMix::Adaptive));
        assert!(
            outcome.passed(),
            "adaptive seed {seed} violated invariants:\n{}\nplan:\n{}",
            outcome.violations.join("\n"),
            outcome.plan.describe(),
        );
    }
}

#[test]
fn campaign_of_three_elections_is_safe_and_deterministic() {
    // The acceptance campaign: a gray partition, a mid-election full
    // disk, and a state-triggered equivocating collector across three
    // sequential elections over one shared disk pool. Pick a campaign
    // seed whose adaptive election draws the equivocator specifically.
    let seed = (0..64u64)
        .find(|&s| {
            campaign_from_seed(s, 3).elections.iter().any(|e| {
                e.extras
                    .adversaries
                    .iter()
                    .any(|(_, a)| a.action() == VcBehavior::EquivocalEndorser)
            })
        })
        .expect("a campaign seed with an equivocating adversary exists");
    let plan = campaign_from_seed(seed, 3);
    let labels: Vec<&str> = plan
        .elections
        .iter()
        .map(|e| e.schedule.label.as_str())
        .collect();
    assert_eq!(
        labels,
        ["gray-partition", "disk-fault", "adaptive-adversary"],
        "the rotation covers all three campaign fault surfaces"
    );
    assert!(
        plan.elections[1]
            .extras
            .events
            .iter()
            .any(|(_, e)| format!("{e:?}").contains("Full")),
        "the disk election fills a device mid-run"
    );

    let opts = ScenarioOptions::default();
    let first = run_campaign(&plan, &opts);
    assert!(
        first.passed(),
        "campaign seed {seed} violated invariants:\n{}",
        first.violations.join("\n"),
    );
    let second = run_campaign(&plan, &opts);
    assert_eq!(
        first.fingerprint, second.fingerprint,
        "campaign seed {seed}: two runs diverged"
    );
    // The campaign fingerprint records the carried-over device wear.
    assert!(first.fingerprint.contains("disk vc-0:"));
}

#[test]
fn guided_search_reaches_interleavings_uniform_seeds_miss() {
    // 256 uniform seeds: the generators clamp fault times to the voting
    // window (heals by 32 s), so no (fault × phase) pair ever lands in
    // the close phase — vote-set consensus territory.
    let mut corpus = Corpus::default();
    corpus.seed_uniform(0, 256, FaultMix::Any);
    let uniform = corpus.covered();
    assert!(
        uniform.iter().all(|(_, phase)| phase != "close"),
        "uniform seeds unexpectedly reached the close phase: {uniform:?}"
    );
    // The guided mutation shifts corpus seeds' events later; it must
    // discover at least one close-phase interleaving the uniform sweep
    // structurally cannot produce.
    let discovered = guided_coverage_search(&mut corpus, 64);
    assert!(
        discovered.iter().any(|(_, phase)| phase == "close"),
        "guided search found no close-phase interleaving: {discovered:?}"
    );
    for pair in &discovered {
        assert!(
            !uniform.contains(pair),
            "pair {pair:?} was already uniformly covered"
        );
    }
    // The enriched corpus survives the CI artifact roundtrip.
    let reloaded = Corpus::from_text(&corpus.to_text()).expect("corpus roundtrips");
    assert_eq!(reloaded.covered(), corpus.covered());
}

#[test]
fn triggered_adversary_fires_within_the_budget() {
    // Harness-level companion to the crate-side unit tests: an armed
    // equivocator that fires once must not break safety, and the DSL
    // carries it into the build.
    let script = ScenarioBuilder::new("one-shot-equivocator")
        .trigger(
            NodeId::vc(2),
            ddemos_harness::Adversary::equivocate_after_endorsements(1),
        )
        .build();
    let mut plan = ScenarioPlan::from_seed_with(9, FaultMix::Adaptive);
    plan.schedule = Schedule::default();
    plan.schedule.label = script.label.clone();
    plan.extras = script;
    plan.behaviors = vec![VcBehavior::Honest; 4];
    plan.liveness_expected = true;
    let outcome = run_plan(&plan, &options(FaultMix::Adaptive), None);
    assert!(
        outcome.passed(),
        "one-shot equivocator violated invariants:\n{}",
        outcome.violations.join("\n"),
    );
}
