//! End-to-end amnesia-crash recovery through the harness: power-cycled
//! nodes rebuild from their `ddemos-storage` journals, and the paper's
//! durable obligations — one receipt per ballot, forever; no un-accepted
//! BB writes — survive the restart.

use ddemos_harness::{
    run_scenario_with, Durability, ElectionBuilder, ElectionParams, FaultMix, NetFault,
    NetworkProfile, NodeId, ScenarioOptions, Schedule,
};
use std::time::Duration;

fn params(label: &str) -> ElectionParams {
    ElectionParams::new(label, 8, 3, 4, 3, 3, 2, 0, 20_000).unwrap()
}

/// One VC and one BB power-cycled mid-voting; receipts issued before the
/// crash must be re-issued identically after recovery, and the election
/// must still close, tally, and audit.
#[test]
fn amnesia_mid_voting_preserves_receipts_and_completes() {
    let mut schedule = Schedule::default();
    schedule.push(2_000, NetFault::CrashAmnesia(NodeId::vc(1)));
    schedule.push(3_000, NetFault::CrashAmnesia(NodeId::bb(0)));
    schedule.push(6_000, NetFault::Recover(NodeId::vc(1)));
    schedule.push(6_000, NetFault::Recover(NodeId::bb(0)));

    let election = ElectionBuilder::new(params("amnesia-e2e"))
        .seed(7)
        .virtual_time()
        .network(NetworkProfile::lan())
        .durability(Durability::sim())
        .schedule(schedule)
        .build()
        .unwrap();

    let voting = election.voting().patience(Duration::from_secs(5));
    let mut receipts = Vec::new();
    for (ballot, option) in [(0usize, 0usize), (1, 1), (2, 2)] {
        election.sleep(Duration::from_millis(1_500));
        let record = voting.cast(ballot, option).unwrap();
        receipts.push((ballot, option, record.audit.used_part, record.audit.receipt));
    }

    // Past the heal point: every receipted code must re-yield the same
    // receipt, including from the collector that lost its memory.
    election.sleep(Duration::from_millis(
        8_000u64.saturating_sub(election.now_ms()) + 500,
    ));
    for (ballot, option, part, receipt) in &receipts {
        let again = voting.cast_with_part(*ballot, *option, *part).unwrap();
        assert_eq!(
            again.audit.receipt, *receipt,
            "ballot {ballot}: conflicting receipt after recovery"
        );
    }

    let report = election.finish().unwrap();
    assert_eq!(report.tally(), Some(&[1, 1, 1][..]));
    assert!(report.verified(), "audit must pass after recovery");
    election.shutdown();
}

/// The same flow on real files ([`Durability::File`]): journals land on
/// disk under a temp directory and the election completes.
#[test]
fn file_backed_durability_works_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ddemos-file-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut schedule = Schedule::default();
    schedule.push(1_500, NetFault::CrashAmnesia(NodeId::vc(2)));
    schedule.push(4_000, NetFault::Recover(NodeId::vc(2)));

    let election = ElectionBuilder::new(params("file-durability"))
        .seed(11)
        .virtual_time()
        .network(NetworkProfile::lan())
        .durability(Durability::File(dir.clone()))
        .schedule(schedule)
        .build()
        .unwrap();
    let voting = election.voting().patience(Duration::from_secs(5));
    election.sleep(Duration::from_millis(1_000));
    let first = voting.cast(0, 1).unwrap();
    election.sleep(Duration::from_millis(4_000));
    let again = voting.cast_with_part(0, 1, first.audit.used_part).unwrap();
    assert_eq!(again.audit.receipt, first.audit.receipt);
    let report = election.finish().unwrap();
    assert!(report.verified());
    election.shutdown();

    // The journals are real files.
    assert!(dir.join("vc-0").join("wal.log").exists());
    assert!(dir.join("bb-0").join("wal.log").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance scenario: seeded fuzz runs that crash-amnesia one VC
/// and one BB node mid-voting complete with every safety check (receipt
/// uniqueness across restart included) and liveness within the fault
/// budget.
#[test]
fn seeded_amnesia_scenarios_uphold_all_invariants() {
    let options = ScenarioOptions {
        faults: FaultMix::Amnesia,
        threads: None,
    };
    for seed in 0..4u64 {
        let outcome = run_scenario_with(seed, &options);
        assert_eq!(outcome.plan.schedule.label, "crash-amnesia");
        assert!(outcome.plan.durability, "amnesia plans enable durability");
        assert!(
            outcome.plan.liveness_expected,
            "one VC + one BB power-cycle is within the fault model"
        );
        assert!(
            outcome.passed(),
            "seed {seed} violated invariants:\n{}\nplan:\n{}",
            outcome.violations.join("\n"),
            outcome.plan.describe(),
        );
    }
}

/// Casts one vote for each of options 0, 1 and 2 on ballots 0..3.
fn cast_three(election: &ddemos_harness::Election) {
    let voting = election.voting().patience(Duration::from_secs(5));
    for (ballot, option) in [(0usize, 0usize), (1, 1), (2, 2)] {
        voting.cast(ballot, option).unwrap();
    }
}

/// A BB replica crashed from before the close to after the tally sees
/// none of the writes: the election publishes and audits through the
/// 2-of-3 read majority, and the recovered replica's own board holds no
/// vote set.
#[test]
fn a_crashed_bb_replica_misses_the_publication() {
    let mut schedule = Schedule::default();
    schedule.push(1_000, NetFault::Crash(NodeId::bb(0)));
    let election = ElectionBuilder::new(params("bb-crash"))
        .seed(5)
        .virtual_time()
        .network(NetworkProfile::lan())
        .schedule(schedule)
        .build()
        .unwrap();
    election.sleep(Duration::from_millis(1_500));
    cast_three(&election);
    election.close().unwrap();
    let result = election.tally().unwrap();
    assert_eq!(result.tally, vec![1, 1, 1]);
    election.network().restart(NodeId::bb(0));

    let audit = election.audit().unwrap();
    assert!(audit.ok(), "audit failed: {:?}", audit.failures);
    let board = election.reader().nodes()[0]
        .read()
        .expect("the recovered replica answers");
    assert!(
        board.vote_set.is_none(),
        "a crashed replica accepted a write"
    );
    election.shutdown();
}

/// A BB replica power-cycled between the close and the tally rebuilds
/// from its journal when the fault fires, takes the trustee posts after
/// it recovers, and ends with the same board as the other two.
#[test]
fn a_bb_replica_power_cycled_after_the_close_rebuilds_from_its_journal() {
    let election = ElectionBuilder::new(params("bb-amnesia"))
        .seed(6)
        .virtual_time()
        .network(NetworkProfile::lan())
        .durability(Durability::sim())
        .build()
        .unwrap();
    cast_three(&election);
    election.close().unwrap();
    let at = Duration::from_millis(election.now_ms());
    let net = election.network();
    net.schedule_fault(
        at + Duration::from_millis(100),
        NetFault::CrashAmnesia(NodeId::bb(0)),
    );
    net.schedule_fault(
        at + Duration::from_millis(600),
        NetFault::Recover(NodeId::bb(0)),
    );
    election.sleep(Duration::from_secs(1));
    let rebuilt = election.reader().nodes()[0]
        .read()
        .expect("replica answers");
    assert!(
        rebuilt.challenge.is_some(),
        "the journal replay lost a write"
    );

    election.tally().unwrap();
    let boards: Vec<_> = election
        .reader()
        .nodes()
        .iter()
        .map(|bb| bb.read().expect("replica answers").digest())
        .collect();
    assert_eq!(boards, vec![boards[0]; 3]);
    election.shutdown();
}
