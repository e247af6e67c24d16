//! Facade-level integration tests: the `ElectionBuilder` → `Election`
//! lifecycle, builder validation, store kinds, and the report type.

use ddemos_harness::{
    BuildError, ElectionBuilder, ElectionParams, NetworkProfile, NodeId, StorageModel, StoreKind,
    VcBehavior,
};
use std::time::Duration;

/// The headline scenario: a 4-VC / 4-BB / 3-trustee (threshold 2)
/// election with one Byzantine vote collector, driven end to end through
/// the facade — the tally is exact and the audit passes.
#[test]
fn full_lifecycle_with_byzantine_collector() {
    let params = ElectionParams::new("harness-e2e", 8, 3, 4, 4, 3, 2, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_nodes(4)
        .bb_nodes(4)
        .trustees(3, 2)
        .network(NetworkProfile::lan())
        .adversary(NodeId::vc(2), VcBehavior::CorruptShares)
        .seed(0x4A41)
        .build()
        .expect("election builds");

    let voting = election.voting().patience(Duration::from_secs(10));
    let votes = [(0usize, 0usize), (1, 1), (2, 2), (3, 1), (4, 1)];
    for &(ballot, option) in &votes {
        voting
            .cast(ballot, option)
            .expect("voter obtains a receipt");
    }

    let finalized = election.close().expect("vote-set consensus completes");
    assert!(finalized.len() >= election.params().vc_quorum());

    let result = election.tally().expect("tally publishes");
    assert_eq!(result.tally, vec![1, 3, 1]);
    assert_eq!(result.ballots_counted, 5);

    let audit = election.audit().expect("audit runs");
    assert!(audit.ok(), "audit failures: {:?}", audit.failures);

    let report = election.report();
    assert_eq!(report.tally(), Some(&[1, 3, 1][..]));
    assert!(report.verified());
    assert_eq!(report.receipts.len(), 5);
    assert!(report.net.sent > 0);
    assert!(report.timings.vote_collection > Duration::ZERO);
    assert!(report.timings.vote_set_consensus > Duration::ZERO);
    assert!(report.timings.publish_result > Duration::ZERO);

    election.shutdown();
}

#[test]
fn builder_rejects_bad_adversary_and_drift_targets() {
    let params = ElectionParams::new("harness-bad", 2, 2, 4, 3, 5, 3, 0, 1_000).unwrap();
    let err = ElectionBuilder::new(params.clone())
        .adversary(NodeId::vc(9), VcBehavior::Crashed)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::BadNode(NodeId::vc(9)));

    let err = ElectionBuilder::new(params.clone())
        .adversary(NodeId::bb(0), VcBehavior::Crashed)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::BadNode(NodeId::bb(0)));

    let err = ElectionBuilder::new(params.clone())
        .clock_drift(NodeId::trustee(0), 10)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::BadNode(NodeId::trustee(0)));

    // Builder-adjusted parameters are revalidated.
    let err = ElectionBuilder::new(params.clone())
        .trustees(3, 9)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::Params(_)));

    // Over-length positional vectors are rejected, not silently truncated.
    let err = ElectionBuilder::new(params.clone())
        .vc_behaviors(vec![VcBehavior::Crashed; 7])
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::BadNode(NodeId::vc(4)));
    let err = ElectionBuilder::new(params.clone())
        .clock_drifts([1, 2, 3, 4, 5])
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::BadNode(NodeId::vc(4)));

    // Partial materialization needs the VC-only profile.
    let err = ElectionBuilder::new(params)
        .materialize_first(1)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::PartialSetupRequiresVcOnly);
}

#[test]
fn latency_store_election_still_collects_votes() {
    let params = ElectionParams::new("harness-disk", 1 << 20, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let model = StorageModel::default();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .store(StoreKind::Latency(model))
        .materialize_first(3)
        .seed(0x5A)
        .build()
        .expect("election builds");
    // Stores report the full registered electorate while holding only the
    // materialized cast range.
    assert_eq!(election.setup.ballots.len(), 3);
    assert_eq!(election.params().num_ballots, 1 << 20);
    let voting = election.voting();
    for i in 0..3usize {
        voting
            .cast(i, i % 2)
            .expect("vote lands despite modelled disk latency");
    }
    election.shutdown();
}

#[test]
fn virtual_store_derives_rows_on_demand() {
    // Nothing is materialized per VC node: every row is PRF-derived at
    // lookup time from the retained derivation state.
    let params = ElectionParams::new("harness-virt", 50_000, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .store(StoreKind::Virtual)
        .materialize_first(2)
        .seed(0x56)
        .build()
        .expect("election builds");
    let voting = election.voting();
    let r0 = voting.cast(0, 1).expect("vote on a derived row");
    let r1 = voting.cast(1, 0).expect("vote on another derived row");
    assert_ne!(r0.audit.receipt, r1.audit.receipt);
    election.shutdown();
}

#[test]
fn store_kind_does_not_change_receipts() {
    // Every store kind reaches the collectors through the one spawn path:
    // the same seed and casts give byte-identical receipts whichever
    // store serves the rows.
    let latency = StorageModel {
        base: Duration::from_micros(200),
        per_level: Duration::ZERO,
        per_sqrt_million: Duration::ZERO,
    };
    let run = |store: StoreKind| {
        let params =
            ElectionParams::new("harness-stores", 1_000, 3, 4, 1, 1, 1, 0, 600_000).unwrap();
        let election = ElectionBuilder::new(params)
            .vc_only()
            .store(store)
            .materialize_first(4)
            .seed(0x5708)
            .build()
            .expect("election builds");
        let voting = election.voting();
        let audits: Vec<_> = (0..4usize)
            .map(|i| voting.cast(i, i % 3).expect("vote lands").audit)
            .collect();
        election.shutdown();
        audits
    };
    let memory = run(StoreKind::Memory);
    assert_eq!(run(StoreKind::Latency(latency)), memory);
    assert_eq!(run(StoreKind::Virtual), memory);
}

#[test]
fn finish_on_vc_only_election_skips_tally_and_audit() {
    // `SetupProfile::VcOnly` still deals trustee key material, so this
    // must key off the profile: finish() skips tally/audit instead of
    // pushing to the BB and failing on the missing challenge.
    let params = ElectionParams::new("harness-vconly-fin", 3, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .seed(4)
        .build()
        .unwrap();
    election.voting().cast(0, 1).expect("vote lands");
    let report = election
        .finish()
        .expect("finish skips the full-setup phases");
    assert!(report.result.is_none(), "no tally on a vc_only election");
    assert!(report.audit.is_none(), "no audit on a vc_only election");
    assert_eq!(report.receipts.len(), 1);
    election.shutdown();
}

#[test]
fn close_is_idempotent_and_finish_after_manual_close_succeeds() {
    // The fraud_detection pattern (manual close/tally/audit) composed with
    // the quickstart pattern (finish() for the report): the second close()
    // inside finish() must return the cached vote sets immediately instead
    // of re-awaiting a quorum that can never arrive.
    let params = ElectionParams::new("harness-reclose", 3, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params).seed(8).build().unwrap();
    election.voting().cast(0, 0).expect("vote lands");
    let first = election.close().expect("close completes");
    let t0 = std::time::Instant::now();
    let again = election.close().expect("second close returns cached sets");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "second close must not re-await"
    );
    assert_eq!(first.len(), again.len());
    // Manual tally, then finish(): the tally must not re-run the trustees
    // or double-count the publish timing.
    election.tally().expect("manual tally");
    let publish_before = election.report().timings.publish_result;
    let report = election.finish().expect("finish after manual close");
    assert_eq!(
        report.timings.publish_result, publish_before,
        "finish() must not re-run the tally"
    );
    assert_eq!(report.result.as_ref().expect("tally").tally, vec![1, 0]);
    assert!(report.verified());
    election.shutdown();
}

#[test]
fn tally_after_close_on_vc_only_election_is_phase_unavailable() {
    let params = ElectionParams::new("harness-vconly-t", 2, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .seed(5)
        .build()
        .unwrap();
    election.close().expect("consensus completes");
    assert!(matches!(
        election.tally(),
        Err(ddemos_harness::ElectionError::PhaseUnavailable(_))
    ));
    election.shutdown();
}

#[test]
fn close_resumes_from_sets_drained_by_await_vote_sets() {
    // The low-level helper and the phase handle share the one-shot
    // channel; close() must resume from sets await_vote_sets drained.
    let params = ElectionParams::new("harness-drain", 2, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .seed(7)
        .build()
        .unwrap();
    election.close_polls();
    let quorum = election.params().vc_quorum();
    let drained = election
        .await_vote_sets(quorum, Duration::from_secs(30))
        .expect("quorum arrives");
    assert_eq!(drained.len(), quorum);
    let t0 = std::time::Instant::now();
    let sets = election.close().expect("close resumes from drained sets");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "close must not re-await the quorum"
    );
    assert_eq!(sets.len(), quorum);
    election.shutdown();
}

#[test]
fn virtual_store_materializes_nothing_by_default() {
    // No `materialize_first`: build() must not derive 100k ballots.
    let params = ElectionParams::new("harness-virt0", 100_000, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let t0 = std::time::Instant::now();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .store(StoreKind::Virtual)
        .seed(6)
        .build()
        .expect("election builds");
    assert!(election.setup.ballots.is_empty());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "virtual build must not derive the electorate eagerly"
    );
    election.shutdown();
}

#[test]
fn vc_only_election_reports_phase_unavailable_for_tally() {
    let params = ElectionParams::new("harness-vconly", 2, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .seed(1)
        .build()
        .unwrap();
    assert!(matches!(
        election.tally(),
        Err(ddemos_harness::ElectionError::PhaseUnavailable(_))
    ));
    // close() on a VC-only election still drives vote-set consensus.
    let sets = election.close().expect("consensus completes");
    assert_eq!(sets.len(), election.params().vc_quorum());
    election.shutdown();
}

#[test]
fn workload_through_facade_counts_every_vote() {
    let params = ElectionParams::new("harness-wl", 40, 2, 4, 1, 1, 1, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .vc_only()
        .seed(2)
        .build()
        .unwrap();
    let stats = election.voting().run(&ddemos_harness::Workload {
        concurrency: 8,
        total_votes: 40,
        first_ballot: 0,
        patience: Duration::from_secs(30),
        seed: 7,
    });
    assert_eq!(stats.votes_cast, 40);
    assert_eq!(stats.failures, 0);
    let report = election.report();
    assert_eq!(report.workload.as_ref().unwrap().votes_cast, 40);
    assert!(report.timings.vote_collection >= stats.duration);
    election.shutdown();
}
