//! Determinism guarantees.
//!
//! 1. The parallel runtime must never change election artifacts: a
//!    `threads(1)` and a `threads(8)` election from the same seed must
//!    produce identical `InitData`, tally, and receipts (per-ballot PRF
//!    seeding makes derivation order-independent, and the chunking
//!    executor preserves input order).
//! 2. The virtual-time runtime must be replayable: two runs of the same
//!    fuzz seed must produce identical tallies, receipts, phase timings,
//!    and `NetStats` — byte-identical `ElectionReport` artifacts.

use ddemos_harness::{
    run_scenario, run_scenario_with, ElectionBuilder, ElectionParams, FaultMix, ScenarioOptions,
};

fn params() -> ElectionParams {
    // The voting window is deliberately enormous: these tests end the
    // election with `finish()` (an explicit close delivered as a
    // virtual-time control envelope), and under a virtual clock the
    // idle poll-tick grid free-runs at wall speed — a reachable `Tend`
    // would race the explicit close against per-node self-close,
    // staggering the announce cascade nondeterministically. Scenario
    // tests that want self-close instead pace to `Tend` with virtual
    // sleeps, which is deterministic.
    ElectionParams::new("determinism", 6, 2, 4, 3, 3, 2, 0, 600_000_000).unwrap()
}

#[test]
fn setup_initdata_is_identical_across_thread_counts() {
    let single = ElectionBuilder::new(params()).seed(42).threads(1);
    let parallel = ElectionBuilder::new(params()).seed(42).threads(8);
    let a = single.build().unwrap();
    let b = parallel.build().unwrap();
    assert_eq!(a.threads(), 1);
    assert_eq!(b.threads(), 8);

    // Printed voter ballots.
    assert_eq!(a.setup.ballots, b.setup.ballots);
    // Per-VC-node rows (hashed codes + signed receipt shares).
    assert_eq!(a.setup.vc_inits.len(), b.setup.vc_inits.len());
    for (va, vb) in a.setup.vc_inits.iter().zip(&b.setup.vc_inits) {
        assert_eq!(va.ballots, vb.ballots, "VC node {}", va.node_index);
    }
    // BB cryptographic payloads (ciphertexts, proofs, encrypted codes).
    assert_eq!(*a.setup.bb_init.ballots, *b.setup.bb_init.ballots);
    // Trustee shares.
    assert_eq!(a.setup.trustee_inits.len(), b.setup.trustee_inits.len());
    for (ta, tb) in a.setup.trustee_inits.iter().zip(&b.setup.trustee_inits) {
        assert_eq!(ta.ballots, tb.ballots, "trustee {}", ta.index);
    }

    a.shutdown();
    b.shutdown();
}

#[test]
fn full_election_is_identical_across_thread_counts() {
    let votes = [0usize, 1, 0, 0];
    let mut outcomes = Vec::new();
    for threads in [1usize, 8] {
        let election = ElectionBuilder::new(params())
            .seed(7)
            .threads(threads)
            .build()
            .unwrap();
        let voting = election.voting();
        for (ballot, &option) in votes.iter().enumerate() {
            voting.cast(ballot, option).unwrap();
        }
        let report = election.finish().unwrap();
        assert!(report.verified(), "audit failed at threads({threads})");
        assert_eq!(report.threads, threads);
        outcomes.push((
            report.tally().unwrap().to_vec(),
            report.receipts.clone(),
            report.audit.as_ref().unwrap().checks_run,
        ));
        election.shutdown();
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0].0, vec![3, 1]);
}

#[test]
fn metrics_snapshot_is_identical_across_runs_and_thread_counts() {
    // The telemetry snapshot is part of the deterministic artifact set:
    // under virtual time, the same seed must yield a byte-identical
    // `MetricsSnapshot` canonical text — across repeat runs AND across
    // worker-thread counts (metrics are recorded per node and merged in
    // node-id order, never in completion order). Driver-loop inputs
    // (idle ticks, the close/stop flags) are wall-scheduling dependent
    // and therefore live under `~`-prefixed unstable names, which the
    // canonical text excludes.
    let votes = [0usize, 1, 0, 0];
    let run = |threads: usize| {
        let election = ElectionBuilder::new(params())
            .seed(11)
            .threads(threads)
            .virtual_time()
            .build()
            .unwrap();
        let voting = election.voting();
        for (ballot, &option) in votes.iter().enumerate() {
            voting.cast(ballot, option).unwrap();
        }
        let report = election.finish().unwrap();
        election.shutdown();
        report.metrics
    };
    let a = run(1);
    let b = run(1);
    let c = run(8);
    assert_eq!(a.domain, ddemos_harness::TimeDomain::Virtual);
    let text = a.canonical_text();
    assert!(
        text.contains("vc.step_ns|vote|Vote"),
        "snapshot missing the vote-phase step family:\n{text}"
    );
    assert!(
        text.contains("bb.step_ns"),
        "snapshot missing BB step metrics:\n{text}"
    );
    assert!(
        !text.contains('~'),
        "unstable metrics leaked into the canonical text:\n{text}"
    );
    assert_eq!(text, b.canonical_text(), "same-seed replay diverged");
    assert_eq!(text, c.canonical_text(), "snapshot depends on thread count");
}

#[test]
fn batched_verification_and_adaptive_commit_replay_byte_identically() {
    // The batch-first verification pipeline (burst-drained driver inputs,
    // `MsgVerifier` cache warm-up, one-MSM batch checks) and the
    // adaptive group-commit window are pure functions of the input
    // sequence: with both enabled and SimDisk journals on, the same seed
    // must still produce byte-identical artifacts — tally, receipts, and
    // the canonical metrics snapshot — across repeat runs AND worker
    // thread counts. (Replicas on real sockets take multi-envelope
    // bursts through the same batch path; `tests/tcp_e2e.rs` pins their
    // artifacts to the in-process run's.)
    let votes = [0usize, 1, 0, 0];
    let run = |threads: usize| {
        let election = ElectionBuilder::new(params())
            .seed(23)
            .threads(threads)
            .virtual_time()
            .durability(ddemos_harness::Durability::sim())
            .adaptive_commit(true)
            .build()
            .unwrap();
        let voting = election.voting();
        for (ballot, &option) in votes.iter().enumerate() {
            voting.cast(ballot, option).unwrap();
        }
        let report = election.finish().unwrap();
        assert!(report.verified(), "audit failed at threads({threads})");
        let artifacts = (
            report.tally().unwrap().to_vec(),
            report.receipts.clone(),
            report.metrics.canonical_text(),
        );
        election.shutdown();
        artifacts
    };
    let a = run(1);
    let b = run(1);
    let c = run(8);
    assert_eq!(a.0, vec![3, 1]);
    assert!(
        a.2.contains("storage.fsync_ns"),
        "sim journals should charge fsyncs:\n{}",
        a.2
    );
    assert_eq!(a, b, "same-seed replay diverged with batching enabled");
    assert_eq!(
        a, c,
        "artifacts depend on thread count with batching enabled"
    );
}

#[test]
fn scenario_seed_replays_byte_identically() {
    // Covers a clean seed and (if present in range) a faulty one; the
    // fingerprint includes tally, every receipt, virtual phase timings,
    // and all NetStats counters.
    for seed in [0u64, 1, 2, 3] {
        let a = run_scenario(seed);
        let b = run_scenario(seed);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "seed {seed} did not replay identically"
        );
        assert_eq!(a.violations, b.violations, "seed {seed}");
    }
}

#[test]
fn crash_amnesia_schedules_replay_byte_identically_across_thread_counts() {
    // The recovery path — WAL replay, SimDisk latency charges, the
    // receipt-uniqueness recheck — must be as deterministic as the rest
    // of the simulation: same seed → byte-identical fingerprint, at any
    // worker-thread count.
    for seed in [0u64, 1, 2] {
        let amnesia = |threads| {
            run_scenario_with(
                seed,
                &ScenarioOptions {
                    faults: FaultMix::Amnesia,
                    threads,
                },
            )
        };
        let a = amnesia(None);
        assert_eq!(
            a.plan.schedule.label, "crash-amnesia",
            "amnesia mode forces the class"
        );
        let b = amnesia(None);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "seed {seed}: amnesia replay diverged"
        );
        let single = amnesia(Some(1));
        let parallel = amnesia(Some(4));
        assert_eq!(
            single.fingerprint, parallel.fingerprint,
            "seed {seed}: recovery replay depends on thread count"
        );
        assert_eq!(a.fingerprint, single.fingerprint, "seed {seed}");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(100);
    let b = run_scenario(101);
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "different seeds should produce different artifacts"
    );
}

/// 3. The sans-I/O `VcCore` must be a pure function of its input
///    sequence: replaying the `(input, now_ms)` stream a live SimNet
///    thread driver recorded into a *fresh* core — a second, completely
///    different driver — must reproduce every output byte-for-byte
///    (sends, finalized-set deliveries, timer arms).
#[test]
fn vc_core_step_sequences_are_byte_identical_across_drivers() {
    use ddemos_ea::{ElectionAuthority, SetupProfile};
    use ddemos_protocol::exec::Pool;
    use ddemos_vc::{MemoryStore, StepTrace, VcBehavior, VcCore, VcInput, VcNodeConfig};

    let num_vc = params().num_vc;
    let traces: Vec<StepTrace> = (0..num_vc).map(|_| StepTrace::new()).collect();
    let election = ElectionBuilder::new(params())
        .seed(77)
        .vc_traces(traces.iter().cloned())
        .build()
        .unwrap();
    let voting = election.voting();
    for (ballot, option) in [(0usize, 1usize), (1, 0), (2, 1)] {
        voting.cast(ballot, option).unwrap();
    }
    let report = election.finish().unwrap();
    assert_eq!(report.tally(), Some(&[1, 2][..]));
    election.shutdown();

    // Re-derive the identical initialization data (EA setup is a pure
    // function of (params, seed)) and drive fresh cores by replay.
    let pool = Pool::new(1);
    let mut setup = ElectionAuthority::new(params(), 77).setup_with(SetupProfile::Full, &pool);
    let mut delivered = 0usize;
    let mut total_steps = 0usize;
    for (index, trace) in traces.iter().enumerate() {
        let steps = trace.take();
        assert!(!steps.is_empty(), "node {index} recorded no steps");
        total_steps += steps.len();
        let mut init = setup.vc_inits[index].clone();
        let rows = std::mem::take(&mut init.ballots);
        let mut core = VcCore::new(
            init,
            MemoryStore::new(rows, params().num_ballots),
            VcBehavior::Honest,
            VcNodeConfig::default().poll,
            setup.consensus_beacon,
            false,
        );
        let _ = core.start();
        for (step_no, step) in steps.iter().enumerate() {
            let input = VcInput::decode(&step.input)
                .unwrap_or_else(|e| panic!("node {index} step {step_no}: undecodable input {e}"));
            let outputs = core.step(input, step.now_ms);
            let encoded: Vec<Vec<u8>> = outputs.iter().map(|o| o.encode()).collect();
            assert_eq!(
                encoded, step.outputs,
                "node {index} step {step_no}: replay diverged from the live driver"
            );
            for output in &outputs {
                if matches!(output, ddemos_vc::VcOutput::Deliver(_)) {
                    delivered += 1;
                }
            }
        }
    }
    // Every node finalized exactly once, and the traces were non-trivial.
    assert_eq!(delivered, num_vc, "finalized-set deliveries");
    assert!(total_steps > num_vc * 10, "suspiciously short traces");
    // Silence the unused-field warning: vc_inits was partially consumed.
    setup.vc_inits.clear();
}

/// 4. Both arithmetics compute the same election: the digest of
///    `scenario_fuzz --seed 0`'s fingerprint is pinned, so the default
///    build (the vector kernels this CPU offers) and the `portable` build
///    (`cargo test --features ddemos-crypto/portable`) must each reproduce
///    it byte for byte.
#[test]
fn scenario_seed_0_matches_the_pinned_fingerprint() {
    let outcome = run_scenario(0);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    let digest = ddemos_crypto::sha256::sha256(outcome.fingerprint.as_bytes());
    let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "7a9f85e8f67574bf24ddd5d481e718dd0af2d5ecb438d869d5e69437a1eb9787",
        "fingerprint of seed 0 (kernels {}):\n{}",
        ddemos_crypto::cpu::backend(),
        outcome.fingerprint
    );
}
