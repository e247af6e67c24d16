//! Auditors (§III-I): anyone can verify the complete election process from
//! the Bulletin Board, and voters can delegate their private checks
//! without revealing how they voted.
//!
//! Checks implemented (lettered as in the paper):
//! (a) within each opened ballot no two vote codes are equal;
//! (b) at most one submitted vote code per ballot part;
//! (c) at most one part used per ballot;
//! (d) all published commitment openings are valid *and* encode unit
//!     vectors;
//! (e) the zero-knowledge proofs of the used ballot parts are complete and
//!     valid under the voter-coin challenge;
//! (f) [delegated] submitted vote codes match what voters report;
//! (g) [delegated] unused-part openings match the voters' printed ballots.
//!
//! Plus the global checks: challenge recomputation from the voters' coins
//! and verification of the homomorphic tally opening against the result.
//!
//! The curve-heavy checks (d) and (e) take the **batch verification
//! path**: each pool worker enters its share of the openings and of the
//! proofs of the used rows into one [`LinearBatch`] — one multi-scalar
//! multiplication — with every opening and every proof under a label of
//! its own, so a failing batch names its culprits itself. The delegated
//! per-voter sweep is likewise spread over the pool; sub-reports merge in
//! voter order, so the report is deterministic for any thread count.

use ddemos_bb::BbSnapshot;
use ddemos_crypto::batch::LinearBatch;
use ddemos_crypto::elgamal::{self, Ciphertext};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::zkp;
use ddemos_protocol::ballot::AuditInfo;
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::BbInit;
use ddemos_protocol::{PartId, SerialNo};
use std::collections::BTreeSet;

/// Outcome of an audit.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Human-readable failures; empty means the election verifies.
    pub failures: Vec<String>,
    /// Number of individual checks that ran.
    pub checks_run: usize,
}

impl AuditReport {
    /// True iff no check failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    fn merge(&mut self, other: AuditReport) {
        self.checks_run += other.checks_run;
        self.failures.extend(other.failures);
    }
}

/// A pending curve-side opening check collected by pass (d): the claim,
/// plus where it came from.
struct OpeningInstance {
    serial: SerialNo,
    part: PartId,
    row: usize,
    claim: elgamal::Opening,
}

/// The proofs of one used row, collected by pass (e), with the first of
/// the labels they take after the openings' ([`RowCheck::label`]).
struct RowCheck<'a> {
    serial: SerialNo,
    part: PartId,
    row: usize,
    proof: zkp::RowProof<'a>,
    first: usize,
}

impl RowCheck<'_> {
    /// The OR proofs the row holds: one a ciphertext that has its first
    /// move and its response.
    fn ors(&self) -> usize {
        let p = &self.proof;
        p.cts.len().min(p.or_first.len()).min(p.or_resp.len())
    }

    /// The label, counted from the first after the openings, of OR proof
    /// `j` (`Some(j)`) or of the sum proof (`None`).
    fn label(&self, proof: Option<usize>) -> usize {
        self.first + proof.unwrap_or(self.ors())
    }
}

/// The public auditor.
pub struct Auditor<'a> {
    init: &'a BbInit,
    snapshot: &'a BbSnapshot,
    pool: Pool,
}

impl<'a> Auditor<'a> {
    /// Creates an auditor over the published init data and a majority-read
    /// snapshot, on the default executor (`DDEMOS_THREADS` / available
    /// parallelism).
    pub fn new(init: &'a BbInit, snapshot: &'a BbSnapshot) -> Auditor<'a> {
        Auditor {
            init,
            snapshot,
            pool: Pool::from_env(),
        }
    }

    /// Sets the worker count for the batch and delegated sweeps.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Auditor<'a> {
        self.pool = Pool::new(threads);
        self
    }

    fn locate_cast_row(
        &self,
        serial: SerialNo,
        code: &ddemos_crypto::votecode::VoteCode,
    ) -> Vec<(PartId, usize)> {
        let mut hits = Vec::new();
        for part in PartId::BOTH {
            if let Some(codes) = self
                .snapshot
                .decrypted_codes
                .get(&(serial, part.index() as u8))
            {
                for (row, c) in codes.iter().enumerate() {
                    if c == code {
                        hits.push((part, row));
                    }
                }
            }
        }
        hits
    }

    /// The init ballots' serials in ascending order (the underlying map is
    /// unordered; sorting keeps reports and parallel chunking
    /// deterministic).
    fn sorted_serials(&self) -> Vec<SerialNo> {
        let mut serials: Vec<SerialNo> = self.init.ballots.keys().copied().collect();
        serials.sort();
        serials
    }

    /// Runs the public checks (a)–(e) plus challenge and tally
    /// verification.
    pub fn verify_public(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let Some(vote_set) = &self.snapshot.vote_set else {
            report.check(false, || "no final vote set published".into());
            return report;
        };
        let serials = self.sorted_serials();

        // (a) opened codes unique within each ballot (parallel over
        // ballots; one check per ballot).
        let duplicate_failures = self.pool.map(&serials, |&serial| {
            let mut codes = Vec::new();
            for part in PartId::BOTH {
                if let Some(c) = self
                    .snapshot
                    .decrypted_codes
                    .get(&(serial, part.index() as u8))
                {
                    codes.extend(c.iter().copied());
                }
            }
            let total = codes.len();
            codes.sort();
            codes.dedup();
            (codes.len() == total)
                .then_some(())
                .ok_or_else(|| format!("(a) duplicate vote codes within ballot {serial}"))
        });
        for outcome in duplicate_failures {
            report.check(outcome.is_ok(), || outcome.unwrap_err());
        }

        // (b)/(c) every cast code appears in exactly one row of one part.
        for (serial, code) in &vote_set.entries {
            let hits = self.locate_cast_row(*serial, code);
            report.check(hits.len() == 1, || {
                format!("(b/c) cast code of {serial} located {} times", hits.len())
            });
        }

        // Challenge recomputation from the voters' coins.
        let mut coins = Vec::new();
        for (serial, code) in &vote_set.entries {
            if let Some((part, _)) = self.locate_cast_row(*serial, code).first() {
                coins.push(part.coin());
            }
        }
        let mut ctx = Vec::new();
        ctx.extend_from_slice(&self.init.params.election_id.0);
        let challenge = zkp::challenge_from_coins(&ctx, &coins);
        report.check(self.snapshot.challenge == Some(challenge), || {
            "challenge does not match the voters' coins".into()
        });

        let openings = self.collect_openings(&mut report, vote_set, &serials);
        let mut proofs_report = AuditReport::default();
        let rows = self.collect_proofs(&mut proofs_report, vote_set, &challenge);
        self.verify_claims(&mut report, proofs_report, &openings, &rows);

        // Tally: recompute the homomorphic total and verify its opening.
        let m = self.init.params.num_options;
        let mut sums = vec![Ciphertext::IDENTITY; m];
        for (serial, code) in &vote_set.entries {
            let Some((part, row)) = self.locate_cast_row(*serial, code).first().copied() else {
                continue;
            };
            if let Some(ballot) = self.init.ballots.get(serial) {
                for (j, ct) in ballot.parts[part.index()][row]
                    .commitment
                    .iter()
                    .enumerate()
                {
                    sums[j] = sums[j].add(ct);
                }
            }
        }
        match (&self.snapshot.tally_opening, &self.snapshot.result) {
            (Some(opening), Some(result)) => {
                report.check(opening.len() == m && result.tally.len() == m, || {
                    "tally arity mismatch".into()
                });
                for (j, ((msg, rand), count)) in opening.iter().zip(&result.tally).enumerate() {
                    report.check(
                        elgamal::verify_opening(&self.init.elgamal_pk, &sums[j], msg, rand),
                        || format!("tally opening invalid for option {j}"),
                    );
                    report.check(msg.to_u64() == Some(*count), || {
                        format!("published count mismatch for option {j}")
                    });
                }
            }
            _ => report.check(false, || "tally opening or result missing".into()),
        }
        report
    }

    /// Check (d), structure: openings present and unit-vector shaped;
    /// coverage is the unused part of voted ballots and both parts of
    /// unvoted ballots. Returns the opening claims for
    /// [`Auditor::verify_claims`].
    fn collect_openings(
        &self,
        report: &mut AuditReport,
        vote_set: &ddemos_protocol::posts::VoteSet,
        serials: &[SerialNo],
    ) -> Vec<OpeningInstance> {
        let mut instances: Vec<OpeningInstance> = Vec::new();
        for serial in serials {
            let ballot = &self.init.ballots[serial];
            let voted_part = vote_set
                .entries
                .get(serial)
                .and_then(|code| self.locate_cast_row(*serial, code).first().copied())
                .map(|(p, _)| p);
            for part in PartId::BOTH {
                let must_open = match voted_part {
                    Some(used) => part == used.other(),
                    None => true,
                };
                if !must_open {
                    continue;
                }
                let Some(opened) = self.snapshot.openings.get(&(*serial, part.index() as u8))
                else {
                    report.check(false, || {
                        format!("(d) missing openings for {serial} part {part:?}")
                    });
                    continue;
                };
                let rows = &ballot.parts[part.index()];
                report.check(opened.len() == rows.len(), || {
                    format!("(d) row count mismatch for {serial} part {part:?}")
                });
                for (row_idx, (opened_row, row)) in opened.iter().zip(rows).enumerate() {
                    // An opened row shorter than the commitment would let
                    // the zip below silently drop the tail unverified.
                    report.check(opened_row.len() == row.commitment.len(), || {
                        format!("(d) opening arity mismatch {serial} {part:?} row {row_idx}")
                    });
                    let mut ones = 0;
                    for (ct, (bit, rand)) in row.commitment.iter().zip(opened_row) {
                        instances.push(OpeningInstance {
                            serial: *serial,
                            part,
                            row: row_idx,
                            claim: (*ct, *bit, *rand),
                        });
                        match bit.to_u64() {
                            Some(0) => {}
                            Some(1) => ones += 1,
                            _ => report.check(false, || {
                                format!("(d) non-bit plaintext {serial} {part:?} row {row_idx}")
                            }),
                        }
                    }
                    report.check(ones == 1, || {
                        format!("(d) row is not a unit vector {serial} {part:?} row {row_idx}")
                    });
                }
            }
        }
        instances
    }

    /// Check (e), structure: every used row's proofs present, one a
    /// ciphertext and the sum proof. Returns the rows for
    /// [`Auditor::verify_claims`].
    fn collect_proofs(
        &self,
        report: &mut AuditReport,
        vote_set: &ddemos_protocol::posts::VoteSet,
        challenge: &Scalar,
    ) -> Vec<RowCheck<'_>> {
        let mut rows: Vec<RowCheck<'_>> = Vec::new();
        let mut first = 0;
        for (serial, code) in &vote_set.entries {
            let Some((part, _)) = self.locate_cast_row(*serial, code).first().copied() else {
                continue;
            };
            let Some(responses) = self
                .snapshot
                .zk_responses
                .get(&(*serial, part.index() as u8))
            else {
                report.check(false, || {
                    format!("(e) missing ZK responses for {serial} used part {part:?}")
                });
                continue;
            };
            let Some(ballot) = self.init.ballots.get(serial) else {
                continue;
            };
            let bb_rows = &ballot.parts[part.index()];
            report.check(responses.len() == bb_rows.len(), || {
                format!("(e) ZK row count mismatch for {serial}")
            });
            for (row_idx, ((or_resp, sum_z), row)) in responses.iter().zip(bb_rows).enumerate() {
                // A response or first-move list shorter than the commitment
                // leaves its ciphertexts without OR proofs; the batch checks
                // only the proofs that are there (e.g. a malicious EA
                // publishing short `or_first`).
                report.check(or_resp.len() == row.commitment.len(), || {
                    format!("(e) ZK response arity mismatch {serial} {part:?} row {row_idx}")
                });
                report.check(row.or_first.len() == row.commitment.len(), || {
                    format!("(e) proof first-move arity mismatch {serial} {part:?} row {row_idx}")
                });
                let check = RowCheck {
                    serial: *serial,
                    part,
                    row: row_idx,
                    proof: zkp::RowProof {
                        cts: &row.commitment,
                        or_first: &row.or_first,
                        or_resp,
                        sum_first: &row.sum_first,
                        sum_z: *sum_z,
                        c: *challenge,
                    },
                    first,
                };
                first = check.label(None) + 1;
                rows.push(check);
            }
        }
        rows
    }

    /// The curve side of checks (d) and (e): every opening claim and every
    /// proof in one [`LinearBatch`] a pool worker, each worker holding its
    /// share of both, every claim under its own label — opening `i` under
    /// `i`, the proofs after them ([`RowCheck::label`]) — so the failing
    /// labels name the culprits: one check an opening, an OR proof and a
    /// sum proof. The (d) results are reported before `proofs_report`,
    /// the (e) structure checks, and the (e) results after.
    fn verify_claims(
        &self,
        report: &mut AuditReport,
        proofs_report: AuditReport,
        openings: &[OpeningInstance],
        rows: &[RowCheck<'_>],
    ) {
        let workers: Vec<usize> = (0..self.pool.threads()).collect();
        let per_opening = openings.len().div_ceil(workers.len()).max(1);
        let per_row = rows.len().div_ceil(workers.len()).max(1);
        let offset = openings.len();
        let row_terms = rows.iter().map(|r| zkp::row_terms(r.proof.cts.len()));
        let terms = (2 * offset + row_terms.sum::<usize>()) / workers.len() + 2;
        let failing: BTreeSet<usize> = self
            .pool
            .map(&workers, |&w| {
                let mut batch = LinearBatch::new(terms);
                let pk = batch.shared(&self.init.elgamal_pk.0);
                let share = openings.iter().enumerate().skip(w * per_opening);
                for (label, o) in share.take(per_opening) {
                    elgamal::push_opening(&mut batch, pk, &o.claim, label);
                }
                for r in rows.iter().skip(w * per_row).take(per_row) {
                    r.proof
                        .push(&mut batch, pk, |proof| offset + r.label(proof));
                }
                batch.check().err().unwrap_or_default()
            })
            .into_iter()
            .flatten()
            .collect();
        for (label, o) in openings.iter().enumerate() {
            let (serial, part, row) = (o.serial, o.part, o.row);
            report.check(!failing.contains(&label), || {
                format!("(d) invalid opening {serial} {part:?} row {row}")
            });
        }
        report.merge(proofs_report);
        for check in rows {
            let (serial, part, row) = (check.serial, check.part, check.row);
            let proofs = (0..check.ors()).map(|j| ("OR", Some(j)));
            for (kind, proof) in proofs.chain([("sum", None)]) {
                report.check(!failing.contains(&(offset + check.label(proof))), || {
                    format!("(e) {kind} proof failed {serial} {part:?} row {row}")
                });
            }
        }
    }

    /// Runs the delegated checks (f)–(g) for voters who handed over their
    /// audit information, on top of the public checks. The per-voter sweep
    /// is spread over the pool; sub-reports merge in voter order.
    pub fn verify_delegated(&self, audits: &[AuditInfo]) -> AuditReport {
        let mut report = self.verify_public();
        let Some(vote_set) = &self.snapshot.vote_set else {
            return report;
        };
        let sub_reports = self.pool.map(audits, |audit| {
            let mut sub = AuditReport::default();
            // (f) the submitted code matches the voter's record.
            sub.check(
                vote_set.entries.get(&audit.serial) == Some(&audit.cast_code),
                || format!("(f) cast code of {} not in the tally set", audit.serial),
            );
            // (g) the opened unused part matches the printed ballot.
            let unused = audit.used_part.other();
            let Some(codes) = self
                .snapshot
                .decrypted_codes
                .get(&(audit.serial, unused.index() as u8))
            else {
                sub.check(false, || {
                    format!("(g) no decrypted codes for {} unused part", audit.serial)
                });
                return sub;
            };
            let Some(opened) = self
                .snapshot
                .openings
                .get(&(audit.serial, unused.index() as u8))
            else {
                sub.check(false, || {
                    format!("(g) no openings for {} unused part", audit.serial)
                });
                return sub;
            };
            for line in &audit.unused_part.lines {
                let Some(row) = codes.iter().position(|c| *c == line.vote_code) else {
                    sub.check(false, || {
                        format!(
                            "(g) printed code for option {} of {} missing from BB",
                            line.option_index, audit.serial
                        )
                    });
                    continue;
                };
                // The opened row must encode exactly this option.
                let opened_row = &opened[row];
                let encoded = opened_row
                    .iter()
                    .position(|(bit, _)| bit.to_u64() == Some(1));
                sub.check(encoded == Some(line.option_index), || {
                    format!(
                        "(g) ballot {} option {} maps to {:?} on the BB",
                        audit.serial, line.option_index, encoded
                    )
                });
            }
            sub
        });
        for sub in sub_reports {
            report.merge(sub);
        }
        report
    }
}

/// Verifies a single voter's vote was recorded (check a voter can run
/// herself from any terminal): her code is in the tally set.
pub fn verify_vote_included(snapshot: &BbSnapshot, audit: &AuditInfo) -> bool {
    snapshot
        .vote_set
        .as_ref()
        .map(|vs| vs.entries.get(&audit.serial) == Some(&audit.cast_code))
        .unwrap_or(false)
}

/// The Scalar type re-exported for doc-link convenience.
pub type TallyOpening = Vec<(Scalar, Scalar)>;
