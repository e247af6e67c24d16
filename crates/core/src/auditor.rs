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
//! path**: every opening, and every proof of every used row, is folded
//! into one multi-scalar multiplication a pool worker
//! ([`elgamal::batch_verify_openings`] / [`zkp::verify_rows`]); only
//! when a batch fails does the auditor fall back to per-item verification
//! — parallelized over the [`Pool`] — to name the culprits. The delegated
//! per-voter sweep is likewise spread over the pool; sub-reports merge in
//! voter order, so the report is deterministic for any thread count.

use ddemos_bb::BbSnapshot;
use ddemos_crypto::elgamal::{self, Ciphertext};
use ddemos_crypto::field::Scalar;
use ddemos_crypto::zkp;
use ddemos_protocol::ballot::AuditInfo;
use ddemos_protocol::exec::Pool;
use ddemos_protocol::initdata::BbInit;
use ddemos_protocol::{PartId, SerialNo};

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

/// A pending curve-side opening check collected by pass (d):
/// the claim that `(bit, rand)` opens `ct`, plus where it came from.
struct OpeningInstance {
    serial: SerialNo,
    part: PartId,
    row: usize,
    ct: Ciphertext,
    bit: Scalar,
    rand: Scalar,
}

/// The proofs of one used row, collected by pass (e).
struct RowCheck<'a> {
    serial: SerialNo,
    part: PartId,
    row: usize,
    proof: zkp::RowProof<'a>,
}

/// Verifies `items` with one random-combination sub-batch per pool worker
/// (the whole set is valid iff every sub-batch check passes, so the happy
/// path scales with the pool). Returns `None` when everything verified;
/// otherwise the per-item outcomes from `item_fn`, computed in parallel,
/// so the caller can name the culprits.
fn batched_verify<T: Sync, O: Send>(
    pool: &Pool,
    items: &[T],
    batch_fn: impl Fn(&[T]) -> bool + Sync,
    item_fn: impl Fn(&T) -> O + Sync,
) -> Option<Vec<O>> {
    let sub_batches: Vec<&[T]> = items
        .chunks(items.len().div_ceil(pool.threads()).max(1))
        .collect();
    if pool
        .map(&sub_batches, |sub| batch_fn(sub))
        .into_iter()
        .all(|ok| ok)
    {
        return None;
    }
    Some(pool.map(items, item_fn))
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

    /// Sets the worker count for the fallback and delegated sweeps.
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

        self.verify_openings(&mut report, vote_set, &serials);
        self.verify_proofs(&mut report, vote_set, &challenge);

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

    /// Check (d): openings valid and unit-vector shaped; coverage is the
    /// unused part of voted ballots and both parts of unvoted ballots.
    /// Structural and scalar-side checks run inline while the curve-side
    /// opening equations are collected, then one batched MSM replaces the
    /// per-opening verification (with a parallel per-item fallback that
    /// names the culprits when the batch fails).
    fn verify_openings(
        &self,
        report: &mut AuditReport,
        vote_set: &ddemos_protocol::posts::VoteSet,
        serials: &[SerialNo],
    ) {
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
                            ct: *ct,
                            bit: *bit,
                            rand: *rand,
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
        let outcomes = batched_verify(
            &self.pool,
            &instances,
            |sub| {
                let items: Vec<(Ciphertext, Scalar, Scalar)> =
                    sub.iter().map(|i| (i.ct, i.bit, i.rand)).collect();
                elgamal::batch_verify_openings(&self.init.elgamal_pk, &items)
            },
            |inst| elgamal::verify_opening(&self.init.elgamal_pk, &inst.ct, &inst.bit, &inst.rand),
        );
        let Some(outcomes) = outcomes else {
            report.checks_run += instances.len();
            return;
        };
        for (inst, ok) in instances.iter().zip(outcomes) {
            report.check(ok, || {
                format!(
                    "(d) invalid opening {} {:?} row {}",
                    inst.serial, inst.part, inst.row
                )
            });
        }
    }

    /// Check (e): used-part ZK proofs complete and valid, one check per
    /// OR proof and per sum proof. Every used row's proofs go to one
    /// [`zkp::verify_rows`] MSM a pool worker; a sub-batch that fails
    /// names its failing proofs by [`zkp::or_verify`] and
    /// [`zkp::sum_verify`], row by row in parallel.
    fn verify_proofs(
        &self,
        report: &mut AuditReport,
        vote_set: &ddemos_protocol::posts::VoteSet,
        challenge: &Scalar,
    ) {
        let mut rows: Vec<RowCheck<'_>> = Vec::new();
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
                // fails its row's batch; the per-proof fallback below then
                // checks only the proofs that are there (e.g. a malicious
                // EA publishing short `or_first`).
                report.check(or_resp.len() == row.commitment.len(), || {
                    format!("(e) ZK response arity mismatch {serial} {part:?} row {row_idx}")
                });
                report.check(row.or_first.len() == row.commitment.len(), || {
                    format!("(e) proof first-move arity mismatch {serial} {part:?} row {row_idx}")
                });
                rows.push(RowCheck {
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
                });
            }
        }
        let pk = &self.init.elgamal_pk;
        let outcomes = batched_verify(
            &self.pool,
            &rows,
            |sub| {
                let proofs: Vec<zkp::RowProof<'_>> = sub.iter().map(|check| check.proof).collect();
                zkp::verify_rows(pk, &proofs)
            },
            |check| {
                let p = &check.proof;
                let ors = p.cts.iter().zip(p.or_first).zip(p.or_resp);
                let or_ok: Vec<bool> = ors
                    .map(|((ct, first), resp)| zkp::or_verify(pk, ct, first, resp, &p.c))
                    .collect();
                let sum_ok = zkp::sum_verify(pk, p.cts, p.sum_first, &p.c, &p.sum_z);
                (or_ok, sum_ok)
            },
        );
        let Some(outcomes) = outcomes else {
            // Every row verified, so every row is whole: one OR proof a
            // ciphertext, and the sum proof.
            report.checks_run += rows
                .iter()
                .map(|check| check.proof.cts.len() + 1)
                .sum::<usize>();
            return;
        };
        for (check, (or_ok, sum_ok)) in rows.iter().zip(outcomes) {
            let kinds = or_ok
                .into_iter()
                .map(|ok| ("OR", ok))
                .chain([("sum", sum_ok)]);
            for (kind, ok) in kinds {
                report.check(ok, || {
                    format!(
                        "(e) {kind} proof failed {} {:?} row {}",
                        check.serial, check.part, check.row
                    )
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
