//! The durable projection of a VC node's ballot state.
//!
//! The paper's prototype keeps collector state in PostgreSQL so that a
//! node that crashes can rejoin with its obligations intact (§III-D/E,
//! §V). Its safety argument names what must survive a restart: the code
//! a node endorsed ("at most one UCERT per serial") and the UCERT held by
//! every collector that disclosed a receipt share ("a receipt implies the
//! vote is tallied"). This module defines
//!
//! * [`BallotSlot`] — the per-ballot state machine (shared with
//!   `core.rs`), split into a durable projection (status, used code,
//!   endorsement, UCERT, shares, receipt) and volatile scratch (waiting
//!   clients, collected endorsement signatures) that recovery legitimately
//!   loses;
//! * [`VcRecord`] — the WAL record vocabulary, one record per state
//!   transition, with the **durability table**: which output, if any,
//!   must wait for each record to be on disk;
//! * [`DurableView`] — a view over the node's slot map implementing
//!   [`ddemos_storage::Durable`], so a `Journal` can snapshot, replay and
//!   compact it.
//!
//! The encoding deliberately excludes the volatile fields, so a node
//! state rebuilt from snapshot + WAL replay is **byte-identical** (under
//! [`DurableView::encode_snapshot`]) to the never-crashed original — the
//! equivalence the recovery tests assert.

use ddemos_crypto::votecode::VoteCode;
use ddemos_crypto::vss::SignedShare;
use ddemos_protocol::codec;
use ddemos_protocol::messages::UCert;
use ddemos_protocol::wire::{Reader, WireError, Writer};
use ddemos_protocol::{NodeId, PartId, SerialNo};
use ddemos_storage::Durable;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Voting status of one ballot slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// No certified vote seen.
    NotVoted,
    /// A UCERT exists; receipt reconstruction in progress.
    Pending,
    /// Receipt reconstructed.
    Voted,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::NotVoted => 0,
            Status::Pending => 1,
            Status::Voted => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Status, WireError> {
        match v {
            0 => Ok(Status::NotVoted),
            1 => Ok(Status::Pending),
            2 => Ok(Status::Voted),
            _ => Err(WireError::BadValue),
        }
    }
}

/// Per-ballot state. The non-`Vec` fields plus `shares` form the durable
/// projection; `endorsements` and `waiting` are volatile scratch a
/// restart legitimately loses (peers re-drive endorsements, voters
/// retry).
pub(crate) struct BallotSlot {
    pub(crate) status: Status,
    /// The unique code active for this ballot, with its located position.
    pub(crate) used: Option<(VoteCode, PartId, usize)>,
    /// The code this node has endorsed (at most one per ballot).
    pub(crate) my_endorsed: Option<VoteCode>,
    /// Endorsement signatures collected while acting as responder
    /// (volatile).
    pub(crate) endorsements: Vec<(u32, ddemos_crypto::schnorr::Signature)>,
    pub(crate) ucert: Option<Arc<UCert>>,
    /// Verified receipt shares (distinct share indices).
    pub(crate) shares: Vec<SignedShare>,
    pub(crate) my_share_sent: bool,
    pub(crate) receipt: Option<u64>,
    /// Clients awaiting a receipt (volatile): (client, request id, code).
    pub(crate) waiting: Vec<(NodeId, u64, VoteCode)>,
}

impl BallotSlot {
    /// Stores a verified (or own, EA-dealt) receipt share unless its
    /// index is already held. Returns whether the share was added.
    pub(crate) fn add_share(&mut self, share: SignedShare) -> bool {
        let new = !self
            .shares
            .iter()
            .any(|s| s.share.index == share.share.index);
        if new {
            self.shares.push(share);
        }
        new
    }
}

impl Default for BallotSlot {
    fn default() -> Self {
        BallotSlot {
            status: Status::NotVoted,
            used: None,
            my_endorsed: None,
            endorsements: Vec::new(),
            ucert: None,
            shares: Vec::new(),
            my_share_sent: false,
            receipt: None,
            waiting: Vec::new(),
        }
    }
}

/// One WAL record: a single durable state transition of one ballot slot.
///
/// # The durability table
///
/// Every record is appended when its transition happens. A commit
/// *barrier* — the journal synced before an output leaves the node — is
/// paid only where something another party sees depends on the record
/// surviving a power cycle; the others ride to the next barrier (the log
/// is synced as a whole, in order). DESIGN.md §12.6 gives the arguments.
///
/// | Record | Appended in | Barrier before | What rests on it; what losing it costs |
/// |---|---|---|---|
/// | `Used` | `on_vote`, `on_vote_p`, `adopt_code` | — | Locates the slot's code. Nothing signed or disclosed depends on it alone; lost, the voter's retry starts the round again. |
/// | `Endorsed`, a peer's | `on_endorse` | **ENDORSEMENT** | *At most one UCERT per serial*: a node that forgot the code it signed could sign a second one. |
/// | `Endorsed`, the responder's own | `on_vote` | — (rides to the VOTE_P barrier) | ENDORSE carries no signature; the responder's first leaves the node inside the UCERT of its VOTE_P. Lost before that, it signed nothing anyone saw. |
/// | `Certified`, `Pending`, own `ShareStored`, `ShareSent` | `disclose_share` and its callers | **VOTE_P** | *A receipt implies the vote is tallied*: a receipt takes `N_v − f_v` disclosed shares, so `N_v − 2f_v` honest disclosers must still hold the UCERT at ANNOUNCE/RECOVER time, power cycles included. |
/// | `ShareStored`, a peer's | `on_vote_p` | — | Re-deliverable and verified again on arrival. Lost, the slot waits as `Pending` for shares or another collector answers. |
/// | `Voted` | `try_reconstruct` | — | The receipt is the interpolation at zero of EA-dealt, EA-signed shares: every quorum gives the same scalar, so a node that forgot it cannot issue a *different* one. Lost, recovery reconstructs it from a durable quorum or the slot waits as `Pending`. |
/// | `Used` + `Certified`, adopted after the polls closed | `adopt_code` | — (rides to the `Finalized` barrier) | Peers hold what was adopted from them. |
/// | `Finalized` | `try_finalize` | **the finalized set's delivery** | A recovered node must not release a second vote set. |
/// | whatever still rides | `begin_announce` | **ANNOUNCE** (once an election) | Nothing is unsynced when the node discloses its view of the vote set. |
#[derive(Clone, Debug)]
pub(crate) enum VcRecord {
    /// A code became the slot's active one.
    Used {
        serial: SerialNo,
        code: VoteCode,
        part: PartId,
        row: u32,
    },
    /// This node endorsed `code` for the ballot.
    Endorsed { serial: SerialNo, code: VoteCode },
    /// A verified UCERT was stored for the slot.
    Certified { serial: SerialNo, ucert: UCert },
    /// The slot moved `NotVoted → Pending` (share disclosure may begin).
    Pending { serial: SerialNo },
    /// A verified receipt share was collected.
    ShareStored {
        serial: SerialNo,
        share: SignedShare,
    },
    /// This node disclosed its own receipt share (at most once).
    ShareSent { serial: SerialNo },
    /// The receipt was reconstructed.
    Voted { serial: SerialNo, receipt: u64 },
    /// The node delivered its finalized vote set.
    Finalized,
}

const TAG_USED: u8 = 1;
const TAG_ENDORSED: u8 = 2;
const TAG_CERTIFIED: u8 = 3;
const TAG_PENDING: u8 = 4;
const TAG_SHARE_STORED: u8 = 5;
const TAG_SHARE_SENT: u8 = 6;
const TAG_VOTED: u8 = 7;
const TAG_FINALIZED: u8 = 8;

impl VcRecord {
    /// Canonical encoding (one WAL frame payload).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            VcRecord::Used {
                serial,
                code,
                part,
                row,
            } => {
                w.put_u8(TAG_USED).put_u64(serial.0);
                codec::put_vote_code(&mut w, code);
                codec::put_part(&mut w, *part);
                w.put_u32(*row);
            }
            VcRecord::Endorsed { serial, code } => {
                w.put_u8(TAG_ENDORSED).put_u64(serial.0);
                codec::put_vote_code(&mut w, code);
            }
            VcRecord::Certified { serial, ucert } => {
                w.put_u8(TAG_CERTIFIED).put_u64(serial.0);
                codec::put_ucert(&mut w, ucert);
            }
            VcRecord::Pending { serial } => {
                w.put_u8(TAG_PENDING).put_u64(serial.0);
            }
            VcRecord::ShareStored { serial, share } => {
                w.put_u8(TAG_SHARE_STORED).put_u64(serial.0);
                codec::put_signed_share(&mut w, share);
            }
            VcRecord::ShareSent { serial } => {
                w.put_u8(TAG_SHARE_SENT).put_u64(serial.0);
            }
            VcRecord::Voted { serial, receipt } => {
                w.put_u8(TAG_VOTED).put_u64(serial.0).put_u64(*receipt);
            }
            VcRecord::Finalized => {
                w.put_u8(TAG_FINALIZED);
            }
        }
        w.into_bytes()
    }

    /// Decodes one record.
    ///
    /// # Errors
    /// [`WireError`] on truncation or invalid values.
    pub(crate) fn decode(bytes: &[u8]) -> Result<VcRecord, WireError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        Ok(match tag {
            TAG_USED => VcRecord::Used {
                serial: SerialNo(r.get_u64()?),
                code: codec::get_vote_code(&mut r)?,
                part: codec::get_part(&mut r)?,
                row: r.get_u32()?,
            },
            TAG_ENDORSED => VcRecord::Endorsed {
                serial: SerialNo(r.get_u64()?),
                code: codec::get_vote_code(&mut r)?,
            },
            TAG_CERTIFIED => VcRecord::Certified {
                serial: SerialNo(r.get_u64()?),
                ucert: codec::get_ucert(&mut r)?,
            },
            TAG_PENDING => VcRecord::Pending {
                serial: SerialNo(r.get_u64()?),
            },
            TAG_SHARE_STORED => VcRecord::ShareStored {
                serial: SerialNo(r.get_u64()?),
                share: codec::get_signed_share(&mut r)?,
            },
            TAG_SHARE_SENT => VcRecord::ShareSent {
                serial: SerialNo(r.get_u64()?),
            },
            TAG_VOTED => VcRecord::Voted {
                serial: SerialNo(r.get_u64()?),
                receipt: r.get_u64()?,
            },
            TAG_FINALIZED => VcRecord::Finalized,
            _ => return Err(WireError::BadValue),
        })
    }
}

/// A [`Durable`] view over the node's slot map (plus the UCERT
/// verification cache it rebuilds and the finalized marker).
pub(crate) struct DurableView<'a> {
    pub(crate) slots: &'a mut BTreeMap<SerialNo, BallotSlot>,
    pub(crate) verified_ucerts: &'a mut BTreeSet<[u8; 32]>,
    pub(crate) finalized: &'a mut bool,
}

impl DurableView<'_> {
    fn apply(&mut self, record: VcRecord) {
        match record {
            VcRecord::Used {
                serial,
                code,
                part,
                row,
            } => {
                let slot = self.slots.entry(serial).or_default();
                slot.used = Some((code, part, row as usize));
            }
            VcRecord::Endorsed { serial, code } => {
                let slot = self.slots.entry(serial).or_default();
                slot.my_endorsed.get_or_insert(code);
            }
            VcRecord::Certified { serial, ucert } => {
                self.verified_ucerts.insert(ucert.key_digest());
                let slot = self.slots.entry(serial).or_default();
                if slot.ucert.is_none() {
                    slot.ucert = Some(Arc::new(ucert));
                }
            }
            VcRecord::Pending { serial } => {
                let slot = self.slots.entry(serial).or_default();
                if slot.status == Status::NotVoted {
                    slot.status = Status::Pending;
                }
            }
            VcRecord::ShareStored { serial, share } => {
                self.slots.entry(serial).or_default().add_share(share);
            }
            VcRecord::ShareSent { serial } => {
                self.slots.entry(serial).or_default().my_share_sent = true;
            }
            VcRecord::Voted { serial, receipt } => {
                let slot = self.slots.entry(serial).or_default();
                slot.receipt = Some(receipt);
                slot.status = Status::Voted;
            }
            VcRecord::Finalized => {
                *self.finalized = true;
            }
        }
    }
}

impl Durable for DurableView<'_> {
    fn encode_snapshot(&self, w: &mut Writer) {
        w.put_bool(*self.finalized);
        // BTreeMap iterates in serial order, so the snapshot is canonical
        // by construction — no sort pass needed.
        // Only slots with durable content (an entry created purely by a
        // volatile waiter carries nothing worth persisting, but its
        // defaults encode fine and keep the codec total).
        w.put_u64(self.slots.len() as u64);
        for (serial, slot) in self.slots.iter() {
            w.put_u64(serial.0);
            w.put_u8(slot.status.to_u8());
            match &slot.used {
                Some((code, part, row)) => {
                    w.put_bool(true);
                    codec::put_vote_code(w, code);
                    codec::put_part(w, *part);
                    w.put_u32(*row as u32);
                }
                None => {
                    w.put_bool(false);
                }
            }
            match &slot.my_endorsed {
                Some(code) => {
                    w.put_bool(true);
                    codec::put_vote_code(w, code);
                }
                None => {
                    w.put_bool(false);
                }
            }
            match &slot.ucert {
                Some(ucert) => {
                    w.put_bool(true);
                    codec::put_ucert(w, ucert);
                }
                None => {
                    w.put_bool(false);
                }
            }
            w.put_u32(slot.shares.len() as u32);
            for share in &slot.shares {
                codec::put_signed_share(w, share);
            }
            w.put_bool(slot.my_share_sent);
            match slot.receipt {
                Some(receipt) => {
                    w.put_bool(true);
                    w.put_u64(receipt);
                }
                None => {
                    w.put_bool(false);
                }
            }
        }
    }

    fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let _tag = r.get_bytes()?; // writer domain tag
        *self.finalized = r.get_bool()?;
        let n = r.get_u64()?;
        for _ in 0..n {
            let serial = SerialNo(r.get_u64()?);
            let mut slot = BallotSlot {
                status: Status::from_u8(r.get_u8()?)?,
                ..BallotSlot::default()
            };
            if r.get_bool()? {
                let code = codec::get_vote_code(r)?;
                let part = codec::get_part(r)?;
                let row = r.get_u32()? as usize;
                slot.used = Some((code, part, row));
            }
            if r.get_bool()? {
                slot.my_endorsed = Some(codec::get_vote_code(r)?);
            }
            if r.get_bool()? {
                let ucert = codec::get_ucert(r)?;
                self.verified_ucerts.insert(ucert.key_digest());
                slot.ucert = Some(Arc::new(ucert));
            }
            let n_shares = r.get_u32()?;
            for _ in 0..n_shares {
                slot.shares.push(codec::get_signed_share(r)?);
            }
            slot.my_share_sent = r.get_bool()?;
            if r.get_bool()? {
                slot.receipt = Some(r.get_u64()?);
            }
            self.slots.insert(serial, slot);
        }
        Ok(())
    }

    fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
        self.apply(VcRecord::decode(record)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_crypto::schnorr::SigningKey;
    use ddemos_crypto::shamir::Share;
    use ddemos_protocol::clock::GlobalClock;
    use ddemos_storage::{DiskProfile, Journal, JournalConfig, SimDisk};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snapshot_bytes(
        slots: &mut BTreeMap<SerialNo, BallotSlot>,
        ucerts: &mut BTreeSet<[u8; 32]>,
        finalized: &mut bool,
    ) -> Vec<u8> {
        let view = DurableView {
            slots,
            verified_ucerts: ucerts,
            finalized,
        };
        let mut w = Writer::new();
        w.put_bytes(b"tag");
        view.encode_snapshot(&mut w);
        w.into_bytes()
    }

    fn random_records(seed: u64, n: usize) -> Vec<VcRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = SigningKey::generate(&mut rng).sign(b"t");
        let mut out = Vec::new();
        for _ in 0..n {
            let serial = SerialNo(rng.gen_range(0..6u64));
            let code = VoteCode([rng.gen::<u8>(); 20]);
            out.push(match rng.gen_range(0..8u32) {
                0 => VcRecord::Used {
                    serial,
                    code,
                    part: if rng.gen() { PartId::A } else { PartId::B },
                    row: rng.gen_range(0..4),
                },
                1 => VcRecord::Endorsed { serial, code },
                2 => VcRecord::Certified {
                    serial,
                    ucert: UCert {
                        serial,
                        vote_code: code,
                        sigs: vec![(rng.gen_range(0..4), sig)],
                    },
                },
                3 => VcRecord::Pending { serial },
                4 => VcRecord::ShareStored {
                    serial,
                    share: SignedShare {
                        share: Share {
                            index: rng.gen_range(1..5),
                            value: ddemos_crypto::field::Scalar::random(&mut rng),
                        },
                        signature: sig,
                    },
                },
                5 => VcRecord::ShareSent { serial },
                6 => VcRecord::Voted {
                    serial,
                    receipt: rng.gen(),
                },
                _ => VcRecord::Finalized,
            });
        }
        out
    }

    #[test]
    fn record_codec_roundtrips() {
        for rec in random_records(3, 64) {
            let bytes = rec.encode();
            let decoded = VcRecord::decode(&bytes).unwrap();
            assert_eq!(bytes, decoded.encode(), "re-encode differs: {rec:?}");
        }
        assert!(VcRecord::decode(&[99]).is_err());
        assert!(VcRecord::decode(&[]).is_err());
    }

    /// The core recovery guarantee: a state rebuilt from snapshot + WAL
    /// replay is byte-identical to the live state that wrote them.
    #[test]
    fn snapshot_plus_replay_is_byte_identical() {
        let disk = std::sync::Arc::new(SimDisk::new(GlobalClock::new(), DiskProfile::instant()));
        let mut journal = Journal::new(
            disk,
            JournalConfig {
                group_commit: 4,
                compact_every: None,
                adaptive_commit: false,
            },
        );

        let mut slots = BTreeMap::new();
        let mut ucerts = BTreeSet::new();
        let mut finalized = false;
        let records = random_records(11, 120);
        for (i, rec) in records.iter().enumerate() {
            DurableView {
                slots: &mut slots,
                verified_ucerts: &mut ucerts,
                finalized: &mut finalized,
            }
            .apply(rec.clone());
            journal.append(&rec.encode()).unwrap();
            if i == 40 {
                // Mid-run compaction: recovery must compose snapshot +
                // the records after it.
                let view = DurableView {
                    slots: &mut slots,
                    verified_ucerts: &mut ucerts,
                    finalized: &mut finalized,
                };
                journal.compact(&view).unwrap();
            }
        }
        journal.commit().unwrap();

        let mut r_slots = BTreeMap::new();
        let mut r_ucerts = BTreeSet::new();
        let mut r_finalized = false;
        let mut view = DurableView {
            slots: &mut r_slots,
            verified_ucerts: &mut r_ucerts,
            finalized: &mut r_finalized,
        };
        let stats = journal.recover(&mut view).unwrap();
        assert!(stats.from_snapshot);

        let live = snapshot_bytes(&mut slots, &mut ucerts, &mut finalized);
        let recovered = snapshot_bytes(&mut r_slots, &mut r_ucerts, &mut r_finalized);
        assert_eq!(live, recovered, "recovered state diverged");
        // The UCERT-digest set is a verification *cache*: the live set may
        // hold digests of certificates that were verified but superseded
        // before storage (re-verified on demand after recovery). Recovery
        // must never fabricate a cache entry, though.
        assert!(r_ucerts.is_subset(&ucerts));
        assert!(!r_ucerts.is_empty());
    }
}
