//! The single result type carried out of a finished election.

use crate::builder::StoreKind;
use crate::election::PhaseTimings;
use crate::workload::WorkloadStats;
use ddemos::auditor::AuditReport;
use ddemos_net::NetStats;
use ddemos_obs::MetricsSnapshot;
use ddemos_protocol::posts::ElectionResult;
use ddemos_protocol::SerialNo;

/// Network traffic totals captured from the simulated network.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetReport {
    /// Messages handed to the router.
    pub sent: u64,
    /// Messages delivered to an inbox.
    pub delivered: u64,
    /// Messages dropped (loss, crashes, partitions, unknown nodes).
    pub dropped: u64,
    /// Total scheduled one-way delay of delivered messages (simulation
    /// nanoseconds).
    pub delay_ns_total: u64,
    /// VOTE messages sent.
    pub vote_msgs: u64,
    /// ENDORSE-round messages sent.
    pub endorse_msgs: u64,
    /// Receipt-share messages sent.
    pub share_msgs: u64,
    /// Vote-set-consensus messages sent.
    pub consensus_msgs: u64,
}

impl NetReport {
    /// Snapshots the counters of a running network.
    pub fn capture(stats: &NetStats) -> NetReport {
        NetReport {
            sent: stats.sent(),
            delivered: stats.delivered(),
            dropped: stats.dropped(),
            delay_ns_total: stats.delay_ns_total(),
            vote_msgs: stats.vote_msgs(),
            endorse_msgs: stats.endorse_msgs(),
            share_msgs: stats.share_msgs(),
            consensus_msgs: stats.consensus_msgs(),
        }
    }
}

/// Everything a finished election produced, in one typed result: the
/// published tally, the receipts voters walked away with, the audit
/// verdict, per-phase wall-clock timings (Fig 5c's series), and
/// network/storage/workload statistics.
#[derive(Clone, Debug)]
pub struct ElectionReport {
    /// The published result (`None` until [`crate::Election::tally`] ran,
    /// e.g. for VC-only benchmark elections).
    pub result: Option<ElectionResult>,
    /// `(serial, receipt)` per vote cast through
    /// [`crate::VotingPhase::cast`].
    pub receipts: Vec<(SerialNo, u64)>,
    /// The audit verdict (`None` until [`crate::Election::audit`] ran).
    pub audit: Option<AuditReport>,
    /// Wall-clock duration of each phase.
    pub timings: PhaseTimings,
    /// Network traffic totals.
    pub net: NetReport,
    /// The election's merged telemetry: per-node recorder snapshots
    /// (step latency, WAL batching, frame codec timing) plus transport
    /// counters, folded in deterministic node order. Virtual-time
    /// elections produce a seed-replayable snapshot that joins
    /// [`ElectionReport::canonical_text`]; wall-clock and profiling runs
    /// are tagged [`ddemos_obs::TimeDomain::Wall`] and contribute only a
    /// marker line. An election over the event-loop TCP driver folds its
    /// authenticated-connection counters in under `net.conn.*`.
    pub metrics: MetricsSnapshot,
    /// Statistics of the last bulk workload, if one ran.
    pub workload: Option<WorkloadStats>,
    /// Which ballot store backed the VC nodes.
    pub store: StoreKind,
    /// Worker count of the parallel runtime that drove EA setup, trustee
    /// share processing, and the audit sweep
    /// ([`crate::ElectionBuilder::threads`] / `DDEMOS_THREADS`).
    pub threads: usize,
}

impl ElectionReport {
    /// The tally, if published.
    pub fn tally(&self) -> Option<&[u64]> {
        self.result.as_ref().map(|r| r.tally.as_slice())
    }

    /// Whether the audit ran and found no failures.
    pub fn verified(&self) -> bool {
        self.audit.as_ref().is_some_and(AuditReport::ok)
    }

    /// A canonical, line-oriented dump of every seed-determined artifact:
    /// tally, receipts, audit verdict, simulation-time phase timings
    /// (setup is excluded — it is real compute, not simulation time), and
    /// network statistics. Two runs of the same virtual-time scenario seed
    /// must produce byte-identical output; `tests/determinism.rs` and the
    /// scenario fuzzer assert exactly that.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.result {
            Some(r) => {
                let _ = writeln!(out, "tally: {:?}", r.tally);
                let _ = writeln!(out, "counted: {}", r.ballots_counted);
            }
            None => {
                let _ = writeln!(out, "tally: none");
            }
        }
        let _ = writeln!(out, "receipts: {}", self.receipts.len());
        for (serial, receipt) in &self.receipts {
            let _ = writeln!(out, "  {} {receipt:016x}", serial.0);
        }
        match &self.audit {
            Some(a) => {
                let _ = writeln!(out, "audit: ok={} checks={}", a.ok(), a.checks_run);
                for f in &a.failures {
                    let _ = writeln!(out, "  fail: {f}");
                }
            }
            None => {
                let _ = writeln!(out, "audit: none");
            }
        }
        let t = &self.timings;
        let _ = writeln!(
            out,
            "timings_ns: vote={} consensus={} push={} publish={}",
            t.vote_collection.as_nanos(),
            t.vote_set_consensus.as_nanos(),
            t.push_to_bb_and_tally.as_nanos(),
            t.publish_result.as_nanos(),
        );
        let n = &self.net;
        let _ = writeln!(
            out,
            "net: sent={} delivered={} dropped={} vote={} endorse={} share={} consensus={}",
            n.sent,
            n.delivered,
            n.dropped,
            n.vote_msgs,
            n.endorse_msgs,
            n.share_msgs,
            n.consensus_msgs,
        );
        let _ = writeln!(out, "net_delay_ns: {}", n.delay_ns_total);
        // Virtual-domain telemetry is a pure function of the seed and
        // joins in full; wall-domain snapshots contribute only their
        // marker line (see `MetricsSnapshot::fingerprint`).
        out.push_str(&self.metrics.fingerprint());
        out
    }
}
