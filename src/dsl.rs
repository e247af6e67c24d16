//! The scenario DSL: composite timed fault scripts over the network,
//! the disks, and the adversary (DESIGN.md §9).
//!
//! A [`ScenarioScript`] extends the PR-3 [`Schedule`](crate::Schedule)
//! vocabulary in three directions:
//!
//! * **Disk faults** ([`DiskEvent`]) — schedulable full-device and
//!   slow-fsync windows against named [`SimDisk`](ddemos_storage::SimDisk)s
//!   (`"vc-0"`, `"bb-2"`, …), executed by the scenario runner at virtual
//!   times. A full device degrades the replica to typed read-only
//!   refusal, never to journal loss.
//! * **Voter churn** ([`ScenarioEvent::Churn`]) — a fresh connection
//!   re-submits the most recently receipted ballot mid-run, which must
//!   reproduce the identical receipt (feeding the uniqueness oracle).
//! * **State-triggered adversaries** — [`Adversary`] profiles
//!   for VC nodes and diverge-after-finalized BB replicas, armed at
//!   build time and fired by predicates over *observed* protocol state
//!   rather than the clock.
//!
//! Scripts are written through the fluent [`ScenarioBuilder`]:
//!
//! ```
//! use ddemos_harness::dsl::{ScenarioBuilder, ScenarioPhase};
//! use ddemos_protocol::NodeId;
//!
//! let script = ScenarioBuilder::new("example")
//!     .at_ms(5_000, |t| t.gray_partition(vec![NodeId::vc(1)], vec![NodeId::vc(0)], 100))
//!     .at_phase(ScenarioPhase::MidVoting, |t| t.disk_full("vc-2").churn())
//!     .at_ms(32_000, |t| t.heal().disk_heal("vc-2"))
//!     .build();
//! assert_eq!(script.events.len(), 5);
//! ```

use crate::schedule::Schedule;
use ddemos_net::NetFault;
use ddemos_protocol::NodeId;
use ddemos_vc::Adversary;
use std::time::Duration;

/// A schedulable fault against a named node disk (the label the builder
/// journals under: `"vc-<i>"` / `"bb-<i>"`). Executed by the scenario
/// runner on the election's virtual clock, not by the network: the
/// storage layer stays transport-independent.
#[derive(Clone, Debug)]
pub enum DiskEvent {
    /// The device reports full: appends fail with a typed
    /// `StorageError::DiskFull` and the replica degrades to read-only.
    Full(String),
    /// The device has room again (the replica rejoins after its next
    /// power cycle — degradation is sticky until restart).
    Heal(String),
    /// A brown-out window: fsyncs take this long until restored.
    SlowFsync(String, Duration),
    /// Restores the construction-time latency profile.
    Restore(String),
}

impl DiskEvent {
    /// The disk label this event targets.
    pub fn label(&self) -> &str {
        match self {
            DiskEvent::Full(l)
            | DiskEvent::Heal(l)
            | DiskEvent::SlowFsync(l, _)
            | DiskEvent::Restore(l) => l,
        }
    }
}

/// One timed event of a scenario script.
#[derive(Clone, Debug)]
pub enum ScenarioEvent {
    /// A network-layer fault (crash, partition, gray cut, profile
    /// burst, drift) applied through `SimNet::schedule_fault`.
    Net(NetFault),
    /// A disk-layer fault executed by the runner at the event time.
    Disk(DiskEvent),
    /// Connection churn: a fresh client re-submits the latest receipted
    /// ballot; the receipt must come back identical.
    Churn,
}

/// Named points of the scenario timeline, resolved to representative
/// virtual timestamps at plan time (the scenario elections run with
/// `T_end = 40_000` ms and close at 44_000 ms — see `src/scenario.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioPhase {
    /// Just after the first casts begin.
    EarlyVoting,
    /// The middle of the voting window.
    MidVoting,
    /// Voting still open, but past the fault-heal horizon of generated
    /// schedules.
    LateVoting,
    /// After `T_end`: vote-set consensus territory.
    Close,
}

impl ScenarioPhase {
    /// The representative timestamp this phase resolves to.
    pub fn at_ms(self) -> u64 {
        match self {
            ScenarioPhase::EarlyVoting => 2_000,
            ScenarioPhase::MidVoting => 12_000,
            ScenarioPhase::LateVoting => 26_000,
            ScenarioPhase::Close => 41_000,
        }
    }

    /// The coverage bucket a raw timestamp falls into (the
    /// protocol-phase axis of the fuzzer's coverage fingerprints).
    pub fn bucket(at_ms: u64) -> &'static str {
        match at_ms {
            0..=999 => "setup",
            1_000..=27_999 => "voting",
            28_000..=39_999 => "heal",
            _ => "close",
        }
    }
}

/// A compiled scenario: timed events plus the state-triggered adversary
/// layer. Produced by [`ScenarioBuilder::build`], consumed by
/// `run_scenario_on` (and composed into campaigns by `src/campaign.rs`).
#[derive(Clone, Debug)]
pub struct ScenarioScript {
    /// `(at_ms, event)` pairs, sorted by time at build.
    pub events: Vec<(u64, ScenarioEvent)>,
    /// VC nodes armed with state-triggered Byzantine profiles.
    pub adversaries: Vec<(NodeId, Adversary)>,
    /// BB replicas whose reads diverge after the first finalized set.
    pub bb_divergent: Vec<u32>,
    /// Scenario class label (failure artifacts, coverage class axis).
    pub label: String,
    /// Whether the paper's liveness guarantee applies under this script
    /// (builders exceeding the fault budget must clear it).
    pub liveness_friendly: bool,
}

impl Default for ScenarioScript {
    /// An empty script is within the fault model (nothing happens).
    fn default() -> Self {
        ScenarioScript {
            events: Vec::new(),
            adversaries: Vec::new(),
            bb_divergent: Vec::new(),
            label: "clean".into(),
            liveness_friendly: true,
        }
    }
}

impl ScenarioScript {
    /// Whether the script does anything at all (events or armed
    /// adversaries).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.adversaries.is_empty() && self.bb_divergent.is_empty()
    }

    /// Splits the network-layer events into a [`Schedule`] the election
    /// builder installs at network start; disk and churn events stay
    /// with the runner.
    pub fn net_schedule(&self) -> Schedule {
        let mut schedule = Schedule {
            events: Vec::new(),
            liveness_friendly: self.liveness_friendly,
            label: self.label.clone(),
        };
        for (at, event) in &self.events {
            if let ScenarioEvent::Net(fault) = event {
                schedule.push(*at, fault.clone());
            }
        }
        schedule
    }

    /// The runner-executed events (disk faults and churn), in time order.
    pub fn runner_events(&self) -> Vec<(u64, ScenarioEvent)> {
        self.events
            .iter()
            .filter(|(_, e)| !matches!(e, ScenarioEvent::Net(_)))
            .cloned()
            .collect()
    }

    /// Whether any event power-cycles a node or faults a disk — either
    /// way the election must run with a durability layer.
    pub fn needs_durability(&self) -> bool {
        self.events.iter().any(|(_, e)| {
            matches!(e, ScenarioEvent::Disk(_))
                || matches!(e, ScenarioEvent::Net(NetFault::CrashAmnesia(_)))
        })
    }

    /// The coverage fingerprint of this script: the set of
    /// `(fault-class, protocol-phase)` pairs its events land in, plus
    /// phase-less entries for the state-triggered layer. Two runs of the
    /// same plan produce the same fingerprint; the fuzzer's corpus keys
    /// on these pairs.
    pub fn coverage(&self) -> std::collections::BTreeSet<(String, String)> {
        let mut pairs = std::collections::BTreeSet::new();
        for (at, event) in &self.events {
            let class = match event {
                ScenarioEvent::Net(fault) => crate::campaign::net_fault_class(fault),
                ScenarioEvent::Disk(DiskEvent::Full(_)) => "disk-full",
                ScenarioEvent::Disk(DiskEvent::Heal(_)) => "disk-heal",
                ScenarioEvent::Disk(DiskEvent::SlowFsync(..)) => "disk-slow",
                ScenarioEvent::Disk(DiskEvent::Restore(_)) => "disk-restore",
                ScenarioEvent::Churn => "churn",
            };
            pairs.insert((class.to_string(), ScenarioPhase::bucket(*at).to_string()));
        }
        for (_, adv) in &self.adversaries {
            pairs.insert((format!("triggered-{:?}", adv.action()), "armed".to_string()));
        }
        if !self.bb_divergent.is_empty() {
            pairs.insert(("bb-diverge".to_string(), "armed".to_string()));
        }
        pairs
    }
}

/// Fluent builder for [`ScenarioScript`]s. Each `at_ms` / `at_phase`
/// call opens a [`Tick`] — a chainable site where any number of
/// composite events land at the same timestamp.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    script: ScenarioScript,
}

impl ScenarioBuilder {
    /// Starts an empty, liveness-friendly script with the given label.
    pub fn new(label: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            script: ScenarioScript {
                label: label.into(),
                liveness_friendly: true,
                ..ScenarioScript::default()
            },
        }
    }

    /// Adds events at an absolute virtual timestamp.
    #[must_use]
    pub fn at_ms(mut self, at_ms: u64, f: impl FnOnce(Tick<'_>) -> Tick<'_>) -> Self {
        f(Tick {
            at_ms,
            script: &mut self.script,
        });
        self
    }

    /// Adds events at a named phase's representative timestamp.
    #[must_use]
    pub fn at_phase(self, phase: ScenarioPhase, f: impl FnOnce(Tick<'_>) -> Tick<'_>) -> Self {
        self.at_ms(phase.at_ms(), f)
    }

    /// Arms a state-triggered Byzantine profile on a VC node.
    #[must_use]
    pub fn trigger(mut self, node: NodeId, adversary: Adversary) -> Self {
        self.script.adversaries.push((node, adversary));
        self
    }

    /// Makes one BB replica's reads diverge after the first finalized
    /// vote set (the read majority must outvote it).
    #[must_use]
    pub fn bb_diverges_after_finalized(mut self, bb_index: u32) -> Self {
        self.script.bb_divergent.push(bb_index);
        self
    }

    /// Clears the liveness expectation (scripts that exceed the fault
    /// budget or inject probabilistic loss must call this).
    #[must_use]
    pub fn outside_fault_model(mut self) -> Self {
        self.script.liveness_friendly = false;
        self
    }

    /// Finishes the script (events sorted by time).
    pub fn build(mut self) -> ScenarioScript {
        self.script.events.sort_by_key(|(t, _)| *t);
        self.script
    }
}

/// A chainable event site at one timestamp (see [`ScenarioBuilder`]).
pub struct Tick<'a> {
    at_ms: u64,
    script: &'a mut ScenarioScript,
}

impl Tick<'_> {
    fn push(self, event: ScenarioEvent) -> Self {
        self.script.events.push((self.at_ms, event));
        self
    }

    /// Fail-stop crash (no state loss; the node resumes on `recover`).
    #[must_use]
    pub fn crash(self, node: NodeId) -> Self {
        self.push(ScenarioEvent::Net(NetFault::Crash(node)))
    }

    /// Power-cycle: volatile state is lost; a durable node rebuilds
    /// from its journal on `recover`.
    #[must_use]
    pub fn power_cycle(self, node: NodeId) -> Self {
        self.push(ScenarioEvent::Net(NetFault::CrashAmnesia(node)))
    }

    /// Brings a crashed or power-cycled node back.
    #[must_use]
    pub fn recover(self, node: NodeId) -> Self {
        self.push(ScenarioEvent::Net(NetFault::Recover(node)))
    }

    /// Symmetric partition between two groups.
    #[must_use]
    pub fn partition(self, a: Vec<NodeId>, b: Vec<NodeId>) -> Self {
        self.push(ScenarioEvent::Net(NetFault::Partition(a, b)))
    }

    /// Asymmetric gray cut: traffic `from → to` is lost with
    /// `loss_pct`% probability (100 = a full one-way cut); the reverse
    /// direction is untouched.
    #[must_use]
    pub fn gray_partition(self, from: Vec<NodeId>, to: Vec<NodeId>, loss_pct: u8) -> Self {
        self.push(ScenarioEvent::Net(NetFault::GrayPartition {
            from,
            to,
            loss_pct,
        }))
    }

    /// Heals every partition, gray cuts included.
    #[must_use]
    pub fn heal(self) -> Self {
        self.push(ScenarioEvent::Net(NetFault::HealPartitions))
    }

    /// Swaps the network latency/loss profile (degrade or restore).
    #[must_use]
    pub fn degrade(self, profile: ddemos_net::NetworkProfile) -> Self {
        self.push(ScenarioEvent::Net(NetFault::SetProfile(profile)))
    }

    /// Sets a node's clock drift (signed ms).
    #[must_use]
    pub fn drift(self, node: NodeId, drift_ms: i64) -> Self {
        self.push(ScenarioEvent::Net(NetFault::SetDrift(node, drift_ms)))
    }

    /// Marks a node's journal device full (typed read-only degradation).
    #[must_use]
    pub fn disk_full(self, label: impl Into<String>) -> Self {
        self.push(ScenarioEvent::Disk(DiskEvent::Full(label.into())))
    }

    /// Gives the device room again.
    #[must_use]
    pub fn disk_heal(self, label: impl Into<String>) -> Self {
        self.push(ScenarioEvent::Disk(DiskEvent::Heal(label.into())))
    }

    /// Starts a slow-fsync brown-out window on a node's disk.
    #[must_use]
    pub fn slow_fsync(self, label: impl Into<String>, fsync: Duration) -> Self {
        self.push(ScenarioEvent::Disk(DiskEvent::SlowFsync(
            label.into(),
            fsync,
        )))
    }

    /// Ends the brown-out (restores the construction-time profile).
    #[must_use]
    pub fn disk_restore(self, label: impl Into<String>) -> Self {
        self.push(ScenarioEvent::Disk(DiskEvent::Restore(label.into())))
    }

    /// Connection churn: re-submit the latest receipted ballot from a
    /// fresh client at this point.
    #[must_use]
    pub fn churn(self) -> Self {
        self.push(ScenarioEvent::Churn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddemos_vc::VcBehavior;

    #[test]
    fn builder_sorts_and_splits_events() {
        let script = ScenarioBuilder::new("split")
            .at_ms(30_000, |t| t.heal().disk_heal("vc-1"))
            .at_ms(5_000, |t| t.crash(NodeId::vc(1)).disk_full("vc-1").churn())
            .build();
        assert_eq!(script.events.first().map(|(t, _)| *t), Some(5_000));
        let net = script.net_schedule();
        assert_eq!(net.events.len(), 2, "crash + heal");
        assert_eq!(net.label, "split");
        let runner = script.runner_events();
        assert_eq!(runner.len(), 3, "disk-full + churn + disk-heal");
        assert!(script.needs_durability());
    }

    #[test]
    fn phase_resolution_and_buckets_agree() {
        for phase in [
            ScenarioPhase::EarlyVoting,
            ScenarioPhase::MidVoting,
            ScenarioPhase::LateVoting,
        ] {
            assert_eq!(ScenarioPhase::bucket(phase.at_ms()), "voting");
        }
        assert_eq!(ScenarioPhase::bucket(ScenarioPhase::Close.at_ms()), "close");
        assert_eq!(ScenarioPhase::bucket(500), "setup");
        assert_eq!(ScenarioPhase::bucket(33_000), "heal");
    }

    #[test]
    fn coverage_tracks_classes_and_phases() {
        let script = ScenarioBuilder::new("cov")
            .at_phase(ScenarioPhase::MidVoting, |t| t.disk_full("vc-0"))
            .at_phase(ScenarioPhase::Close, |t| t.disk_full("vc-0"))
            .trigger(NodeId::vc(1), Adversary::equivocate_after_endorsements(1))
            .build();
        let cov = script.coverage();
        assert!(cov.contains(&("disk-full".into(), "voting".into())));
        assert!(cov.contains(&("disk-full".into(), "close".into())));
        assert!(cov
            .iter()
            .any(|(class, _)| class.contains("EquivocalEndorser")));
        let _ = VcBehavior::EquivocalEndorser;
    }
}
