//! # ddemos-harness
//!
//! One typed builder API for the full D-DEMOS lifecycle.
//!
//! The paper's system is a pipeline — EA setup → vote collection →
//! vote-set consensus → BB publication → trustee tally → audit — and this
//! crate is its single entry point: [`ElectionBuilder`] stands up every
//! component in one `build()` call, and the returned [`Election`] exposes
//! typed phase handles that drive the pipeline deterministically:
//!
//! * [`Election::voting`] — cast individual votes (receipt-checked, audit
//!   data collected) or run bulk concurrent [`Workload`]s;
//! * [`Election::close`] — vote-set consensus, read off a BB majority:
//!   the collectors write their agreed vote set to the board themselves;
//! * [`Election::tally`] — the result the trustee nodes' posts publish;
//! * [`Election::audit`] — public plus delegated verification;
//! * [`Election::report`] — one [`ElectionReport`] with tally, receipts,
//!   audit verdict, per-phase timings, network statistics, and a merged
//!   [`MetricsSnapshot`] (deterministic under virtual time; see the
//!   "Profiling and metrics" section of the README).
//!
//! ## Quickstart
//!
//! ```
//! use ddemos_harness::{ElectionBuilder, NetworkProfile};
//! use ddemos_protocol::ElectionParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 10 ballots, 3 options, polls open for 60s of simulation time.
//! let params = ElectionParams::new("quickstart", 10, 3, 4, 3, 5, 3, 0, 60_000)?;
//! let election = ElectionBuilder::new(params)
//!     .vc_nodes(4)            // tolerates 1 Byzantine collector
//!     .bb_nodes(3)            // tolerates 1 Byzantine board
//!     .trustees(5, 3)         // 3-of-5 tally opening
//!     .network(NetworkProfile::lan())
//!     .seed(2024)
//!     .build()?;
//!
//! let voting = election.voting();
//! for (ballot, option) in [(0, 1), (1, 2), (2, 1)] {
//!     let record = voting.cast(ballot, option)?; // receipt verified inside
//!     assert_eq!(record.attempts, 1);
//! }
//!
//! let report = election.finish()?; // close → tally → audit
//! assert_eq!(report.tally(), Some(&[0, 2, 1][..]));
//! assert!(report.verified());
//! election.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Faults and attacks are builder options: `.adversary(NodeId::vc(0),
//! VcBehavior::Crashed)` makes a collector Byzantine,
//! `.corrupt_setup(|setup| modification_attack(setup, …))` mounts the
//! malicious-EA attacks of §IV-C ([`adversary`]), `.clock_drift(NodeId::vc(1),
//! 15)` exercises the Δ drift bound, and [`StoreKind`] swaps the ballot store
//! (memory / modelled-latency disk / PRF-derived virtual electorate — see
//! `DESIGN.md`).

#![warn(missing_docs)]

pub mod adversary;
pub mod builder;
pub mod campaign;
pub mod dsl;
pub mod election;
pub mod load;
pub mod report;
pub mod scenario;
pub mod schedule;
pub mod tcp;
pub mod workload;

pub use builder::{BuildError, Durability, ElectionBuilder, Network, StoreKind};
pub use campaign::{
    campaign_from_seed, guided_coverage_search, net_fault_class, plan_coverage, run_campaign,
    CampaignOutcome, CampaignPlan, Corpus, CorpusEntry, DiskPool,
};
pub use dsl::{DiskEvent, ScenarioBuilder, ScenarioEvent, ScenarioPhase, ScenarioScript, Tick};
pub use election::{Election, ElectionError, PhaseTimings, VotingPhase};
pub use load::{run_load_shard, shutdown_cluster, LatencyHistogram, ShardConfig, ShardReport};
pub use report::{ElectionReport, NetReport};
pub use scenario::{
    run_plan, run_scenario, run_scenario_with, FaultMix, ScenarioOptions, ScenarioOutcome,
    ScenarioPlan,
};
pub use schedule::{Schedule, ScheduleParams};
pub use workload::{Workload, WorkloadStats};

// Re-export what nearly every harness user needs, so examples and tests
// can depend on this crate alone.
pub use ddemos::auditor::{verify_vote_included, AuditReport, Auditor};
pub use ddemos::liveness::LivenessParams;
pub use ddemos::voter::{VoteError, VoteRecord, Voter};
pub use ddemos_ea::{ElectionAuthority, SetupOutput, SetupProfile};
pub use ddemos_net::{DynEndpoint, NetFault, NetworkProfile, TransportEndpoint};
pub use ddemos_obs::{Histogram, MetricsSnapshot, Recorder, TimeDomain};
pub use ddemos_protocol::{ElectionParams, NodeId, PartId, SerialNo, COORDINATOR};
pub use ddemos_storage::{DiskProfile, FileDisk, SimDisk};
pub use ddemos_vc::{Adversary, AdversaryView, StepTrace, StorageModel, Trigger, VcBehavior};
pub use tcp::{run_bb_replica, run_vc_replica, TcpCluster};
