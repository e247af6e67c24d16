//! Seeded fault-scenario fuzzing: derive a random schedule from a seed,
//! run a full virtual-time election under it, and check the paper's
//! invariants.
//!
//! * **Safety** (always): the published tally counts every receipted vote,
//!   counts nothing the driver did not attempt, and the audit verifies;
//!   every collector the plan leaves honest finalizes the same vote set,
//!   and that set holds every receipted ballot.
//! * **Liveness** (when the schedule stays within the fault model of
//!   §III-C — see [`Schedule::liveness_friendly`]): every honest voter
//!   obtains a valid receipt and the election publishes a result.
//!
//! Everything — election shape, Byzantine behaviours, fault schedule,
//! vote choices, network randomness — derives from one `u64` seed, and the
//! run executes on the virtual clock, so a failing seed reproduces
//! byte-identically from the CLI:
//!
//! ```text
//! cargo run --release --example scenario_fuzz -- --seed <N>
//! ```
//!
//! Beyond the network-fault classes of [`Schedule::random`], three mixes
//! exercise the PR-7 fault surface: `--faults gray` (asymmetric one-way
//! cuts), `--faults disk` (schedulable full-device and slow-fsync
//! windows, executed by this runner against the journals), and
//! `--faults adaptive` (state-triggered Byzantine collectors and
//! diverging BB replicas). Campaign composition and the coverage-guided
//! corpus live in [`crate::campaign`].

use crate::builder::{Durability, ElectionBuilder, StoreKind};
use crate::campaign::DiskPool;
use crate::dsl::{DiskEvent, ScenarioBuilder, ScenarioEvent, ScenarioScript};
use crate::election::Election;
use crate::report::ElectionReport;
use crate::schedule::{Schedule, ScheduleParams};
use ddemos::voter::VoteError;
use ddemos_net::NetworkProfile;
use ddemos_protocol::{ElectionParams, NodeId, PartId};
use ddemos_storage::DiskProfile;
use ddemos_vc::{Adversary, VcBehavior};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Which fault classes a scenario sweep draws from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultMix {
    /// Every network class ([`Schedule::random`]).
    #[default]
    Any,
    /// Only `crash-amnesia` power-cycles ([`Schedule::random_amnesia`]) —
    /// the CI sweep's `--faults amnesia` mode, hammering the durability
    /// and recovery paths.
    Amnesia,
    /// Asymmetric gray partitions ([`Schedule::random_gray`]): one-way
    /// cuts and lossy-link brown-outs against the designated target.
    Gray,
    /// Schedulable disk faults: a full journal device (typed read-only
    /// degradation) plus a slow-fsync brown-out, executed by the runner
    /// at virtual times.
    Disk,
    /// State-triggered adversaries: an [`Adversary`] collector
    /// and (half the time) a diverge-after-finalized BB replica.
    Adaptive,
}

impl FaultMix {
    /// The CLI / corpus name of this mix.
    pub fn name(self) -> &'static str {
        match self {
            FaultMix::Any => "any",
            FaultMix::Amnesia => "amnesia",
            FaultMix::Gray => "gray",
            FaultMix::Disk => "disk",
            FaultMix::Adaptive => "adaptive",
        }
    }

    /// Parses a [`FaultMix::name`] string.
    pub fn parse(name: &str) -> Option<FaultMix> {
        match name {
            "any" => Some(FaultMix::Any),
            "amnesia" => Some(FaultMix::Amnesia),
            "gray" => Some(FaultMix::Gray),
            "disk" => Some(FaultMix::Disk),
            "adaptive" => Some(FaultMix::Adaptive),
            _ => None,
        }
    }
}

/// Options for [`run_scenario_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioOptions {
    /// Fault classes to draw from.
    pub faults: FaultMix,
    /// Worker-thread override for the election's parallel runtime
    /// (`None` = the `DDEMOS_THREADS`/auto default). Artifacts must be
    /// identical for every value.
    pub threads: Option<usize>,
}

/// Registered electorate per scenario election.
const BALLOTS: u64 = 12;
/// Options on every scenario ballot (the election parameters, the vote
/// draw and the tally oracle share it).
const OPTIONS: usize = 3;
/// Votes the driver casts.
const VOTES: usize = 6;
/// Virtual milliseconds between casts (lets scheduled faults interleave
/// with the voting phase).
const CAST_GAP_MS: u64 = 500;
/// `Tcomp` assumed when deriving voter patience from the network profile
/// (worst-case single protocol step, Theorem 1).
const T_COMP: Duration = Duration::from_millis(100);
/// `Δ` assumed for the patience derivation. Scheduled drift faults go up
/// to ±1.5 s, but they only move *when* a node closes its polls — the
/// per-message patience bound needs only the small skew honest exchanges
/// see.
const DRIFT_BOUND: Duration = Duration::from_millis(100);
/// `T_end` of the scenario elections (virtual ms).
const END_MS: u64 = 40_000;
/// When the receipt-uniqueness recheck re-submits receipted codes (after
/// `heal_by_ms` — every fault healed, every power-cycled node recovered —
/// and before `T_end`).
const RECHECK_AT_MS: u64 = 33_000;
/// The driver closes the election here (after every node's drifted clock
/// has passed `T_end`).
const CLOSE_AT_MS: u64 = 44_000;
/// Wall-clock bound on `close()`'s wait for the vote set: a scenario
/// that cannot reach consensus fails fast instead of hanging the sweep.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Everything derived from the seed before the election runs.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// The driving seed.
    pub seed: u64,
    /// Baseline network profile (LAN or WAN).
    pub profile: NetworkProfile,
    /// Ballot store backing the collectors.
    pub store: StoreKind,
    /// Per-collector behaviours (at most `f_v` Byzantine).
    pub behaviors: Vec<VcBehavior>,
    /// The timed network-fault schedule.
    pub schedule: Schedule,
    /// The script layer beyond the network: disk faults, churn, and
    /// state-triggered adversaries (empty for the pure network mixes).
    pub extras: ScenarioScript,
    /// `(ballot, option)` casts, in order.
    pub votes: Vec<(usize, usize)>,
    /// Whether the paper guarantees liveness under this plan.
    pub liveness_expected: bool,
    /// Whether the election runs with a durability layer (always, when
    /// the schedule power-cycles a node or the script faults a disk: an
    /// amnesia crash without a journal is outside the fault model the
    /// liveness theorem assumes, and disk faults need disks to exist).
    pub durability: bool,
}

impl ScenarioPlan {
    /// Derives the complete plan from a seed (all fault classes).
    pub fn from_seed(seed: u64) -> ScenarioPlan {
        Self::from_seed_with(seed, FaultMix::Any)
    }

    /// Derives the complete plan from a seed, drawing the schedule from
    /// the given fault mix.
    pub fn from_seed_with(seed: u64, faults: FaultMix) -> ScenarioPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5343_454E_4152_494F);
        let profile = if rng.gen_bool(0.5) {
            NetworkProfile::wan()
        } else {
            NetworkProfile::lan()
        };
        let store = if rng.gen_bool(0.25) {
            StoreKind::Latency(ddemos_vc::StorageModel::default())
        } else {
            StoreKind::Memory
        };
        // One designated fault target shares the f_v = 1 budget between
        // the Byzantine behaviour and the scheduled node faults: a
        // Byzantine collector that is *also* crashed or partitioned is one
        // fault, a Byzantine collector plus a different partitioned node
        // would be two — outside the model, and the fuzzer proved it
        // breaks liveness (receipt reconstruction needs N_v − f_v shares).
        let fault_node = rng.gen_range(0..4u32);
        let mut behaviors = vec![VcBehavior::Honest; 4];
        // The disk and adaptive mixes spend the f_v budget on their own
        // fault shape (a degraded replica / a triggered adversary), so
        // only the network mixes draw a static Byzantine behaviour.
        let network_mix = matches!(faults, FaultMix::Any | FaultMix::Amnesia | FaultMix::Gray);
        if network_mix && rng.gen_bool(0.4) {
            let byz = [
                VcBehavior::CorruptShares,
                VcBehavior::WithholdShares,
                VcBehavior::EquivocalEndorser,
                VcBehavior::ConsensusInverter,
            ][rng.gen_range(0..4usize)];
            behaviors[fault_node as usize] = byz;
        }
        let schedule_params = ScheduleParams {
            num_vc: 4,
            vc_faults: 1,
            num_bb: 4,
            fault_from_ms: 1_000,
            fault_until_ms: 28_000,
            heal_by_ms: 32_000,
            base_profile: profile.clone(),
            target: Some(ddemos_protocol::NodeId::vc(fault_node)),
        };
        let mut extras = ScenarioScript::default();
        let schedule = match faults {
            FaultMix::Any => Schedule::random(seed, &schedule_params),
            FaultMix::Amnesia => Schedule::random_amnesia(seed, &schedule_params),
            FaultMix::Gray => Schedule::random_gray(seed, &schedule_params),
            FaultMix::Disk => {
                extras = Self::disk_script(&mut rng, fault_node);
                Schedule {
                    label: extras.label.clone(),
                    ..Default::default()
                }
            }
            FaultMix::Adaptive => {
                extras = Self::adaptive_script(&mut rng, fault_node);
                Schedule {
                    label: extras.label.clone(),
                    ..Default::default()
                }
            }
        };
        let votes = (0..VOTES).map(|i| (i, rng.gen_range(0..OPTIONS))).collect();
        let liveness_expected = schedule.liveness_friendly && extras.liveness_friendly;
        let durability = schedule.has_amnesia() || extras.needs_durability();
        ScenarioPlan {
            seed,
            profile,
            store,
            behaviors,
            schedule,
            extras,
            votes,
            liveness_expected,
            durability,
        }
    }

    /// The `disk-fault` script: a slow-fsync brown-out on one BB journal
    /// plus a full-device window on the designated collector's journal,
    /// with a churn probe mid-run. All within the model: the degraded
    /// collector is the one budgeted fault (it stays read-only until a
    /// restart re-probes the device), and the brown-out only charges
    /// virtual latency.
    fn disk_script(rng: &mut StdRng, fault_node: u32) -> ScenarioScript {
        let vc_label = format!("vc-{fault_node}");
        let bb_label = format!("bb-{}", rng.gen_range(0..4u32));
        let fsync = Duration::from_millis(rng.gen_range(10..=40u64));
        let full_at = 4_000 + rng.gen_range(0..16_000u64);
        ScenarioBuilder::new("disk-fault")
            .at_ms(3_000, |t| t.slow_fsync(bb_label.clone(), fsync))
            .at_ms(full_at, |t| t.disk_full(vc_label.clone()))
            .at_ms(18_500, |t| t.churn())
            .at_ms(24_000, |t| t.disk_restore(bb_label.clone()))
            .at_ms(30_000, |t| t.disk_heal(vc_label.clone()))
            .build()
    }

    /// The `adaptive-adversary` script: one state-triggered Byzantine
    /// collector (equivocating once a quorum is believably close, or
    /// withholding / corrupting shares for a serial range), optionally a
    /// BB replica whose reads diverge after the first finalized set, and
    /// sometimes a churn probe. One collector misbehaving plus one BB
    /// replica lying stays within both budgets (`f_v = 1`, `f_b = 1`).
    fn adaptive_script(rng: &mut StdRng, fault_node: u32) -> ScenarioScript {
        let adversary = match rng.gen_range(0..3u32) {
            0 => Adversary::equivocate_after_endorsements(rng.gen_range(1..=3)),
            1 => {
                let lo = rng.gen_range(0..VOTES as u64 / 2);
                Adversary::withhold_shares_for_serials(lo, lo + rng.gen_range(1..=2u64))
            }
            _ => {
                let lo = rng.gen_range(0..VOTES as u64 / 2);
                Adversary::corrupt_shares_for_serials(lo, lo + rng.gen_range(1..=2u64))
            }
        };
        let mut builder =
            ScenarioBuilder::new("adaptive-adversary").trigger(NodeId::vc(fault_node), adversary);
        if rng.gen_bool(0.5) {
            builder = builder.bb_diverges_after_finalized(rng.gen_range(0..4u32));
        }
        if rng.gen_bool(0.5) {
            builder = builder.at_ms(20_000, |t| t.churn());
        }
        builder.build()
    }

    /// Human-readable plan summary (for failure artifacts).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("seed: {}\n", self.seed);
        let _ = writeln!(
            out,
            "profile: {}",
            if self.profile.vc_to_vc >= Duration::from_millis(10) {
                "wan"
            } else {
                "lan"
            }
        );
        let _ = writeln!(out, "store: {:?}", self.store);
        let _ = writeln!(out, "behaviors: {:?}", self.behaviors);
        let _ = writeln!(out, "votes: {:?}", self.votes);
        let _ = writeln!(out, "liveness_expected: {}", self.liveness_expected);
        let _ = writeln!(out, "durability: {}", self.durability);
        out.push_str(&self.schedule.describe());
        if !self.extras.is_empty() {
            let _ = writeln!(out, "script: {}", self.extras.label);
            for (at, event) in &self.extras.events {
                if !matches!(event, ScenarioEvent::Net(_)) {
                    let _ = writeln!(out, "  t={at:>6}ms  {event:?}");
                }
            }
            for (node, adversary) in &self.extras.adversaries {
                let _ = writeln!(out, "  trigger {node}: {adversary:?}");
            }
            for bb in &self.extras.bb_divergent {
                let _ = writeln!(out, "  bb-{bb}: diverge-after-finalized");
            }
        }
        out
    }
}

/// The result of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The plan that ran.
    pub plan: ScenarioPlan,
    /// Invariant violations (empty = scenario passed).
    pub violations: Vec<String>,
    /// Canonical dump of every seed-determined artifact; two runs of the
    /// same seed must produce identical fingerprints.
    pub fingerprint: String,
    /// The full election report (when the run got far enough to produce
    /// one).
    pub report: Option<ElectionReport>,
}

impl ScenarioOutcome {
    /// Whether every checked invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The mutable churn state the runner threads through event execution:
/// the latest receipted cast (what a churned connection re-submits) and
/// the log lines that land in the fingerprint.
struct ChurnState {
    latest: Option<(usize, usize, PartId, u64)>,
    log: Vec<(u64, String)>,
}

/// Applies one runner-executed script event at its virtual time.
fn apply_runner_event(
    election: &Election,
    pool: &DiskPool,
    event: &ScenarioEvent,
    at_ms: u64,
    patience: Duration,
    churn: &mut ChurnState,
    violations: &mut Vec<String>,
) {
    match event {
        ScenarioEvent::Disk(disk_event) => {
            let Some(disk) = pool.get(disk_event.label()) else {
                churn.log.push((
                    at_ms,
                    format!("disk event on unknown label {}", disk_event.label()),
                ));
                return;
            };
            match disk_event {
                DiskEvent::Full(label) => {
                    disk.set_full(true);
                    churn.log.push((at_ms, format!("disk {label}: full")));
                }
                DiskEvent::Heal(label) => {
                    disk.set_full(false);
                    churn.log.push((at_ms, format!("disk {label}: healed")));
                }
                DiskEvent::SlowFsync(label, fsync) => {
                    disk.set_fault_profile(Some(DiskProfile {
                        fsync: *fsync,
                        ..DiskProfile::default()
                    }));
                    churn.log.push((
                        at_ms,
                        format!("disk {label}: slow fsync {}ms", fsync.as_millis()),
                    ));
                }
                DiskEvent::Restore(label) => {
                    disk.set_fault_profile(None);
                    churn.log.push((at_ms, format!("disk {label}: restored")));
                }
            }
        }
        ScenarioEvent::Churn => {
            let Some((ballot, option, part, receipt)) = churn.latest else {
                churn
                    .log
                    .push((at_ms, "churn: nothing receipted yet".into()));
                return;
            };
            // A fresh connection (new request ids, new node ordering)
            // re-submits the receipted cast: the protocol must hand back
            // the *identical* receipt.
            let voting = election.voting().patience(patience);
            match voting.cast_with_part(ballot, option, part) {
                Ok(record) if record.audit.receipt == receipt => {
                    churn
                        .log
                        .push((at_ms, format!("churn: receipt {receipt:016x} reproduced")));
                }
                Ok(record) => {
                    violations.push(format!(
                        "safety: churned re-submission of ballot {ballot} receipted \
                         {:016x} but the original receipt was {receipt:016x}",
                        record.audit.receipt
                    ));
                    churn.log.push((at_ms, "churn: receipt mismatch".into()));
                }
                Err(e) => {
                    // Not a safety violation (no second receipt exists);
                    // logged so the fingerprint still captures it.
                    churn.log.push((at_ms, format!("churn: {e}")));
                }
            }
        }
        // Net events were split into the builder's schedule.
        ScenarioEvent::Net(_) => {}
    }
}

/// Advances virtual time to `target_ms`, firing every pending runner
/// event whose timestamp is reached along the way.
#[allow(clippy::too_many_arguments)]
fn advance_to(
    election: &Election,
    pool: &DiskPool,
    pending: &mut VecDeque<(u64, ScenarioEvent)>,
    target_ms: u64,
    patience: Duration,
    churn: &mut ChurnState,
    violations: &mut Vec<String>,
) {
    while let Some(&(at, _)) = pending.front() {
        if at > target_ms {
            break;
        }
        let now = election.now_ms();
        if at > now {
            election.sleep(Duration::from_millis(at - now));
        }
        let (at, event) = pending.pop_front().expect("peeked");
        apply_runner_event(election, pool, &event, at, patience, churn, violations);
    }
    let now = election.now_ms();
    if target_ms > now {
        election.sleep(Duration::from_millis(target_ms - now));
    }
}

/// Runs the scenario for `seed` on the virtual clock and checks the
/// invariants (all fault classes). Never panics on invariant failure —
/// violations are returned so sweeps can collect artifacts.
pub fn run_scenario(seed: u64) -> ScenarioOutcome {
    run_scenario_with(seed, &ScenarioOptions::default())
}

/// [`run_scenario`] with explicit options (fault mix, thread count).
pub fn run_scenario_with(seed: u64, options: &ScenarioOptions) -> ScenarioOutcome {
    run_plan(
        &ScenarioPlan::from_seed_with(seed, options.faults),
        options,
        None,
    )
}

/// Runs a fully derived (or mutated) plan. `pool` is the campaign's
/// shared [`DiskPool`]; passing one forces the durability layer on so
/// device state carries across the campaign's elections. Without one, a
/// plan that needs disks gets a private pool.
pub fn run_plan(
    plan: &ScenarioPlan,
    options: &ScenarioOptions,
    pool: Option<Arc<DiskPool>>,
) -> ScenarioOutcome {
    let seed = plan.seed;
    let mut violations = Vec::new();
    let durability = plan.durability || pool.is_some();
    let pool = pool.unwrap_or_default();

    let params = ElectionParams::new(
        &format!("scenario-{seed}"),
        BALLOTS,
        OPTIONS,
        4,
        4,
        3,
        2,
        0,
        END_MS,
    )
    .expect("scenario params are valid");
    // The script's network events merge into the builder schedule; disk
    // and churn events stay with this runner.
    let mut schedule = plan.schedule.clone();
    for (at, fault) in plan.extras.net_schedule().events {
        schedule.push(at, fault);
    }
    let mut builder = ElectionBuilder::new(params)
        .seed(seed)
        .virtual_time()
        .network(plan.profile.clone())
        .store(plan.store)
        .schedule(schedule)
        .close_timeout(CLOSE_TIMEOUT);
    for (i, &behavior) in plan.behaviors.iter().enumerate() {
        builder = builder.adversary(NodeId::vc(i as u32), behavior);
    }
    if durability {
        builder = builder
            .durability(Durability::sim())
            .disk_pool(pool.clone());
    }
    for (node, adversary) in &plan.extras.adversaries {
        builder = builder.adversary(*node, *adversary);
    }
    for &bb in &plan.extras.bb_divergent {
        builder = builder.bb_diverges_after_finalized(bb);
    }
    if let Some(threads) = options.threads {
        builder = builder.threads(threads);
    }
    let election = builder.build().expect("scenario builds");
    let mut pending: VecDeque<(u64, ScenarioEvent)> = plan.extras.runner_events().into();
    let mut churn = ChurnState {
        latest: None,
        log: Vec::new(),
    };

    // --- voting phase, paced so scheduled faults interleave -------------
    // Voter patience is the theorem-backed `Twait` for this network
    // profile (Theorem 1), not a hard-coded guess — it scales with the
    // emulated latencies, including the fuzzer's jitter bursts.
    let patience =
        ddemos::liveness::LivenessParams::for_network(&plan.profile, T_COMP, DRIFT_BOUND).t_wait(4);
    let mut cast_results: Vec<Result<(u64, PartId), VoteError>> = Vec::new();
    {
        let voting = election.voting().patience(patience);
        for &(ballot, option) in &plan.votes {
            advance_to(
                &election,
                &pool,
                &mut pending,
                election.now_ms() + CAST_GAP_MS,
                patience,
                &mut churn,
                &mut violations,
            );
            let outcome = voting
                .cast(ballot, option)
                .map(|r| (r.audit.receipt, r.audit.used_part));
            if let Ok((receipt, part)) = &outcome {
                churn.latest = Some((ballot, option, *part, *receipt));
            }
            cast_results.push(outcome);
        }
    }
    let receipted: Vec<(usize, usize)> = plan
        .votes
        .iter()
        .zip(&cast_results)
        .filter(|(_, r)| r.is_ok())
        .map(|(&v, _)| v)
        .collect();

    // --- receipt uniqueness across restarts ------------------------------
    // After every fault healed (and any power-cycled collector rebuilt
    // itself from its journal), re-submitting a receipted vote code must
    // yield the *same* receipt — the paper's "never issue two different
    // receipts for one ballot" obligation, which `CrashAmnesia` scenarios
    // can only satisfy through the durability layer.
    advance_to(
        &election,
        &pool,
        &mut pending,
        RECHECK_AT_MS,
        patience,
        &mut churn,
        &mut violations,
    );
    let mut recheck_results: Vec<(usize, Result<u64, VoteError>)> = Vec::new();
    {
        let voting = election.voting().patience(patience);
        for (&(ballot, option), cast) in plan.votes.iter().zip(&cast_results) {
            let Ok((receipt, part)) = cast else {
                continue;
            };
            let again = voting
                .cast_with_part(ballot, option, *part)
                .map(|r| r.audit.receipt);
            match &again {
                Ok(second) if second != receipt => violations.push(format!(
                    "safety: ballot {ballot} receipted {receipt:016x} before faults \
                     but {second:016x} after recovery (conflicting receipts)"
                )),
                Ok(_) => {}
                Err(e) => {
                    if plan.liveness_expected {
                        violations.push(format!(
                            "liveness: ballot {ballot} was receipted but its re-submission \
                             failed after recovery: {e}"
                        ));
                    }
                }
            }
            recheck_results.push((ballot, again));
        }
    }

    // --- close / tally / audit ------------------------------------------
    advance_to(
        &election,
        &pool,
        &mut pending,
        CLOSE_AT_MS,
        patience,
        &mut churn,
        &mut violations,
    );
    // Events scheduled past the close point (mutated plans shift them
    // there) fire now: close()'s board reads block this thread in virtual
    // time, so "just before close" is the last moment the runner can
    // act. The coverage corpus works at plan level, so the pair is
    // still attributed to its shifted phase.
    while let Some((at, event)) = pending.pop_front() {
        apply_runner_event(
            &election,
            &pool,
            &event,
            at,
            patience,
            &mut churn,
            &mut violations,
        );
    }
    let closed = election.close();
    let mut result = None;
    match &closed {
        Ok(_) => {
            match election.tally() {
                Ok(r) => result = Some(r),
                Err(e) => violations.push(format!("tally failed: {e}")),
            }
            if let Err(e) = election.audit() {
                violations.push(format!("audit failed to run: {e}"));
            }
        }
        Err(e) => {
            if plan.liveness_expected {
                violations.push(format!("close failed under a within-model schedule: {e}"));
            }
        }
    }
    let report = election.report();

    // --- invariants ------------------------------------------------------
    // Safety: the tally counts every receipted vote and nothing beyond
    // what was attempted.
    if let Some(result) = &result {
        let mut receipted_counts = [0u64; OPTIONS];
        for &(_, option) in &receipted {
            receipted_counts[option] += 1;
        }
        let mut attempted_counts = [0u64; OPTIONS];
        for &(_, option) in &plan.votes {
            attempted_counts[option] += 1;
        }
        for option in 0..OPTIONS {
            if result.tally[option] < receipted_counts[option] {
                violations.push(format!(
                    "safety: option {option} tally {} < {} receipted votes",
                    result.tally[option], receipted_counts[option]
                ));
            }
            if result.tally[option] > attempted_counts[option] {
                violations.push(format!(
                    "safety: option {option} tally {} > {} attempted votes (fabricated)",
                    result.tally[option], attempted_counts[option]
                ));
            }
        }
        let total: u64 = result.tally.iter().sum();
        if total != result.ballots_counted {
            violations.push(format!(
                "safety: tally sums to {total} but {} ballots counted",
                result.ballots_counted
            ));
        }
        if !report.verified() {
            violations.push(format!(
                "safety: audit rejected the election: {:?}",
                report.audit.as_ref().map(|a| &a.failures)
            ));
        }
    }
    // Safety: a receipt implies the vote is in the published vote set,
    // and every in-process collector the plan leaves honest finalized
    // that set.
    if let Ok(published) = &closed {
        for &(ballot, _) in &receipted {
            let serial = election.setup.ballots[ballot].serial;
            if !published.entries.contains_key(&serial) {
                violations.push(format!(
                    "safety: ballot {ballot} was receipted but the published vote set omits it"
                ));
            }
        }
        let byzantine = |node: u32| {
            plan.behaviors
                .get(node as usize)
                .is_some_and(|b| *b != VcBehavior::Honest)
                || plan
                    .extras
                    .adversaries
                    .iter()
                    .any(|(n, _)| *n == NodeId::vc(node))
        };
        let digest = published.digest();
        for set in election.finalized_sets() {
            if !byzantine(set.node_index) && set.vote_set.digest() != digest {
                violations.push(format!(
                    "safety: honest vc-{}'s finalized vote set differs from the published one",
                    set.node_index
                ));
            }
        }
    }
    // Nothing flows back to the coordinator: it reads the vote set off
    // the board like every other party.
    if let Some(env) = election.coordinator.lock().try_recv() {
        violations.push(format!(
            "the coordinator was sent {} by {}",
            env.msg.kind(),
            env.from
        ));
    }
    // Liveness: within the fault model, every voter gets a receipt and
    // the result is published.
    if plan.liveness_expected {
        for (&(ballot, _), outcome) in plan.votes.iter().zip(&cast_results) {
            if let Err(e) = outcome {
                violations.push(format!("liveness: ballot {ballot} got no receipt: {e}"));
            }
        }
        if result.is_none() {
            violations.push("liveness: no result published".into());
        }
    }

    // --- fingerprint ------------------------------------------------------
    use std::fmt::Write as _;
    let mut fingerprint = String::new();
    let _ = writeln!(fingerprint, "seed: {seed}");
    for (i, r) in cast_results.iter().enumerate() {
        let _ = writeln!(
            fingerprint,
            "cast {i}: {}",
            match r {
                Ok((receipt, part)) => format!("receipt {receipt:016x} part {part:?}"),
                Err(e) => format!("error {e}"),
            }
        );
    }
    for (at, line) in &churn.log {
        let _ = writeln!(fingerprint, "runner {at}: {line}");
    }
    for (ballot, r) in &recheck_results {
        let _ = writeln!(
            fingerprint,
            "recheck {ballot}: {}",
            match r {
                Ok(receipt) => format!("receipt {receipt:016x}"),
                Err(e) => format!("error {e}"),
            }
        );
    }
    fingerprint.push_str(&report.canonical_text());

    election.shutdown();
    ScenarioOutcome {
        plan: plan.clone(),
        violations,
        fingerprint,
        report: Some(report),
    }
}
