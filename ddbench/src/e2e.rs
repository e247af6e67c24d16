//! The end-to-end run: a complete election through the public harness
//! API, timed the way its users wait for it — voters for a receipt,
//! officials for set-up and for the result, auditors for verification.
//! Tracing is off here; the per-layer ledger is `traced.rs`.

use crate::env::{self, RunDir};
use crate::report::RunOutput;
use crate::stats;
use crate::workload::{choice, expected_tally, Net, Workload, WARMUP_BALLOTS};
use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{Durability, Election, ElectionBuilder, Network, NetworkProfile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Patience of a warm-up cast: short, so a mesh that is not up yet costs
/// a quarter second per collector instead of a whole patience quantum.
const WARMUP_PATIENCE: Duration = Duration::from_millis(250);
/// How long the readiness barrier keeps trying.
const WARMUP_DEADLINE: Duration = Duration::from_secs(120);

/// A built election plus what must be torn down with it.
pub struct Deployment {
    pub election: Election,
    replicas: Vec<JoinHandle<()>>,
    /// Warm-up ballots that were cast (they count in the tally).
    pub warm_cast: Vec<usize>,
}

impl Deployment {
    /// Stops every node and waits for the replica threads.
    pub fn shutdown(self) {
        self.election.shutdown();
        for replica in self.replicas {
            replica.join().expect("replica thread exits cleanly");
        }
    }
}

/// Stands the workload's deployment up and passes the readiness barrier:
/// EA setup, `ElectionBuilder::build`, the replica mesh, and warm-up
/// casts until one returns a verified receipt.
///
/// # Errors
/// A description of what failed to come up.
pub fn deploy(
    workload: &Workload,
    seed: u64,
    measured: usize,
    wal_dir: Option<&std::path::Path>,
) -> Result<Deployment, String> {
    let params = workload.params(measured);
    let mut builder = ElectionBuilder::new(params.clone())
        .seed(seed)
        .threads(env::nproc());
    let mut replicas = Vec::new();
    match workload.net {
        Net::SimLan => builder = builder.network(NetworkProfile::lan()),
        Net::TcpLoopback => {
            let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb)
                .map_err(|e| format!("probing free ports: {e}"))?
                .with_options(TcpOptions::event_loop());
            for i in 0..params.num_vc as u32 {
                let (params, cluster) = (params.clone(), cluster.clone());
                replicas.push(std::thread::spawn(move || {
                    run_vc_replica(&params, seed, i, &cluster).expect("vc replica runs");
                }));
            }
            for j in 0..params.num_bb as u32 {
                let (params, cluster) = (params.clone(), cluster.clone());
                replicas.push(std::thread::spawn(move || {
                    run_bb_replica(&params, seed, j, &cluster).expect("bb replica runs");
                }));
            }
            builder = builder.network(Network::Tcp(cluster));
        }
    }
    if let Some(dir) = wal_dir {
        builder = builder
            .durability(Durability::File(dir.to_path_buf()))
            .adaptive_commit(true);
    }
    let election = builder.build().map_err(|e| format!("build: {e}"))?;

    // Readiness barrier. A warm-up cast that times out may still have
    // been recorded by the collectors, so every ballot tried is cast
    // again once the mesh answers: the tally stays a function of the seed.
    let deadline = Instant::now() + WARMUP_DEADLINE;
    let mut tried: Vec<usize> = Vec::new();
    let mut ready = false;
    'barrier: while Instant::now() < deadline {
        for ballot in measured..measured + WARMUP_BALLOTS {
            let (option, part) = choice(seed, ballot, workload.options);
            if !tried.contains(&ballot) {
                tried.push(ballot);
            }
            if election
                .voting()
                .patience(WARMUP_PATIENCE)
                .cast_with_part(ballot, option, part)
                .is_ok()
            {
                ready = true;
                break 'barrier;
            }
        }
    }
    let mut deployment = Deployment {
        election,
        replicas,
        warm_cast: tried,
    };
    if !ready {
        deployment.warm_cast.clear();
        deployment.shutdown();
        return Err("no warm-up cast succeeded before the deadline".to_string());
    }
    Ok(deployment)
}

/// One cast through the harness; `Some(receipt)` if it verified.
fn cast(election: &Election, seed: u64, ballot: usize, options: usize) -> Option<u64> {
    let (option, part) = choice(seed, ballot, options);
    let printed = election.setup.ballots[ballot]
        .part(part)
        .line_for_option(option)?
        .receipt;
    let record = election
        .voting()
        .cast_with_part(ballot, option, part)
        .ok()?;
    (record.audit.receipt == printed).then_some(printed)
}

/// What one closed-loop phase measured.
pub struct PhaseSamples {
    /// Latencies of the casts that verified, in milliseconds, sorted.
    pub latencies_ms: Vec<f64>,
    /// Receipt per ballot (`None` where the cast failed).
    pub receipts: Vec<Option<u64>>,
    pub wall: Duration,
}

impl PhaseSamples {
    pub fn ok(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn per_second(&self) -> f64 {
        self.ok() as f64 / self.wall.as_secs_f64()
    }
}

/// Casts ballots `0..measured`, `rounds` times over, from a closed loop
/// of `threads` voter threads: one outstanding cast per thread, every
/// cast a new voter identity (over TCP: a new authenticated connection).
pub fn cast_phase(
    election: &Election,
    seed: u64,
    measured: usize,
    options: usize,
    threads: usize,
    rounds: usize,
) -> PhaseSamples {
    let total = measured * rounds;
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Option<u64>, f64)>> = Mutex::new(Vec::with_capacity(total));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let ballot = index % measured;
                    let t0 = Instant::now();
                    let receipt = cast(election, seed, ballot, options);
                    mine.push((ballot, receipt, t0.elapsed().as_secs_f64() * 1e3));
                }
                done.lock().expect("voter thread panicked").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    // A ballot's receipt counts only if every round returned the same one.
    let mut seen: Vec<Option<Option<u64>>> = vec![None; measured];
    let mut latencies_ms = Vec::with_capacity(total);
    for (ballot, receipt, ms) in done.into_inner().expect("voter thread panicked") {
        seen[ballot] = Some(match seen[ballot] {
            None => receipt,
            Some(first) if first == receipt => first,
            Some(_) => None,
        });
        if receipt.is_some() {
            latencies_ms.push(ms);
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    PhaseSamples {
        latencies_ms,
        receipts: seen.into_iter().map(Option::flatten).collect(),
        wall,
    }
}

/// How often `Election::audit()` runs per election. One audit of a
/// hundred ballots is a tenth of a second, too short a window to time
/// once on a shared machine; `audit_s` is the best of all of them.
pub const AUDITS_PER_ELECTION: usize = 3;

/// What one complete election measured.
struct ElectionSample {
    setup_s: f64,
    fresh: PhaseSamples,
    recast: PhaseSamples,
    /// `close()` alone, then `close()` through `tally()`.
    close_s: f64,
    close_to_result_s: f64,
    /// One entry per `Election::audit()` call.
    audit_s: Vec<f64>,
}

/// Deploys the workload once and runs one complete election on it:
/// set-up → fresh casts → re-casts → close → tally → audit. Oracle misses
/// go to `out`; `None` if the deployment never came up.
fn run_election(
    workload: &Workload,
    seed: u64,
    measured: usize,
    wal_dir: Option<&std::path::Path>,
    out: &mut RunOutput,
) -> Option<ElectionSample> {
    let threads = env::voter_threads();
    let t0 = Instant::now();
    let deployment = match deploy(workload, seed, measured, wal_dir) {
        Ok(deployment) => deployment,
        Err(e) => {
            out.check(false, || format!("set-up: {e}"));
            return None;
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let election = &deployment.election;

    // Voters: fresh casts, then the same casts again and again (a voter
    // who lost the receipt) — the write path beside the read-like path.
    let fresh = cast_phase(election, seed, measured, workload.options, threads, 1);
    let recast = cast_phase(
        election,
        seed,
        measured,
        workload.options,
        threads,
        workload.recast_rounds,
    );
    let recasts = measured * workload.recast_rounds;
    let same = fresh
        .receipts
        .iter()
        .zip(&recast.receipts)
        .filter(|(a, b)| a.is_some() && a == b)
        .count();
    out.attempted += (measured + recasts) as u64;
    out.failed += (measured - fresh.ok()) as u64 + (recasts - recast.ok()) as u64;
    out.check(fresh.ok() == measured, || {
        format!("{} of {measured} fresh casts verified", fresh.ok())
    });
    out.check(recast.ok() == recasts, || {
        format!("{} of {recasts} re-casts verified", recast.ok())
    });
    out.check(same == measured, || {
        format!("{same} of {measured} ballots got their first receipt on every re-cast")
    });

    // Officials: polls close → published result.
    let t0 = Instant::now();
    let closed = election.close();
    let close_s = t0.elapsed().as_secs_f64();
    let result = closed
        .map_err(|e| e.to_string())
        .and_then(|_| election.tally().map_err(|e| e.to_string()));
    let close_to_result_s = t0.elapsed().as_secs_f64();
    let expected = expected_tally(seed, measured, &deployment.warm_cast, workload.options);
    match result {
        Ok(result) => out.check(result.tally == expected, || {
            format!("published tally {:?}, expected {expected:?}", result.tally)
        }),
        Err(e) => out.check(false, || format!("close/tally: {e}")),
    }

    // Auditors: public and delegated verification, each time from a
    // fresh majority read of the bulletin board.
    let mut audit_s = Vec::with_capacity(AUDITS_PER_ELECTION);
    for _ in 0..AUDITS_PER_ELECTION {
        let t0 = Instant::now();
        let audit = election.audit();
        audit_s.push(t0.elapsed().as_secs_f64());
        match audit {
            Ok(report) => out.check(report.ok(), || {
                format!("audit failed: {:?}", report.failures.first())
            }),
            Err(e) => out.check(false, || format!("audit: {e}")),
        }
    }

    deployment.shutdown();
    Some(ElectionSample {
        setup_s,
        fresh,
        recast,
        close_s,
        close_to_result_s,
        audit_s,
    })
}

/// Emits `name` as the best of `values`, one per election. The machine's
/// noise is one-sided (a busy neighbour only ever slows an election) and
/// comes in episodes of seconds to minutes, so the best election is what
/// the program does and the median is what the neighbours did.
fn emit_best(out: &mut RunOutput, name: &str, best: fn(&[f64]) -> Option<f64>, values: Vec<f64>) {
    out.note(format!("{name} per election: {values:.4?}"));
    out.emit_with_samples(
        name,
        best(&values).expect("at least one election"),
        values.len(),
    );
}

/// Runs the workload end to end and reports the end-to-end metrics.
///
/// A run holds [`Workload::elections`] complete elections, one after
/// the other, and every figure is the best over them (see [`emit_best`]
/// and *Steadiness* in the README).
pub fn run(workload: &Workload, seed: u64, measured: usize) -> RunOutput {
    let mut out = RunOutput::default();
    let run_dir = RunDir::create(workload.name).expect("scratch directory");
    match workload.net {
        Net::SimLan => out.note(
            "network: SimNet lan profile, 200-300 us injected per hop, envelopes in memory"
                .to_string(),
        ),
        Net::TcpLoopback => out.note(
            "network: TCP event-loop driver on loopback threads of this process (no wire)"
                .to_string(),
        ),
    }
    if workload.wal {
        out.note(format!(
            "wal: real files under {} on {}",
            run_dir.path().display(),
            env::fs_type(run_dir.path())
        ));
    }
    out.note(format!(
        "load: closed loop, C={} voter threads, {} elections x {measured} ballots (+{WARMUP_BALLOTS} warm-up) cast once fresh and {} times again, {AUDITS_PER_ELECTION} audits each, m={}",
        env::voter_threads(),
        workload.elections,
        workload.recast_rounds,
        workload.options
    ));
    let samples: Vec<ElectionSample> = (0..workload.elections)
        .filter_map(|rep| {
            let dir = workload
                .wal
                .then(|| run_dir.path().join(format!("wal-{rep}")));
            run_election(workload, seed, measured, dir.as_deref(), &mut out)
        })
        .collect();
    if samples.is_empty() {
        return out;
    }

    let pct = |s: &PhaseSamples, p: f64| stats::percentile(&s.latencies_ms, p).unwrap_or(f64::NAN);
    let of = |value: &dyn Fn(&ElectionSample) -> f64| samples.iter().map(value).collect();
    // The tail is printed, not emitted: between runs of one commit it
    // spreads 15-27 % on the shared host, past the widest bound a metric
    // may declare. One election's casts are too few for it, so it is taken
    // over the pooled casts of the quieter half of the elections.
    let mut by_median: Vec<&ElectionSample> = samples.iter().collect();
    by_median.sort_by(|a, b| pct(&a.fresh, 50.0).total_cmp(&pct(&b.fresh, 50.0)));
    let mut quiet_half: Vec<f64> = by_median[..samples.len().div_ceil(2)]
        .iter()
        .flat_map(|s| s.fresh.latencies_ms.iter().copied())
        .collect();
    quiet_half.sort_by(f64::total_cmp);
    out.note(format!(
        "cast p95 (no bound, see README): {:.4} ms over the {} casts of the {} elections with the lowest median, {} samples beyond it; per election: {:.4?}",
        stats::percentile(&quiet_half, 95.0).unwrap_or(f64::NAN),
        quiet_half.len(),
        samples.len().div_ceil(2),
        stats::samples_beyond(quiet_half.len(), 95.0),
        of(&|s| pct(&s.fresh, 95.0))
    ));

    emit_best(&mut out, "setup_s", stats::min, of(&|s| s.setup_s));
    emit_best(
        &mut out,
        "cast_p50_ms",
        stats::min,
        of(&|s| pct(&s.fresh, 50.0)),
    );
    emit_best(
        &mut out,
        "cast_per_s",
        stats::max,
        of(&|s| s.fresh.per_second()),
    );
    emit_best(
        &mut out,
        "recast_p50_ms",
        stats::min,
        of(&|s| pct(&s.recast, 50.0)),
    );
    emit_best(
        &mut out,
        "recast_per_s",
        stats::max,
        of(&|s| s.recast.per_second()),
    );
    emit_best(
        &mut out,
        "close_to_result_s",
        stats::min,
        of(&|s| s.close_to_result_s),
    );
    let audits = samples.iter().flat_map(|s| s.audit_s.clone()).collect();
    emit_best(&mut out, "audit_s", stats::min, audits);
    let closes: Vec<f64> = samples.iter().map(|s| s.close_s).collect();
    out.note(format!(
        "close_to_result_s = close (median {:.3} s) + tally",
        stats::median(&closes).expect("at least one election")
    ));
    out.emit("peak_rss_mb", env::peak_rss_mib().unwrap_or(f64::NAN));
    out
}
