//! Per-phase / per-message profile of a virtual-time election.
//!
//! ```text
//! cargo run --release --example profile -- [--ballots N] [--seed S]
//!     [--top K] [--wall] [--json PATH] [--gate PCT]
//! ```
//!
//! Runs a 1k-voter election under virtual time, casts every ballot, and
//! prints the merged [`MetricsSnapshot`] as a human profile: per-phase
//! totals, the `vc.step_ns` phase × message matrix, and the top-K
//! distributions by total time.
//!
//! Modes:
//!
//! * default — deterministic virtual-domain metrics: durations are the
//!   modelled charges (SimDisk I/O), counts are the real event counts.
//!   The same seed prints the same table, byte for byte.
//! * `--wall` — wall-clock profiling (`ElectionBuilder::profiling`):
//!   every duration is real elapsed time and the global crypto hook
//!   captures `crypto.schnorr.verify` / `crypto.msm` scoped timers, so
//!   the table shows where the CPU actually goes.
//! * `--json PATH` — additionally record the top rows as
//!   `bench_check.sh`-compatible JSON (`id` + `median_ns`); implies
//!   `--wall`. `scripts/bench_record.sh` uses this for
//!   `BENCH_profile.json`.
//! * `--gate PCT` — overhead gate: best-of-3 wall time with metrics off
//!   vs on must differ by less than PCT percent (with a small absolute
//!   floor for timer noise). Exits non-zero past the gate; CI runs this
//!   at 5%. The gate then profiles one more election and fails if any
//!   `bb.publish_ns` stage timer (interpolate / verify / tally) or
//!   `ea.setup_ns` stage timer (vc_rows / walk / multiply / assemble / sign)
//!   recorded nothing, if `~vc.queue_depth` read zero across the vote
//!   phase, or if the collectors spent more than
//!   [`MAX_FRESH_SIG_CHECKS_PER_CAST`] group-math signature
//!   verifications a cast (`vc.sig_checks`, label `fresh`) or more than
//!   [`MAX_FSYNCS_PER_CAST`] journal syncs a cast (vote-phase
//!   `storage.fsync_ns` samples) — counts, which repeat exactly for a
//!   seed, where a time would be noise.

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster};
use ddemos_harness::{Durability, ElectionBuilder, ElectionParams, ElectionReport, Network};
use std::time::{Duration, Instant};

/// The `bb.publish_ns` labels `BbCore::try_publish_result` times:
/// reconstruction, the one batch check of the openings and proofs
/// together, and the tally.
const PUBLISH_STAGES: [&str; 3] = ["interpolate", "verify", "tally"];

/// The `ea.setup_ns` labels the EA's per-ballot deriver times.
const SETUP_STAGES: [&str; 5] = ["vc_rows", "walk", "multiply", "assemble", "sign"];

/// Prints the stage split of one scoped-timer family and reports whether
/// every stage recorded something (a stage that reads zero in a profiled
/// election is a dead signal).
fn stage_ledger(report: &ElectionReport, name: &str, stages: &[&str]) -> bool {
    let mut live = true;
    for stage in stages {
        let key = ddemos_obs::metric_key(name, "", stage);
        let (count, total_ns) = report
            .metrics
            .hists
            .get(&key)
            .map_or((0, 0), |h| (h.count(), h.total_ns()));
        println!("{name} {stage}: {count} samples, {total_ns} ns");
        if count == 0 || total_ns == 0 {
            eprintln!("dead signal: {key} recorded nothing in a profiled election");
            live = false;
        }
    }
    live
}

/// Prints the spread of the `bb.step_ns` trustee-post samples. Each of
/// the profile election's three replicas publishes the result on its
/// `h_t`-th post (3 of the 15 samples, the heaviest); its other four
/// posts verify the post's signatures (the trustee's over the post, the
/// EA's over each opening-share bundle) and, past `h_t`, scan for parts
/// still unpublished — the 12 samples to p80.
fn trustee_post_split(report: &ElectionReport) {
    let key = ddemos_obs::metric_key("bb.step_ns", "", "TrusteePost");
    if let Some(h) = report.metrics.hists.get(&key) {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "bb.step TrusteePost: {} posts; signatures only: min {:.2} ms, p50 {:.2} ms, p80 {:.2} ms; publishing: max {:.2} ms",
            h.count(),
            ms(h.min_ns()),
            ms(h.quantile_ns(0.5)),
            ms(h.quantile_ns(0.8)),
            ms(h.max_ns()),
        );
    }
}

/// Group-math signature verifications the four collectors of the profile
/// election may spend on one cast: at the responder the two peer
/// endorsements that complete the UCERT (2), at each other collector the
/// UCERT's three signatures (9), at every collector the two receipt
/// shares that complete a quorum beside its own, which it was dealt and
/// does not verify (4·2) — 19, plus one of slack for a cast whose third
/// endorsement arrives before its UCERT forms.
const MAX_FRESH_SIG_CHECKS_PER_CAST: u64 = 20;

/// Commit barriers the four collectors may run for one cast: each of the
/// three peers before its ENDORSEMENT leaves and before its VOTE_P
/// leaves, the responder before its VOTE_P leaves — `2·(N_v − 1) + 1`.
/// Everything else the cast journals rides to the next barrier
/// (DESIGN.md §12.6).
const MAX_FSYNCS_PER_CAST: u64 = 7;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|pos| args[pos + 1].clone())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}")))
        .unwrap_or(default)
}

fn params(ballots: usize) -> ElectionParams {
    ElectionParams::new("profile", ballots as u64, 3, 4, 3, 5, 3, 0, 600_000).expect("params")
}

/// One full election — build, cast every ballot, finish — returning the
/// report and the wall time of the cast-to-audit pipeline.
fn run(seed: u64, ballots: usize, metrics: bool, profiling: bool) -> (ElectionReport, Duration) {
    let election = ElectionBuilder::new(params(ballots))
        .seed(seed)
        .virtual_time()
        .durability(Durability::sim()) // SimDisk journals: WAL metrics, modelled fsync charges
        .metrics(metrics)
        .profiling(profiling)
        .build()
        .expect("election builds");
    let start = Instant::now();
    let voting = election.voting();
    for ballot in 0..ballots {
        voting
            .cast(ballot, ballot % 3)
            .unwrap_or_else(|e| panic!("cast {ballot} failed: {e}"));
    }
    let report = election.finish().expect("election finishes");
    let elapsed = start.elapsed();
    election.shutdown();
    assert!(report.verified(), "audit failed");
    (report, elapsed)
}

/// Best-of-N wall time (the minimum is the least noisy point estimate).
fn best_of(n: usize, seed: u64, ballots: usize, metrics: bool) -> Duration {
    (0..n)
        .map(|i| run(seed.wrapping_add(i as u64), ballots, metrics, false).1)
        .min()
        .expect("at least one run")
}

/// A small TCP election (the `tests/tcp_e2e.rs` shape):
/// its report folds the authenticated-channel connection counters into
/// the snapshot, which the in-process profile run has no way to record.
fn run_evloop(seed: u64) -> Option<ElectionReport> {
    if !cfg!(target_os = "linux") {
        return None; // the epoll event loop is Linux-only
    }
    let params = ElectionParams::new("profile-ev", 12, 3, 4, 4, 3, 2, 0, 600_000).expect("params");
    let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb).expect("free ports");
    let mut replicas = Vec::new();
    for i in 0..params.num_vc as u32 {
        let (params, cluster) = (params.clone(), cluster.clone());
        replicas.push(std::thread::spawn(move || {
            run_vc_replica(&params, seed, i, &cluster).expect("vc replica")
        }));
    }
    for j in 0..params.num_bb as u32 {
        let (params, cluster) = (params.clone(), cluster.clone());
        replicas.push(std::thread::spawn(move || {
            run_bb_replica(&params, seed, j, &cluster).expect("bb replica")
        }));
    }
    let election = ElectionBuilder::new(params)
        .seed(seed)
        .network(Network::Tcp(cluster))
        .close_timeout(Duration::from_secs(60))
        .build()
        .expect("evloop coordinator builds");
    let voting = election.voting();
    for (ballot, option) in [(0, 1), (1, 2), (2, 1), (3, 0), (4, 1), (5, 2)] {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("evloop cast {ballot} failed: {e}"));
    }
    let report = election.finish().expect("evloop election finishes");
    election.shutdown();
    for replica in replicas {
        replica.join().expect("replica exits cleanly");
    }
    Some(report)
}

/// `bench_check.sh`-compatible rows keyed under `profile/`: the top-`k`
/// histograms plus per-phase totals (gated on `median_ns`), and every
/// counter/gauge as a count-only row the gate ignores — including the
/// evloop connection counters from the TCP side election.
fn profile_json(
    report: &ElectionReport,
    ev: Option<&ElectionReport>,
    elapsed: Duration,
    ballots: usize,
    k: usize,
) -> String {
    let metrics = &report.metrics;
    let mut rows: Vec<(&String, u64, u64, u64)> = metrics
        .hists
        .iter()
        .map(|(key, h)| (key, h.count(), h.total_ns(), h.quantile_ns(0.5)))
        .collect();
    rows.sort_by_key(|&(_, _, total, _)| std::cmp::Reverse(total));
    let mut out = String::from("[\n");
    out.push_str(&format!(
        "{{\"id\":\"profile/election_{}_ballots\",\"median_ns\":{},\"samples\":1}}",
        ballots,
        elapsed.as_nanos()
    ));
    for (i, (key, count, total_ns, median_ns)) in rows.into_iter().enumerate() {
        if i < k {
            out.push_str(&format!(
                ",\n{{\"id\":\"profile/{key}\",\"median_ns\":{median_ns},\"samples\":{count},\
                 \"total_ns\":{total_ns}}}"
            ));
        } else {
            // Below the top-k cut: keep the distribution on record
            // (WAL batch occupancy lives here — its values are counts,
            // not durations) but omit `median_ns` so the bench gate
            // does not compare it.
            out.push_str(&format!(
                ",\n{{\"id\":\"profile/hist/{key}\",\"samples\":{count},\
                 \"total\":{total_ns},\"mean\":{}}}",
                total_ns / count.max(1)
            ));
        }
    }
    // Per-phase totals over every phase-carrying histogram.
    let mut phases: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for (key, h) in &metrics.hists {
        let (_, phase, _) = ddemos_obs::split_key(key);
        if !phase.is_empty() {
            let e = phases.entry(phase.to_string()).or_default();
            e.0 += h.count();
            e.1 = e.1.saturating_add(h.total_ns());
        }
    }
    for (phase, (count, total_ns)) in phases {
        out.push_str(&format!(
            ",\n{{\"id\":\"profile/phase/{phase}\",\"median_ns\":{},\"samples\":{count},\
             \"total_ns\":{total_ns}}}",
            total_ns / count.max(1)
        ));
    }
    // Counters and gauges (WAL batch occupancy rides as a gauge-less
    // histogram `storage.wal_batch`; step/write counters land here).
    for (key, c) in &metrics.counters {
        out.push_str(&format!(
            ",\n{{\"id\":\"profile/counter/{key}\",\"count\":{}}}",
            c.get()
        ));
    }
    for (key, g) in &metrics.gauges {
        out.push_str(&format!(
            ",\n{{\"id\":\"profile/gauge/{key}\",\"count\":{}}}",
            g.get()
        ));
    }
    if let Some(ev) = ev {
        for (key, c) in &ev.metrics.counters {
            if key.starts_with("net.conn.") {
                out.push_str(&format!(
                    ",\n{{\"id\":\"profile/evloop/{key}\",\"count\":{}}}",
                    c.get()
                ));
            }
        }
    }
    out.push_str("\n]\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ballots: usize = parsed(&args, "--ballots", 1000);
    let seed: u64 = parsed(&args, "--seed", 1);
    let top: usize = parsed(&args, "--top", 12);
    let json = flag(&args, "--json");
    let gate: Option<f64> = flag(&args, "--gate").map(|v| v.parse().expect("bad --gate"));
    let wall = args.iter().any(|a| a == "--wall") || json.is_some();

    if let Some(pct) = gate {
        // Overhead gate: the metrics plumbing must cost < pct% wall time.
        let off = best_of(3, seed, ballots, false);
        let on = best_of(3, seed, ballots, true);
        let delta = on.saturating_sub(off);
        let overhead = delta.as_secs_f64() / off.as_secs_f64() * 100.0;
        println!("overhead gate: metrics off {off:?}, on {on:?} -> {overhead:.2}% (limit {pct}%)");
        // Absolute floor: below 20ms the difference is timer noise, not
        // metrics cost, regardless of the tiny baseline it divides by.
        if overhead > pct && delta > Duration::from_millis(20) {
            eprintln!("overhead gate FAILED: {overhead:.2}% > {pct}%");
            std::process::exit(1);
        }
        // Dead-signal check: the stage splits of result publication (the
        // largest row of every election) and of EA set-up (the first) must
        // not read zero when the profiling hook is on.
        let (report, _) = run(seed, ballots, true, true);
        let publish_live = stage_ledger(&report, "bb.publish_ns", &PUBLISH_STAGES);
        let setup_live = stage_ledger(&report, "ea.setup_ns", &SETUP_STAGES);
        // So must the collectors' one saturation signal: a wake finds at
        // least the envelope that caused it.
        let depth_key = ddemos_obs::metric_key("~vc.queue_depth", "vote", "");
        let (wakes, waiting) = report
            .metrics
            .hists
            .get(&depth_key)
            .map_or((0, 0), |h| (h.count(), h.total_ns()));
        println!("vc.queue_depth vote: {wakes} wakes, {waiting} envelopes waiting");
        let depth_live = waiting > 0;
        if !depth_live {
            eprintln!("dead signal: {depth_key} read zero across the vote phase");
        }
        if !(publish_live && setup_live && depth_live) {
            std::process::exit(1);
        }
        // Work gate: each distinct signature of the cast path is verified
        // once, and only while the ballot's state machine can use it.
        let fresh = report.metrics.counter("vc.sig_checks", None, Some("fresh"));
        let limit = MAX_FRESH_SIG_CHECKS_PER_CAST * ballots as u64;
        println!(
            "sig checks: {fresh} fresh over {ballots} casts = {:.2} a cast (limit {MAX_FRESH_SIG_CHECKS_PER_CAST})",
            fresh as f64 / ballots as f64
        );
        if fresh == 0 || fresh > limit {
            eprintln!("sig-check gate FAILED: {fresh} fresh verifications, limit {limit}");
            std::process::exit(1);
        }
        // And the journal is synced only where the durability table names
        // a barrier.
        let fsync_key = ddemos_obs::metric_key("storage.fsync_ns", "vote", "");
        let fsyncs = report
            .metrics
            .hists
            .get(&fsync_key)
            .map_or(0, |h| h.count());
        let limit = MAX_FSYNCS_PER_CAST * ballots as u64;
        println!(
            "fsyncs: {fsyncs} in the vote phase over {ballots} casts = {:.2} a cast (limit {MAX_FSYNCS_PER_CAST})",
            fsyncs as f64 / ballots as f64
        );
        if fsyncs == 0 || fsyncs > limit {
            eprintln!("fsync gate FAILED: {fsyncs} vote-phase barriers, limit {limit}");
            std::process::exit(1);
        }
        return;
    }

    let (report, elapsed) = run(seed, ballots, true, wall);
    println!(
        "profile: {ballots} ballots, seed {seed}, domain {:?}, wall {elapsed:?}",
        report.metrics.domain
    );
    println!(
        "phases: consensus {:?}, push+tally {:?}, publish {:?}\n",
        report.timings.vote_set_consensus,
        report.timings.push_to_bb_and_tally,
        report.timings.publish_result
    );
    print!("{}", report.metrics.profile_table("vc.step_ns", top));
    if wall {
        println!();
        stage_ledger(&report, "ea.setup_ns", &SETUP_STAGES);
        trustee_post_split(&report);
    }

    if let Some(path) = json {
        let ev = run_evloop(seed);
        let body = profile_json(&report, ev.as_ref(), elapsed, ballots, top);
        std::fs::write(&path, body).expect("write --json output");
        println!("\nwrote {path}");
    }
}
