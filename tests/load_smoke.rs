//! Small-scale CI run of the closed-loop load harness: 1000 concurrent
//! authenticated voter connections against event-loop VC replicas in
//! one process. The 100k-connection demonstration is the multi-process
//! `examples/load_gen.rs`; this smoke test keeps the same code path
//! (ramp → warm-up → measure → shutdown) continuously exercised.
//!
//! Optimized builds only: debug-build crypto on the VC side cannot
//! serve 1000 closed-loop casters inside the measure window, so under
//! `cargo test` (dev profile) this file compiles to nothing. CI runs
//! the same 1k configuration in release through `examples/load_gen.rs`.

#![cfg(all(target_os = "linux", not(debug_assertions)))]

use ddemos_harness::load::{run_load_shard, shutdown_cluster, ShardConfig};
use ddemos_harness::tcp::{run_vc_replica, TcpCluster};
use ddemos_harness::ElectionParams;
use std::time::Duration;

const SEED: u64 = 77;
const CONNS: usize = 1000;

#[test]
fn thousand_connection_closed_loop() {
    let params = ElectionParams::new("load-smoke", 256, 3, 4, 4, 3, 2, 0, 3_600_000).unwrap();
    let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb).unwrap();
    // Only the VC replicas run: the load harness drives the voting
    // phase and never closes the polls, so the BB tier is idle.
    let mut replicas = Vec::new();
    for i in 0..params.num_vc as u32 {
        let (params, cluster) = (params.clone(), cluster.clone());
        replicas.push(std::thread::spawn(move || {
            run_vc_replica(&params, SEED, i, &cluster).expect("vc replica")
        }));
    }

    let mut cfg = ShardConfig::new(CONNS);
    cfg.warmup = Duration::from_secs(1);
    cfg.measure = Duration::from_secs(2);
    let report = run_load_shard(&params, SEED, &cluster, &cfg).expect("load shard runs");

    shutdown_cluster(SEED, &cluster).expect("cluster shuts down");
    for replica in replicas {
        replica.join().expect("replica exits cleanly");
    }

    assert_eq!(
        report.conns_up, CONNS,
        "all connections should authenticate: {:?}",
        report.stats
    );
    assert!(report.casts > 0, "no acknowledged casts: {report:?}");
    assert_eq!(report.errors, 0, "errors during measurement: {report:?}");
    assert!(report.hist.count() > 0, "no latencies recorded");
    let p50 = report.hist.quantile_ns(0.50);
    let p99 = report.hist.quantile_ns(0.99);
    assert!(
        p50 > 0 && p99 >= p50,
        "implausible percentiles p50={p50} p99={p99}"
    );
    assert_eq!(report.stats.auth_failed, 0, "{:?}", report.stats);
    // Dials count attempts: early connects racing the replica listener
    // bind are refused and retried.
    assert!(report.stats.dials as usize >= CONNS, "{:?}", report.stats);
    assert_eq!(
        report.stats.authenticated as usize, CONNS,
        "{:?}",
        report.stats
    );
    println!(
        "load smoke: {} casts over {:?} ({:.0} votes/s), p50 {}µs p99 {}µs",
        report.casts,
        report.elapsed,
        report.votes_per_sec(),
        p50 / 1000,
        p99 / 1000,
    );
}
