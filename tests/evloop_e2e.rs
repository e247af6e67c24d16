//! Event-loop-driver end-to-end: the same full election as
//! `tests/tcp_e2e.rs`, but with every replica fronted by its epoll
//! event loop ([`ddemos_net::evloop::EvLoop`]) speaking authenticated
//! channels, and the coordinator dialing out over the authenticated
//! client transport. The acceptance criterion is byte-level: the
//! same-seed election through the evloop driver produces the identical
//! tally, receipts, and audit verdict as the in-process run.

#![cfg(target_os = "linux")]

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{ElectionBuilder, ElectionParams, ElectionReport, Network};
use std::time::Duration;

const SEED: u64 = 42;
const CASTS: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 1), (3, 0), (4, 1), (5, 2)];

fn params() -> ElectionParams {
    ElectionParams::new("evloop-e2e", 12, 3, 4, 4, 3, 2, 0, 600_000).unwrap()
}

fn run_evloop_election() -> ElectionReport {
    let params = params();
    let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb)
        .unwrap()
        .with_options(TcpOptions::event_loop());
    let mut replicas = Vec::new();
    for i in 0..params.num_vc as u32 {
        let (params, cluster) = (params.clone(), cluster.clone());
        replicas.push(std::thread::spawn(move || {
            run_vc_replica(&params, SEED, i, &cluster).expect("vc replica")
        }));
    }
    for j in 0..params.num_bb as u32 {
        let (params, cluster) = (params.clone(), cluster.clone());
        replicas.push(std::thread::spawn(move || {
            run_bb_replica(&params, SEED, j, &cluster).expect("bb replica")
        }));
    }
    let election = ElectionBuilder::new(params)
        .seed(SEED)
        .network(Network::Tcp(cluster))
        .close_timeout(Duration::from_secs(60))
        .build()
        .expect("evloop coordinator builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("evloop cast {ballot} failed: {e}"));
    }
    let report = election.finish().expect("evloop election finishes");
    election.shutdown();
    for replica in replicas {
        replica.join().expect("replica exits cleanly");
    }
    report
}

fn run_sim_election() -> ElectionReport {
    let election = ElectionBuilder::new(params())
        .seed(SEED)
        .build()
        .expect("sim election builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("sim cast {ballot} failed: {e}"));
    }
    let report = election.finish().expect("sim election finishes");
    election.shutdown();
    report
}

/// Same seed, same artifacts: the evloop deployment is behaviorally
/// identical to the in-process run.
#[test]
fn evloop_cluster_matches_in_process_run() {
    let ev = run_evloop_election();
    let sim = run_sim_election();
    assert_eq!(ev.tally(), sim.tally(), "tally diverged between drivers");
    assert_eq!(ev.tally(), Some(&[1, 3, 2][..]), "unexpected tally");
    assert_eq!(
        ev.receipts, sim.receipts,
        "receipts diverged between drivers"
    );
    assert!(ev.verified(), "evloop audit failed");
    assert!(sim.verified(), "sim audit failed");
    let ev_audit = ev.audit.as_ref().expect("evloop audit ran");
    let sim_audit = sim.audit.as_ref().expect("sim audit ran");
    assert_eq!(ev_audit.failures, sim_audit.failures);
    // Every envelope crossed an authenticated channel: the handshake
    // counters surface in the report's metrics snapshot (and the sim
    // run has none).
    let dials = ev.metrics.counter("net.conn.dials", None, None);
    let authenticated = ev.metrics.counter("net.conn.authenticated", None, None);
    assert!(dials > 0, "no dials recorded");
    assert_eq!(
        authenticated, dials,
        "every dial should authenticate (dials={dials} authenticated={authenticated})"
    );
    assert_eq!(ev.metrics.counter("net.conn.auth_failed", None, None), 0);
    // Only the evloop deployment has connections to count.
    let dials_key = ddemos_obs::metric_key("net.conn.dials", "", "");
    assert!(ev.metrics.counters.contains_key(&dials_key));
    assert!(
        !sim.metrics.counters.contains_key(&dials_key),
        "sim run has no connection counters"
    );
    assert!(ev.net.sent > 0, "no traffic recorded");
}
