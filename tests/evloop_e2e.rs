//! Event-loop end-to-end with a provisioned cluster secret: the same full
//! election as `tests/tcp_e2e.rs`, with every replica behind its epoll
//! event loop and the coordinator dialing out over authenticated
//! channels, but keyed by an explicit `TcpOptions::auth_secret` instead
//! of the seed-derived stand-in — the shape of a deployment that hands
//! each process its key out of band. The channel key never feeds the
//! election, so the same-seed run must still produce the identical tally,
//! receipts, and audit verdict as the in-process run.
//!
//! Linux only: the event loop sits on `epoll`, and off Linux the replica
//! mains return `Unsupported` instead of serving.

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
        .with_options(TcpOptions {
            auth_secret: Some([0x5a; 32]),
            ..TcpOptions::event_loop()
        });
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

/// Same seed, same artifacts: the event-loop deployment under a
/// provisioned secret is behaviorally identical to the in-process run,
/// and every dial authenticated under that secret.
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
    let dials = ev.metrics.counter("net.conn.dials", None, None);
    let authenticated = ev.metrics.counter("net.conn.authenticated", None, None);
    assert!(dials > 0, "no dials recorded");
    assert_eq!(
        authenticated, dials,
        "every dial should authenticate (dials={dials} authenticated={authenticated})"
    );
    assert_eq!(ev.metrics.counter("net.conn.auth_failed", None, None), 0);
    assert!(ev.net.sent > 0, "no traffic recorded");
}
