//! Loopback TCP end-to-end: a full 4-VC / 4-BB / 3-trustee election over
//! real sockets, with every replica running its production main
//! (`run_vc_replica` / `run_bb_replica`) on its own thread — the same
//! mains `examples/tcp_cluster.rs` runs in separate OS processes — and
//! the same-seed in-process election as the reference: identical tally,
//! receipts, and audit verdict.

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{ElectionBuilder, ElectionParams, ElectionReport, Network};
use std::time::Duration;

const SEED: u64 = 42;
const CASTS: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 1), (3, 0), (4, 1), (5, 2)];

fn params() -> ElectionParams {
    // Polls nominally open for 10 minutes; the coordinator closes them
    // explicitly, so wall time never approaches that.
    ElectionParams::new("tcp-e2e", 12, 3, 4, 4, 3, 2, 0, 600_000).unwrap()
}

/// Runs the election over `cluster` with the first `vcs_up` collectors
/// started (the rest stay down for the whole election).
fn run_tcp_election(cluster: TcpCluster, vcs_up: u32) -> ElectionReport {
    let params = params();
    let mut replicas = Vec::new();
    for i in 0..vcs_up {
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
        .expect("tcp coordinator builds");
    // A voter who picks a collector that is down moves on after a
    // second; every live one answers in milliseconds. A cast succeeds
    // only with the receipt printed on the ballot.
    let voting = election.voting().patience(Duration::from_secs(1));
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("tcp cast {ballot} failed: {e}"));
    }
    let report = election.finish().expect("tcp election finishes");
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

/// The acceptance criterion: the TCP deployment is behaviorally identical
/// to the in-process run of the same seed — same tally, same receipts,
/// same audit verdict.
#[test]
fn tcp_cluster_matches_in_process_run() {
    let cluster = TcpCluster::localhost_free(params().num_vc, params().num_bb).unwrap();
    let tcp = run_tcp_election(cluster, params().num_vc as u32);
    let sim = run_sim_election();
    assert_eq!(
        tcp.tally(),
        sim.tally(),
        "tally diverged between transports"
    );
    assert_eq!(tcp.tally(), Some(&[1, 3, 2][..]), "unexpected tally");
    assert_eq!(
        tcp.receipts, sim.receipts,
        "receipts diverged between transports"
    );
    assert!(tcp.verified(), "tcp audit failed");
    assert!(sim.verified(), "sim audit failed");
    let tcp_audit = tcp.audit.as_ref().expect("tcp audit ran");
    let sim_audit = sim.audit.as_ref().expect("sim audit ran");
    assert_eq!(tcp_audit.failures, sim_audit.failures);
    // Real sockets carried the whole election: every protocol class
    // shows traffic on the coordinator's transport alone.
    assert!(tcp.net.sent > 0, "no traffic recorded");
}

/// Liveness inside the fault bound on the real front door: with one of
/// four collectors down (f_v = 1 < N_v/3) the event-loop deployment
/// still hands every voter the printed receipt, tallies and audits.
/// Three live collectors are exactly the quorum, so each must count its
/// own receipt share and its own consensus votes — the envelopes a node
/// addresses to itself.
#[cfg(target_os = "linux")]
#[test]
fn event_loop_cluster_survives_one_collector_down() {
    let cluster = TcpCluster::localhost_free(params().num_vc, params().num_bb)
        .unwrap()
        .with_options(TcpOptions::event_loop());
    let report = run_tcp_election(cluster, params().num_vc as u32 - 1);
    assert_eq!(report.tally(), Some(&[1, 3, 2][..]), "unexpected tally");
    assert_eq!(report.receipts.len(), CASTS.len());
    assert!(report.verified(), "audit failed");
}
