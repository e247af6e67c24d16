//! Loopback TCP end-to-end: a full 4-VC / 4-BB / 3-trustee election over
//! real sockets, with every replica running its production main
//! (`run_vc_replica` / `run_bb_replica`) on its own thread — the same
//! mains `examples/tcp_cluster.rs` runs in separate OS processes — each
//! behind its epoll event loop speaking authenticated channels, and the
//! coordinator dialing out over the authenticated client transport. The
//! same-seed in-process election is the reference: identical tally,
//! receipts, and audit verdict.
//!
//! Linux only: the event loop sits on `epoll`, and off Linux the replica
//! mains return `Unsupported` instead of serving.

#![cfg(target_os = "linux")]

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{
    Election, ElectionBuilder, ElectionParams, ElectionReport, Network, NodeId, PartId,
};
use ddemos_protocol::deal::deal_chunks;
use ddemos_protocol::messages::{Msg, VoteOutcome};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const CASTS: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 1), (3, 0), (4, 1), (5, 2)];

/// One election at a time: the replicas run as threads of this process,
/// so its thread and fd counts belong to the one election running.
static ONE_ELECTION: Mutex<()> = Mutex::new(());

fn params(num_ballots: u64) -> ElectionParams {
    // Polls nominally open for 10 minutes; the coordinator closes them
    // explicitly, so wall time never approaches that.
    ElectionParams::new("tcp-e2e", num_ballots, 3, 4, 4, 3, 2, 0, 600_000).unwrap()
}

/// Starts the first `vcs_up` collectors and every BB replica of a
/// localhost cluster (the rest stay down for the whole election), and
/// builds the coordinator.
fn start_cluster(
    params: &ElectionParams,
    options: TcpOptions,
    vcs_up: u32,
) -> (Election, Vec<JoinHandle<()>>) {
    let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb)
        .unwrap()
        .with_options(options);
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
    let election = ElectionBuilder::new(params.clone())
        .seed(SEED)
        .network(Network::Tcp(cluster))
        .close_timeout(Duration::from_secs(60))
        .build()
        .expect("tcp coordinator builds");
    (election, replicas)
}

/// Finishes the election, shuts the cluster down and checks the
/// coordinator's connection accounting: once the voters are gone, the
/// only client connections still open are the coordinator's own — one
/// control connection to each replica and, from its endpoint to the
/// board, one per BB replica — however many voters cast.
fn finish(
    election: Election,
    replicas: Vec<JoinHandle<()>>,
    params: &ElectionParams,
) -> ElectionReport {
    let report = election.finish().expect("tcp election finishes");
    election.shutdown();
    for replica in replicas {
        replica.join().expect("replica exits cleanly");
    }
    let conn = |name: &str| report.metrics.counter(name, None, None);
    let (dials, closed) = (conn("net.conn.dials"), conn("net.conn.closed"));
    let own = (params.num_vc + 2 * params.num_bb) as u64;
    assert!(
        dials - closed <= own,
        "{} client connections left open (dials={dials} closed={closed}), \
         the coordinator holds at most {own}",
        dials - closed
    );
    report
}

/// Runs the election on a default-options localhost cluster with the
/// first `vcs_up` collectors started.
fn run_tcp_election(vcs_up: u32) -> ElectionReport {
    let _one = ONE_ELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let params = params(12);
    let (election, replicas) = start_cluster(&params, TcpOptions::default(), vcs_up);
    // A voter who picks a collector that is down moves on after a
    // second; every live one answers in milliseconds. A cast succeeds
    // only with the receipt printed on the ballot.
    let voting = election.voting().patience(Duration::from_secs(1));
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("tcp cast {ballot} failed: {e}"));
    }
    finish(election, replicas, &params)
}

fn run_sim_election() -> ElectionReport {
    run_sim(params(12))
}

/// The same-seed in-process run of `params` casting [`CASTS`].
fn run_sim(params: ElectionParams) -> ElectionReport {
    let election = ElectionBuilder::new(params)
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
/// same audit verdict — and every envelope crossed an authenticated
/// channel.
#[test]
fn tcp_cluster_matches_in_process_run() {
    let tcp = run_tcp_election(params(12).num_vc as u32);
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
    // The handshake counters surface in the report's metrics snapshot:
    // every dial authenticated, none failed.
    let dials = tcp.metrics.counter("net.conn.dials", None, None);
    let authenticated = tcp.metrics.counter("net.conn.authenticated", None, None);
    assert!(dials > 0, "no dials recorded");
    assert_eq!(
        authenticated, dials,
        "every dial should authenticate (dials={dials} authenticated={authenticated})"
    );
    assert_eq!(tcp.metrics.counter("net.conn.auth_failed", None, None), 0);
    // Only the TCP deployment has connections to count.
    let dials_key = ddemos_obs::metric_key("net.conn.dials", "", "");
    assert!(
        !sim.metrics.counters.contains_key(&dials_key),
        "sim run has no connection counters"
    );
    // Real sockets carried the whole election: the coordinator's
    // transport alone shows traffic.
    assert!(tcp.net.sent > 0, "no traffic recorded");
}

/// A board larger than a connection's write cap is dealt in chunks: at
/// m = 5 and 80 ballots the `BbInit` encodes to about 1.6 MB against the
/// 1 MiB default cap. No frame the coordinator writes (the deal's chunks
/// are the only large ones) exceeds the cap, the largest is smaller than
/// the board, so the deal took more than one, and the election still
/// matches the same-seed in-process run.
#[test]
fn a_board_larger_than_the_write_cap_is_dealt_in_chunks() {
    let _one = ONE_ELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let params = ElectionParams::new("tcp-e2e-wide", 80, 5, 4, 3, 3, 2, 0, 600_000).unwrap();
    let options = TcpOptions::default();
    let (election, replicas) = start_cluster(&params, options, params.num_vc as u32);
    let board: usize = deal_chunks(&election.setup.bb_init, usize::MAX)
        .unwrap()
        .iter()
        .map(Vec::len)
        .sum();
    assert!(
        board > options.write_cap,
        "a {board}-byte board fits the cap"
    );
    let voting = election.voting().patience(Duration::from_secs(1));
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option)
            .unwrap_or_else(|e| panic!("tcp cast {ballot} failed: {e}"));
    }
    let tcp = finish(election, replicas, &params);
    let key = ddemos_obs::metric_key("net.conn.largest_frame_out", "", "");
    let largest = tcp.metrics.gauges.get(&key).map_or(0, |g| g.get()) as usize;
    let cap = options.write_cap.min(options.max_frame as usize);
    assert!(
        largest <= cap,
        "a {largest}-byte frame over the {cap}-byte cap"
    );
    assert!(largest < board, "the {board}-byte board went in one frame");
    let sim = run_sim(params);
    assert_eq!(
        tcp.tally(),
        sim.tally(),
        "tally diverged between transports"
    );
    assert_eq!(tcp.receipts, sim.receipts);
    assert!(tcp.verified(), "tcp audit failed");
    assert_eq!(
        tcp.audit.as_ref().map(|a| &a.failures),
        sim.audit.as_ref().map(|a| &a.failures)
    );
}

/// Liveness inside the fault bound: with one of four collectors down
/// (f_v = 1 < N_v/3) the deployment still hands every voter the printed
/// receipt, tallies and audits. Three live collectors are exactly the
/// quorum, so each must count its own receipt share and its own
/// consensus votes — the envelopes a node addresses to itself.
#[test]
fn event_loop_cluster_survives_one_collector_down() {
    let report = run_tcp_election(params(12).num_vc as u32 - 1);
    assert_eq!(report.tally(), Some(&[1, 3, 2][..]), "unexpected tally");
    assert_eq!(report.receipts.len(), CASTS.len());
    assert!(report.verified(), "audit failed");
}

/// Only the coordinator closes or stops a replica: a voter sends a
/// collector `ClosePolls` and `Shutdown`, then a vote on the same
/// connection, and the collector — still up, polls still open — answers
/// with the printed receipt. The election then closes, tallies the vote
/// and audits.
#[test]
fn a_voter_can_neither_close_nor_stop_a_collector() {
    let _one = ONE_ELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let params = params(12);
    let (election, replicas) = start_cluster(&params, TcpOptions::default(), params.num_vc as u32);
    let voter = election.client_endpoint();
    voter.send(NodeId::vc(0), Msg::ClosePolls);
    voter.send(NodeId::vc(0), Msg::Shutdown);
    let ballot = &election.setup.ballots[0];
    let line = ballot.part(PartId::A).line_for_option(1).expect("option 1");
    voter.send(
        NodeId::vc(0),
        Msg::Vote {
            request_id: 1,
            serial: ballot.serial,
            vote_code: line.vote_code,
        },
    );
    let outcome = loop {
        let env = voter
            .recv_timeout(Duration::from_secs(10))
            .expect("the collector answers the vote");
        if let Msg::VoteReply { outcome, .. } = env.msg {
            break outcome;
        }
    };
    assert!(
        matches!(outcome, VoteOutcome::Receipt(r) if r == line.receipt),
        "{outcome:?}"
    );
    drop(voter);
    let report = finish(election, replicas, &params);
    assert_eq!(report.tally(), Some(&[0, 1, 0][..]), "unexpected tally");
    assert!(report.verified(), "audit failed");
}

/// The entries of a `/proc/self` directory: this process's threads
/// (`task`) or open file descriptors (`fd`).
fn proc_count(dir: &str) -> usize {
    std::fs::read_dir(format!("/proc/self/{dir}"))
        .expect("procfs")
        .count()
}

/// More voters than a replica admits connections: each voter's
/// connection ends with its cast, so the replica's slot is free again
/// for the next voter, and the voters leave no thread and no socket
/// behind in the coordinator's process.
#[test]
fn more_voters_than_max_conns_each_get_a_receipt() {
    const VOTERS: u64 = 120;
    let _one = ONE_ELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let params = params(VOTERS);
    let options = TcpOptions {
        max_conns: 24,
        ..Default::default()
    };
    let (election, replicas) = start_cluster(&params, options, params.num_vc as u32);
    let voting = election.voting();
    let (threads, fds) = (proc_count("task"), proc_count("fd"));
    for ballot in 0..VOTERS as usize {
        voting
            .cast(ballot, ballot % params.num_options)
            .unwrap_or_else(|e| panic!("voter {ballot} of {VOTERS} refused: {e}"));
    }
    // The collectors' own mesh (each dials the other three on its
    // first multicast) opens during the first casts: at most
    // N_v·(N_v − 1) connections, two fds each, both ends in this process.
    // A replica closes its end of a voter's connection when it next
    // polls, so the counts may take a moment to settle after the last
    // cast.
    let mesh = 2 * params.num_vc * (params.num_vc - 1);
    let settled = |(t, f): (usize, usize)| t <= threads + 2 && f <= fds + mesh + 2;
    let settle = Instant::now() + Duration::from_secs(5);
    let mut after = (proc_count("task"), proc_count("fd"));
    while !settled(after) && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
        after = (proc_count("task"), proc_count("fd"));
    }
    assert!(
        settled(after),
        "threads {threads} before the casts, {} after; fds {fds} before, {} after \
         (the collectors' mesh accounts for up to {mesh})",
        after.0,
        after.1
    );
    let report = finish(election, replicas, &params);
    assert_eq!(report.receipts.len(), VOTERS as usize);
}
