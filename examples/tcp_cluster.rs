//! A real multi-process election: every VC and BB replica in its own OS
//! process, talking over authenticated channels on localhost TCP sockets
//! (each replica behind one epoll event loop; Linux only).
//!
//! The parent probes free ports, re-executes itself once per replica
//! (`--role vc|bb --index i …`), then acts as the election coordinator:
//! it casts votes over the sockets, closes the polls, tallies, audits,
//! checks that every dial it made completed the channel handshake — and
//! finally re-runs the *same seed* in-process to prove the two
//! deployments produce identical tallies, receipts, and audit verdicts.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{ElectionBuilder, ElectionParams, ElectionReport, Network};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 2024;
const CASTS: &[(usize, usize)] = &[
    (0, 1),
    (1, 2),
    (2, 1),
    (3, 0),
    (4, 1),
    (5, 2),
    (6, 0),
    (7, 1),
];

fn params() -> ElectionParams {
    ElectionParams::new("tcp-cluster", 16, 3, 4, 4, 3, 2, 0, 600_000).expect("valid params")
}

fn cluster_to_args(cluster: &TcpCluster) -> Vec<String> {
    let ports = |addrs: &[SocketAddr]| {
        addrs
            .iter()
            .map(|a| a.port().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    vec![
        "--vc-ports".into(),
        ports(&cluster.vc_addrs),
        "--bb-ports".into(),
        ports(&cluster.bb_addrs),
    ]
}

fn cluster_from_args(args: &[String]) -> TcpCluster {
    let value = |flag: &str| -> String {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| panic!("missing {flag}"));
        args[pos + 1].clone()
    };
    let addrs = |csv: &str| -> Vec<SocketAddr> {
        csv.split(',')
            .map(|p| SocketAddr::from(([127, 0, 0, 1], p.parse().expect("port"))))
            .collect()
    };
    TcpCluster {
        vc_addrs: addrs(&value("--vc-ports")),
        bb_addrs: addrs(&value("--bb-ports")),
        options: TcpOptions::default(),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|pos| args[pos + 1].clone())
}

fn replica_main(args: &[String]) {
    let role = flag_value(args, "--role").expect("--role");
    let index: u32 = flag_value(args, "--index")
        .expect("--index")
        .parse()
        .expect("index");
    let cluster = cluster_from_args(args);
    let outcome = match role.as_str() {
        "vc" => run_vc_replica(&params(), SEED, index, &cluster),
        "bb" => run_bb_replica(&params(), SEED, index, &cluster),
        other => panic!("unknown role {other}"),
    };
    if let Err(e) = outcome {
        eprintln!("{role}-{index}: {e}");
        std::process::exit(1);
    }
}

/// Kills any replica still running when the coordinator unwinds (a
/// failed assertion must not leave orphan processes behind).
struct Replicas(Vec<(String, Child)>);

impl Replicas {
    fn wait_all(mut self) {
        for (name, child) in &mut self.0 {
            let status = child.wait().expect("replica wait");
            assert!(status.success(), "{name} exited with {status}");
        }
        self.0.clear();
    }
}

impl Drop for Replicas {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn run_in_process_reference() -> ElectionReport {
    let election = ElectionBuilder::new(params())
        .seed(SEED)
        .build()
        .expect("in-process election builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        voting.cast(ballot, option).expect("in-process cast");
    }
    let report = election.finish().expect("in-process election finishes");
    election.shutdown();
    report
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--role") {
        replica_main(&args);
        return;
    }

    let p = params();
    let cluster = TcpCluster::localhost_free(p.num_vc, p.num_bb).expect("free ports");
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Replicas(Vec::new());
    for (role, count) in [("vc", p.num_vc), ("bb", p.num_bb)] {
        for index in 0..count {
            let mut cmd = Command::new(&exe);
            cmd.arg("--role")
                .arg(role)
                .arg("--index")
                .arg(index.to_string())
                .args(cluster_to_args(&cluster))
                .stdin(Stdio::null());
            children.0.push((
                format!("{role}-{index}"),
                cmd.spawn().expect("spawn replica process"),
            ));
        }
    }
    println!(
        "spawned {} replica processes ({} VC + {} BB)",
        children.0.len(),
        p.num_vc,
        p.num_bb
    );

    let election = ElectionBuilder::new(p)
        .seed(SEED)
        .network(Network::Tcp(cluster))
        .close_timeout(Duration::from_secs(120))
        .build()
        .expect("coordinator builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        let record = voting.cast(ballot, option).expect("vote over tcp");
        println!(
            "ballot {ballot}: receipt {:x} over {} attempt(s)",
            record.audit.receipt, record.attempts
        );
    }
    let tcp_report = election.finish().expect("tcp election finishes");
    election.shutdown();

    children.wait_all();
    println!(
        "tcp run: tally {:?}, {} receipts, audit verified: {}",
        tcp_report.tally(),
        tcp_report.receipts.len(),
        tcp_report.verified()
    );
    // Every envelope crossed an authenticated channel: each dial the
    // coordinator made completed the handshake, and none failed it.
    let conn = |name: &str| tcp_report.metrics.counter(name, None, None);
    let (dials, authenticated) = (conn("net.conn.dials"), conn("net.conn.authenticated"));
    println!("coordinator: {dials} dials, {authenticated} authenticated");
    assert!(dials > 0, "the coordinator never dialed");
    assert_eq!(authenticated, dials, "a dial did not authenticate");
    assert_eq!(conn("net.conn.auth_failed"), 0, "a handshake failed");

    println!("re-running the same seed in-process for comparison...");
    let sim_report = run_in_process_reference();

    assert_eq!(
        tcp_report.tally(),
        sim_report.tally(),
        "tally diverged between deployments"
    );
    assert_eq!(
        tcp_report.receipts, sim_report.receipts,
        "receipts diverged between deployments"
    );
    assert_eq!(
        tcp_report.verified(),
        sim_report.verified(),
        "audit verdict diverged between deployments"
    );
    assert!(tcp_report.verified(), "audit failed");
    println!(
        "OK: multi-process and in-process runs agree (tally {:?}, audit verified)",
        tcp_report.tally()
    );
}
