//! A real multi-process election: every VC and BB replica in its own OS
//! process, talking over authenticated channels on localhost TCP sockets
//! (each replica behind one epoll event loop; Linux only).
//!
//! The parent probes free ports, re-executes itself once per replica
//! (`--role vc|bb --index i …`), then acts as the election coordinator:
//! it casts votes over the sockets, closes the polls, tallies, audits,
//! checks that every dial it made completed the channel handshake — and
//! finally re-runs the *same seed* in-process to prove the two
//! deployments publish the same vote set and produce identical tallies,
//! receipts, and audit verdicts.
//!
//! ```text
//! cargo run --release --example tcp_cluster [-- --ballots N --options M]
//! ```
//!
//! `--ballots` (default 16) and `--options` (default 3) size the election;
//! `--ballots 80 --options 5` makes a board of about 1.6 MB, which the
//! coordinator deals to each BB replica in chunks under the 1 MiB write
//! cap. The coordinator prints the largest frames it read and wrote.

use ddemos_harness::tcp::{run_bb_replica, run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::{Election, ElectionBuilder, ElectionParams, ElectionReport, Network};
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

/// The election `--ballots` and `--options` size.
fn params(args: &[String]) -> ElectionParams {
    let size = |flag: &str, default: &str| -> String {
        flag_value(args, flag).unwrap_or_else(|| default.to_string())
    };
    let ballots = size("--ballots", "16")
        .parse()
        .expect("--ballots: a number");
    let options = size("--options", "3").parse().expect("--options: a number");
    ElectionParams::new("tcp-cluster", ballots, options, 4, 4, 3, 2, 0, 600_000)
        .expect("valid params")
}

/// The flags every process of the run shares: the election's size.
fn size_args(args: &[String]) -> Vec<String> {
    ["--ballots", "--options"]
        .into_iter()
        .filter_map(|flag| Some([flag.to_string(), flag_value(args, flag)?]))
        .flatten()
        .collect()
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
        "vc" => run_vc_replica(&params(args), SEED, index, &cluster),
        "bb" => run_bb_replica(&params(args), SEED, index, &cluster),
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

/// Closes the polls, then finishes: the digest of the vote set the board
/// published, and the report.
fn close_and_finish(election: Election, what: &str) -> ([u8; 32], ElectionReport) {
    let published = election
        .close()
        .unwrap_or_else(|e| panic!("{what} close: {e}"));
    let report = election
        .finish()
        .unwrap_or_else(|e| panic!("{what} election finishes: {e}"));
    election.shutdown();
    (published.digest(), report)
}

fn run_in_process_reference(p: ElectionParams) -> ([u8; 32], ElectionReport) {
    let election = ElectionBuilder::new(p.clone())
        .seed(SEED)
        .build()
        .expect("in-process election builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        voting
            .cast(ballot, option % p.num_options)
            .expect("in-process cast");
    }
    close_and_finish(election, "in-process")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--role") {
        replica_main(&args);
        return;
    }

    let p = params(&args);
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
                .args(size_args(&args))
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

    // The coordinator's own client connections: one control connection
    // to each replica and, from its one endpoint to the board, one to
    // each BB replica. The trustee nodes dial on a transport of their own.
    let own = (p.num_vc + 2 * p.num_bb) as u64;
    let election = ElectionBuilder::new(p.clone())
        .seed(SEED)
        .network(Network::Tcp(cluster))
        .close_timeout(Duration::from_secs(120))
        .build()
        .expect("coordinator builds");
    let voting = election.voting();
    for &(ballot, option) in CASTS {
        let record = voting
            .cast(ballot, option % p.num_options)
            .expect("vote over tcp");
        println!(
            "ballot {ballot}: receipt {:x} over {} attempt(s)",
            record.audit.receipt, record.attempts
        );
    }
    let (tcp_set, tcp_report) = close_and_finish(election, "tcp");

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
    // The coordinator's largest frames: what it dealt the BB replicas
    // (each chunk of their board in one frame) and what it read back.
    let largest = |name: &str| {
        let key = ddemos_obs::metric_key(name, "", "");
        tcp_report.metrics.gauges.get(&key).map_or(0, |g| g.get())
    };
    let cap = TcpOptions::default().write_cap as u64;
    let written = largest("net.conn.largest_frame_out");
    println!(
        "coordinator: largest frame read {} bytes, written {written} bytes (write cap {cap})",
        largest("net.conn.largest_frame_in"),
    );
    assert!(written <= cap, "a {written}-byte frame over the write cap");
    // Each voter's connection ends with its cast: what is still open is
    // the coordinator's own.
    let open = dials - conn("net.conn.closed");
    println!("coordinator: {open} client connections open at report time (at most {own})");
    assert!(
        open <= own,
        "{open} client connections leaked past their casts"
    );

    println!("re-running the same seed in-process for comparison...");
    let (sim_set, sim_report) = run_in_process_reference(p);

    assert_eq!(
        tcp_set, sim_set,
        "published vote set diverged between deployments"
    );
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
        "OK: multi-process and in-process runs agree (vote set, tally {:?}, audit verified)",
        tcp_report.tally()
    );
}
