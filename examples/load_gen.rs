//! Six-figure closed-loop vote-casting load against one box.
//!
//! The parent probes free ports, re-executes itself once per VC replica
//! (`--role vc`) and once per load shard (`--role load`), then merges
//! the shard reports into throughput + latency-percentile rows
//! compatible with `scripts/bench_check.sh`.
//!
//! Sharding exists because of per-process resource ceilings, not
//! architecture: a file-descriptor budget of ~20k per process caps a
//! single event loop well below the 100k-connection target, so the
//! demonstration runs `conns / 12500` shard processes side by side
//! (each one still a single-threaded epoll loop) and sums. Run:
//!
//! ```text
//! cargo run --release --example load_gen -- --conns 1000 --out target/load.jsonl
//! cargo run --release --example load_gen -- --conns 100000 --measure 10
//! ```

use ddemos_harness::load::{
    run_load_shard, shutdown_cluster, LatencyHistogram, ShardConfig, ShardReport,
};
use ddemos_harness::tcp::{run_vc_replica, TcpCluster, TcpOptions};
use ddemos_harness::ElectionParams;
use std::io::Write as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 100_000;
/// Per-shard connection ceiling: comfortably inside a 20k-fd budget
/// (one fd per connection plus epoll/listener overhead).
const SHARD_CAP: usize = 12_500;

/// The load election: VC tier sized for the run, ballot space sized so
/// re-cast sharing stays modest, a BB tier that never sees traffic
/// (the harness drives only the voting phase), and voting hours long
/// enough that no cast lands outside them.
fn params_for(total_conns: usize) -> ElectionParams {
    let num_vc = if total_conns >= 50_000 { 8 } else { 4 };
    let ballots = if total_conns > 10_000 { 1024 } else { 256 };
    ElectionParams::new("load-gen", ballots, 3, num_vc, 4, 3, 2, 0, 3_600_000)
        .expect("valid load params")
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
    let addrs = |csv: &str| -> Vec<SocketAddr> {
        csv.split(',')
            .map(|p| SocketAddr::from(([127, 0, 0, 1], p.parse().expect("port"))))
            .collect()
    };
    TcpCluster {
        vc_addrs: addrs(&flag(args, "--vc-ports").expect("--vc-ports")),
        bb_addrs: addrs(&flag(args, "--bb-ports").expect("--bb-ports")),
        options: TcpOptions::default(),
    }
}

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

fn shard_config(args: &[String], total_conns: usize) -> ShardConfig {
    let mut cfg = ShardConfig::new(parsed(args, "--shard-conns", 0usize));
    cfg.shard = parsed(args, "--shard", 0usize);
    cfg.client_base = parsed(args, "--client-base", 0u32);
    cfg.ramp = Duration::from_secs(parsed(args, "--ramp", ramp_secs(total_conns)));
    cfg.warmup = Duration::from_secs(parsed(args, "--warmup", 2));
    cfg.measure = Duration::from_secs(parsed(args, "--measure", 10));
    cfg
}

fn ramp_secs(total_conns: usize) -> u64 {
    120 + (total_conns as u64 / 1000)
}

fn worker_main(args: &[String]) {
    let role = flag(args, "--role").expect("--role");
    let total_conns: usize = parsed(args, "--total-conns", 0);
    let params = params_for(total_conns);
    let cluster = cluster_from_args(args);
    match role.as_str() {
        "vc" => {
            let index: u32 = parsed(args, "--index", 0);
            run_vc_replica(&params, SEED, index, &cluster).expect("vc replica");
        }
        "load" => {
            let cfg = shard_config(args, total_conns);
            let report = run_load_shard(&params, SEED, &cluster, &cfg).expect("load shard");
            // The single stdout line is the parent's aggregation input.
            println!("{}", report.to_json());
        }
        other => panic!("unknown role {other}"),
    }
}

struct Killer(Vec<(String, Child)>);

impl Drop for Killer {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--role") {
        worker_main(&args);
        return;
    }

    let total_conns: usize = parsed(&args, "--conns", 100_000);
    let shards = total_conns.div_ceil(SHARD_CAP);
    let params = params_for(total_conns);
    let cluster = TcpCluster::localhost_free(params.num_vc, params.num_bb).expect("free ports");
    let exe = std::env::current_exe().expect("current exe");
    let common: Vec<String> = {
        let mut v = cluster_to_args(&cluster);
        v.push("--total-conns".into());
        v.push(total_conns.to_string());
        v
    };

    let mut replicas = Killer(Vec::new());
    for index in 0..params.num_vc {
        let child = Command::new(&exe)
            .args(["--role", "vc", "--index", &index.to_string()])
            .args(&common)
            .stdin(Stdio::null())
            .spawn()
            .expect("spawn vc replica");
        replicas.0.push((format!("vc-{index}"), child));
    }
    println!(
        "load_gen: {} conns across {} shard(s) against {} VC replicas",
        total_conns, shards, params.num_vc
    );

    let mut workers = Vec::new();
    let mut base = 0usize;
    for shard in 0..shards {
        let conns = (total_conns - base).min(SHARD_CAP);
        let mut cmd = Command::new(&exe);
        cmd.args(["--role", "load"])
            .args(["--shard", &shard.to_string()])
            .args(["--shard-conns", &conns.to_string()])
            .args(["--client-base", &base.to_string()])
            .args(&common)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for pass in ["--ramp", "--warmup", "--measure"] {
            if let Some(v) = flag(&args, pass) {
                cmd.args([pass, &v]);
            }
        }
        workers.push((shard, conns, cmd.spawn().expect("spawn load shard")));
        base += conns;
    }

    let mut reports: Vec<ShardReport> = Vec::new();
    for (shard, _, child) in workers {
        let out = child.wait_with_output().expect("load shard exits");
        assert!(
            out.status.success(),
            "shard {shard} exited with {}",
            out.status
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("shard {shard} produced no report: {text}"));
        reports.push(ShardReport::from_json(line).expect("parse shard report"));
    }

    shutdown_cluster(SEED, &cluster).expect("cluster shutdown");
    for (name, child) in &mut replicas.0 {
        let status = child.wait().expect("replica wait");
        assert!(status.success(), "{name} exited with {status}");
    }
    replicas.0.clear();

    let conns_up: usize = reports.iter().map(|r| r.conns_up).sum();
    let casts: u64 = reports.iter().map(|r| r.casts).sum();
    let errors: u64 = reports.iter().map(|r| r.errors).sum();
    let mut hist = LatencyHistogram::default();
    for r in &reports {
        hist.merge(&r.hist);
    }
    let measure_ns = reports
        .iter()
        .map(|r| r.elapsed.as_nanos() as u64)
        .max()
        .unwrap_or(0);
    assert_eq!(
        conns_up, total_conns,
        "not every connection authenticated ({conns_up}/{total_conns})"
    );
    assert!(casts > 0, "no acknowledged casts");
    let votes_per_sec = casts as f64 / (measure_ns as f64 / 1e9);
    let ns_per_vote = measure_ns.max(1) / casts.max(1);
    let (p50, p95, p99) = (
        hist.quantile_ns(0.50),
        hist.quantile_ns(0.95),
        hist.quantile_ns(0.99),
    );
    println!(
        "load_gen: {conns_up} concurrent authenticated connections, {casts} casts \
         ({votes_per_sec:.0} votes/s), errors {errors}"
    );
    println!(
        "load_gen: cast latency p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms over {} samples",
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
        hist.count()
    );
    // Shard reports carry their client event-loop counters; the merged
    // view catches transport-level pathologies (sheds, replays, frame
    // errors) that a clean latency histogram would otherwise hide.
    let sum = |f: fn(&ddemos_net::evloop::EvStats) -> u64| -> u64 {
        reports.iter().map(|r| f(&r.stats)).sum()
    };
    println!(
        "load_gen: evloop {} dials, {}/{} frames in/out, {} shed, {} replays, {} malformed",
        sum(|s| s.dials),
        sum(|s| s.frames_in),
        sum(|s| s.frames_out),
        sum(|s| s.shed_slow),
        sum(|s| s.replays),
        sum(|s| s.malformed),
    );

    // bench_check-compatible rows: one throughput row (ns per
    // acknowledged vote) and one per latency percentile, keyed by the
    // connection count so smoke (1k) and full (100k) baselines coexist.
    let rows = [
        ("ns_per_vote", ns_per_vote, casts),
        ("cast_p50", p50, hist.count()),
        ("cast_p95", p95, hist.count()),
        ("cast_p99", p99, hist.count()),
    ];
    let mut out = String::new();
    for (name, value, samples) in rows {
        out.push_str(&format!(
            "{{\"id\":\"load/{name}/conns={total_conns}\",\"median_ns\":{value},\
             \"mean_ns\":{},\"min_ns\":{},\"samples\":{samples}}}\n",
            hist.mean_ns(),
            hist.min_ns(),
        ));
    }
    print!("{out}");
    if let Some(path) = flag(&args, "--out") {
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .expect("write --out");
        println!("load_gen: wrote {path}");
    }
}
