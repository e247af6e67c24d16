//! Closed-loop vote-casting load harness over the event-loop driver.
//!
//! One *shard* is a single-threaded client [`EvLoop`] holding thousands
//! of concurrent authenticated voter connections against the cluster's
//! VC replicas. Every connection authenticates as a distinct
//! [`NodeId::client`] identity, then runs a closed loop: cast a vote,
//! wait for the matching [`Msg::VoteReply`], record the round-trip
//! latency, cast again. Re-casting the same `(serial, vote-code)` is
//! idempotent by protocol (§III-E: the replica returns the cached
//! receipt), so a sustained cast stream needs no ballot churn — each
//! iteration still crosses the authenticated channel, the framing
//! codec, and the VC core's vote path.
//!
//! Six-figure connection counts exceed one process's file-descriptor
//! budget on common configurations, so the 100k demonstration
//! (`examples/load_gen.rs`) runs several shard *processes* side by
//! side and merges their [`ShardReport`]s; latency percentiles come
//! from the merged [`LatencyHistogram`], which is exact-mergeable
//! across processes (per-bucket counts sum).
//!
//! Ballot space is partitioned per VC: a connection dials only its
//! designated replica (`global_conn % num_vc`) and casts on a ballot
//! from that replica's partition, so a vote never waits on an
//! endorsement round involving an unrelated replica's client traffic
//! ordering. All connections sharing a ballot cast the *same* vote
//! code (option 0), keeping every re-cast on the idempotent path.

use crate::election::{reserved_clients, SHUTDOWN_PATIENCE};
use crate::tcp::{coordinator_transport, process_nonce_seed, TcpCluster};
use ddemos_crypto::votecode::VoteCode;
use ddemos_ea::ElectionAuthority;
use ddemos_net::evloop::{ConnId, EvConfig, EvEvent, EvLoop, EvStats};
use ddemos_net::sys::raise_nofile_limit;
use ddemos_net::TransportEndpoint;
use ddemos_protocol::messages::{Envelope, Msg, VoteOutcome};
use ddemos_protocol::{ElectionParams, NodeId, PartId, SerialNo, COORDINATOR};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// One shard's slice of the load run.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Shard index (labels the report).
    pub shard: usize,
    /// Connections this shard opens.
    pub conns: usize,
    /// First connection index this shard uses; shard `s` of a
    /// multi-process run passes `s * conns` so identities are globally
    /// unique (the server routes replies by authenticated identity).
    /// Identities are numbered above the client ids an election reserves
    /// (see [`load_identity`]).
    pub client_base: u32,
    /// Ramp deadline: how long to wait for all connections to come up
    /// before measuring anyway.
    pub ramp: Duration,
    /// Warm-up window excluded from the recorded latencies.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
}

impl ShardConfig {
    /// A single-shard config with the given connection count.
    pub fn new(conns: usize) -> ShardConfig {
        ShardConfig {
            shard: 0,
            conns,
            client_base: 0,
            ramp: Duration::from_secs(120),
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(10),
        }
    }
}

/// Log-linear latency histogram: 16 sub-buckets per power-of-two octave
/// (≤ 6.25 % relative error), exact-mergeable across shards because
/// merging is per-bucket addition. Promoted into `ddemos-obs` (it is
/// the histogram behind every [`ddemos_obs::MetricsSnapshot`]); this
/// alias keeps the load harness's historical name working.
pub use ddemos_obs::Histogram as LatencyHistogram;

/// What one shard measured.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Connections requested.
    pub conns: usize,
    /// Connections that completed their authenticated handshake.
    pub conns_up: usize,
    /// Votes cast *and acknowledged* inside the measurement window.
    pub casts: u64,
    /// Receipt mismatches, rejects, and connection drops.
    pub errors: u64,
    /// Actual measurement-window duration.
    pub elapsed: Duration,
    /// Cast round-trip latencies (measurement window only).
    pub hist: LatencyHistogram,
    /// Client-loop counters.
    pub stats: EvStats,
}

impl ShardReport {
    /// Acknowledged casts per second over the measurement window.
    pub fn votes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.casts as f64 / secs
        }
    }

    /// One-line JSON for worker → parent aggregation (hand-rolled: the
    /// harness carries no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"shard\":{},\"conns\":{},\"conns_up\":{},\"casts\":{},\"errors\":{},\
             \"elapsed_ns\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"hist\":[",
            self.shard,
            self.conns,
            self.conns_up,
            self.casts,
            self.errors,
            self.elapsed.as_nanos(),
            self.hist.total_ns(),
            self.hist.min_ns(),
            self.hist.max_ns(),
        );
        for (k, (i, n)) in self.hist.sparse().iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{i},{n}]");
        }
        s.push_str("],\"stats\":{");
        for (k, (name, v)) in self.stats.counters().into_iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        s.push_str("}}");
        s
    }

    /// Parses [`ShardReport::to_json`] output. Returns `None` on any
    /// structural mismatch.
    pub fn from_json(line: &str) -> Option<ShardReport> {
        let field = |key: &str| -> Option<u64> {
            let pat = format!("\"{key}\":");
            let at = line.find(&pat)? + pat.len();
            let rest = &line[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let hist_at = line.find("\"hist\":[")? + "\"hist\":[".len();
        let hist_end = line[hist_at..].rfind(']')? + hist_at;
        let mut pairs = Vec::new();
        for pair in line[hist_at..hist_end].split("],[") {
            let pair = pair.trim_matches(|c| c == '[' || c == ']');
            if pair.is_empty() {
                continue;
            }
            let (i, n) = pair.split_once(',')?;
            pairs.push((i.parse().ok()?, n.parse().ok()?));
        }
        let hist = LatencyHistogram::from_sparse(
            &pairs,
            field("total_ns")?,
            field("min_ns")?,
            field("max_ns")?,
        );
        // Event-loop counters ride along since the metrics refactor;
        // lines from older shard binaries simply parse as zeros.
        let mut stats = EvStats::default();
        for (name, v) in stats.counters_mut() {
            *v = field(name).unwrap_or(0);
        }
        Some(ShardReport {
            shard: field("shard")? as usize,
            conns: field("conns")? as usize,
            conns_up: field("conns_up")? as usize,
            casts: field("casts")?,
            errors: field("errors")?,
            elapsed: Duration::from_nanos(field("elapsed_ns")?),
            hist,
            stats,
        })
    }
}

/// Per-connection closed-loop state.
struct ConnState {
    /// The voter identity this connection authenticated as.
    identity: NodeId,
    /// The designated VC replica.
    vc: NodeId,
    serial: SerialNo,
    vote_code: VoteCode,
    expected_receipt: u64,
    /// Outstanding request id (0 = nothing in flight yet).
    request_id: u64,
    sent_at: Instant,
    up: bool,
    casts: u64,
}

/// The client identity of load connection `global`, above the ids an
/// election reserves for [`COORDINATOR`] and its BB clients.
fn load_identity(params: &ElectionParams, global: usize) -> NodeId {
    NodeId::client(reserved_clients(params.num_bb) + global as u32)
}

/// Runs one load shard to completion: ramp, warm-up, measure.
///
/// The shard derives the printed ballots it casts itself
/// ([`ElectionAuthority::voter_ballot`], microseconds each) — EA setup is
/// a pure function of `(params, seed)`, so voters, replicas, and the load
/// generator all agree on serials, vote codes, and receipts without any
/// side channel.
///
/// # Errors
/// Socket/epoll errors from the client event loop.
pub fn run_load_shard(
    params: &ElectionParams,
    seed: u64,
    cluster: &TcpCluster,
    cfg: &ShardConfig,
) -> io::Result<ShardReport> {
    let _ = raise_nofile_limit();
    let ea = ElectionAuthority::new(params.clone(), seed);
    let num_vc = params.num_vc;
    let per_vc = (params.num_ballots as usize / num_vc).max(1);

    let auth = cluster.auth_config(seed);
    let loop_identity = load_identity(params, cfg.client_base as usize);
    let mut ev = EvLoop::new(EvConfig {
        auth,
        max_conns: cfg.conns + 16,
        write_cap: cluster.options.write_cap,
        nonce_seed: process_nonce_seed(loop_identity),
    })?;

    let mut states: Vec<ConnState> = Vec::with_capacity(cfg.conns);
    let mut by_conn: HashMap<ConnId, usize> = HashMap::with_capacity(cfg.conns);
    let start = Instant::now();
    let ramp_deadline = start + cfg.ramp;
    for c in 0..cfg.conns {
        let global = cfg.client_base as usize + c;
        let vc_index = (global % num_vc) as u32;
        // Stay inside this VC's partition; connections beyond the
        // partition size share ballots (and therefore vote codes).
        let ballot_index = (global / num_vc % per_vc) * num_vc + vc_index as usize;
        let ballot = ea.voter_ballot(SerialNo(ballot_index as u64 % params.num_ballots));
        let line = ballot
            .part(PartId::A)
            .line_for_option(0)
            .expect("option 0 exists");
        let identity = load_identity(params, global);
        let conn = connect_retry(
            &mut ev,
            cluster.vc_addrs[vc_index as usize],
            identity,
            NodeId::vc(vc_index),
            ramp_deadline,
        )?;
        by_conn.insert(conn, c);
        states.push(ConnState {
            identity,
            vc: NodeId::vc(vc_index),
            serial: ballot.serial,
            vote_code: line.vote_code,
            expected_receipt: line.receipt,
            request_id: 0,
            sent_at: start,
            up: false,
            casts: 0,
        });
    }

    let mut hist = LatencyHistogram::default();
    let mut errors = 0u64;
    let mut ups = 0usize;
    let mut events = Vec::new();

    // Ramp: wait until every connection authenticated (or the deadline
    // passes — measurement then covers whatever came up).
    while ups < cfg.conns && Instant::now() < ramp_deadline {
        pump(
            &mut ev,
            &mut events,
            &by_conn,
            &mut states,
            &mut ups,
            &mut errors,
            None,
        )?;
    }
    let conns_up = ups;

    // Warm-up: full closed-loop traffic, latencies discarded.
    let warm_end = Instant::now() + cfg.warmup;
    while Instant::now() < warm_end {
        pump(
            &mut ev,
            &mut events,
            &by_conn,
            &mut states,
            &mut ups,
            &mut errors,
            None,
        )?;
    }

    // Measure.
    for s in states.iter_mut() {
        s.casts = 0;
    }
    errors = 0;
    let measure_start = Instant::now();
    let measure_end = measure_start + cfg.measure;
    let mut last_sweep = measure_start;
    while Instant::now() < measure_end {
        pump(
            &mut ev,
            &mut events,
            &by_conn,
            &mut states,
            &mut ups,
            &mut errors,
            Some(&mut hist),
        )?;
        // Stall sweep: an overloaded replica can drop a reply with a
        // shed connection; re-issue rather than letting the closed loop
        // wedge. The resend keeps the request id — under six-figure
        // queueing the original reply is usually still coming, and a
        // fresh id would invalidate it the moment before it lands
        // (re-casting the same id is idempotent: the first matching
        // reply wins, later duplicates miss the advanced id). `sent_at`
        // also stays, so a loss shows up as tail latency, not a reset.
        let now = Instant::now();
        if now.duration_since(last_sweep) >= Duration::from_secs(5) {
            last_sweep = now;
            for (conn, &idx) in by_conn.iter() {
                let s = &mut states[idx];
                if s.up
                    && s.request_id != 0
                    && now.duration_since(s.sent_at) >= Duration::from_secs(30)
                {
                    let env = vote_envelope(s);
                    let _ = ev.send(*conn, &env);
                }
            }
        }
    }
    let elapsed = measure_start.elapsed();

    let casts = states.iter().map(|s| s.casts).sum();
    Ok(ShardReport {
        shard: cfg.shard,
        conns: cfg.conns,
        conns_up,
        casts,
        errors,
        elapsed,
        hist,
        stats: ev.stats(),
    })
}

/// Dials with retry until `deadline`: replica processes bind their
/// listeners concurrently with the shard's ramp, so early connects can
/// be refused.
fn connect_retry(
    ev: &mut EvLoop,
    addr: std::net::SocketAddr,
    identity: NodeId,
    peer: NodeId,
    deadline: Instant,
) -> io::Result<ConnId> {
    loop {
        match ev.connect(addr, identity, peer) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() < deadline => {
                let retriable = matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::ResourceBusy
                );
                if !retriable {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

fn next_request_id(s: &ConnState) -> u64 {
    // Unique per (identity, cast): the replica correlates replies by
    // (authenticated sender, request id).
    ((s.identity.index as u64) << 32) | (s.casts.wrapping_add(1) & 0xffff_ffff)
}

fn vote_envelope(s: &ConnState) -> Envelope {
    Envelope {
        from: s.identity,
        to: s.vc,
        msg: Msg::Vote {
            request_id: s.request_id,
            serial: s.serial,
            vote_code: s.vote_code,
        },
    }
}

/// One poll iteration: drain events, advance every touched connection's
/// closed loop. `hist` is `Some` only inside the measurement window.
#[allow(clippy::too_many_arguments)]
fn pump(
    ev: &mut EvLoop,
    events: &mut Vec<EvEvent>,
    by_conn: &HashMap<ConnId, usize>,
    states: &mut [ConnState],
    ups: &mut usize,
    errors: &mut u64,
    mut hist: Option<&mut LatencyHistogram>,
) -> io::Result<()> {
    ev.poll(Some(Duration::from_millis(100)), events)?;
    for event in events.drain(..) {
        match event {
            EvEvent::Up { conn, .. } => {
                let Some(&idx) = by_conn.get(&conn) else {
                    continue;
                };
                let s = &mut states[idx];
                s.up = true;
                *ups += 1;
                s.request_id = next_request_id(s);
                s.sent_at = Instant::now();
                let env = vote_envelope(s);
                let _ = ev.send(conn, &env);
            }
            EvEvent::Frame { conn, env } => {
                let Some(&idx) = by_conn.get(&conn) else {
                    continue;
                };
                let s = &mut states[idx];
                let Msg::VoteReply {
                    request_id,
                    serial,
                    outcome,
                } = env.msg
                else {
                    continue;
                };
                if request_id != s.request_id || serial != s.serial {
                    continue; // stale reply (e.g. superseded by a stall resend)
                }
                match outcome {
                    VoteOutcome::Receipt(r) if r == s.expected_receipt => {
                        s.casts += 1;
                        if let Some(h) = hist.as_deref_mut() {
                            h.record(s.sent_at.elapsed().as_nanos() as u64);
                        }
                    }
                    _ => *errors += 1,
                }
                s.request_id = next_request_id(s);
                s.sent_at = Instant::now();
                let env = vote_envelope(s);
                let _ = ev.send(conn, &env);
            }
            EvEvent::Down { conn, .. } => {
                if let Some(&idx) = by_conn.get(&conn) {
                    if states[idx].up {
                        states[idx].up = false;
                        *ups -= 1;
                    }
                    *errors += 1;
                }
            }
        }
    }
    Ok(())
}

/// Sends every VC replica the [`Msg::Shutdown`] control envelope from
/// [`COORDINATOR`], releasing replica processes or threads after a load
/// run (the load harness never closes the polls), and closes the
/// coordinator's connections in order, as dropping an
/// [`crate::Election`] does.
///
/// # Errors
/// The coordinator's endpoint could not be created (off Linux, or out
/// of file descriptors).
pub fn shutdown_cluster(seed: u64, cluster: &TcpCluster) -> io::Result<()> {
    let coordinator = coordinator_transport(cluster, seed).register(COORDINATOR)?;
    for i in 0..cluster.vc_addrs.len() as u32 {
        coordinator.send(NodeId::vc(i), Msg::Shutdown);
    }
    coordinator.close(SHUTDOWN_PATIENCE);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram's own quantile/merge/bucket tests moved with the
    // implementation to `crates/obs`; what stays here is the shard wire
    // format built on top of it.

    #[test]
    fn no_load_identity_is_the_coordinator_or_a_bb_client() {
        let params = ElectionParams::new("load-ids", 8, 2, 4, 3, 3, 2, 0, 1_000).unwrap();
        let reserved: Vec<NodeId> = (0..=params.num_bb as u32).map(NodeId::client).collect();
        assert_eq!(reserved[0], COORDINATOR);
        for global in 0..64 {
            let id = load_identity(&params, global);
            assert!(!reserved.contains(&id), "connection {global} is {id}");
        }
    }

    #[test]
    fn shard_report_json_round_trips() {
        let mut hist = LatencyHistogram::default();
        hist.record(1_000_000);
        hist.record(2_000_000);
        let stats = EvStats {
            dials: 100,
            authenticated: 99,
            frames_in: 1234,
            frames_out: 1240,
            bytes_in: 98_765,
            bytes_out: 87_654,
            shed_slow: 2,
            ..EvStats::default()
        };
        let report = ShardReport {
            shard: 3,
            conns: 100,
            conns_up: 99,
            casts: 1234,
            errors: 1,
            elapsed: Duration::from_secs(10),
            hist,
            stats,
        };
        let parsed = ShardReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.shard, 3);
        assert_eq!(parsed.conns, 100);
        assert_eq!(parsed.conns_up, 99);
        assert_eq!(parsed.casts, 1234);
        assert_eq!(parsed.errors, 1);
        assert_eq!(parsed.elapsed, Duration::from_secs(10));
        assert_eq!(parsed.hist.count(), 2);
        assert_eq!(parsed.hist.mean_ns(), report.hist.mean_ns());
        assert_eq!(parsed.hist.quantile_ns(0.5), report.hist.quantile_ns(0.5));
        assert_eq!(parsed.stats.dials, 100);
        assert_eq!(parsed.stats.authenticated, 99);
        assert_eq!(parsed.stats.frames_in, 1234);
        assert_eq!(parsed.stats.bytes_out, 87_654);
        assert_eq!(parsed.stats.shed_slow, 2);
        assert_eq!(parsed.stats.closed, 0);
    }

    #[test]
    fn shard_report_without_stats_parses_as_zeros() {
        // A line from a pre-metrics shard binary: no "stats" object.
        let line = "{\"shard\":0,\"conns\":4,\"conns_up\":4,\"casts\":10,\"errors\":0,\
                    \"elapsed_ns\":1000000000,\"total_ns\":5000,\"min_ns\":100,\
                    \"max_ns\":4000,\"hist\":[[5,10]]}";
        let parsed = ShardReport::from_json(line).expect("parses");
        assert_eq!(parsed.casts, 10);
        assert_eq!(parsed.stats.dials, 0);
        assert_eq!(parsed.stats.frames_in, 0);
    }
}
