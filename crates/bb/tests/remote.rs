//! `RemoteBb::write_all` against a stand-in replica that takes its time
//! over each write: no replica holds more than one window of writes
//! unanswered, so a run of writes larger than a connection's write cap
//! reaches a slow replica whole instead of overflowing the client's
//! queue.

use ddemos_bb::RemoteBb;
use ddemos_crypto::schnorr::SigningKey;
use ddemos_crypto::votecode::VoteCode;
use ddemos_net::{DynEndpoint, NetworkProfile, SimNet};
use ddemos_protocol::messages::{BbWriteMsg, BbWriteOutcome, Msg};
use ddemos_protocol::posts::VoteSet;
use ddemos_protocol::{NodeId, SerialNo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A vote-set write of `entries` ballots.
fn vote_set_write(from_vc: u32, entries: u64) -> BbWriteMsg {
    let set = VoteSet {
        entries: (0..entries)
            .map(|s| (SerialNo(s), VoteCode([s as u8; 20])))
            .collect(),
    };
    BbWriteMsg::VoteSet {
        from_vc,
        set,
        sig: SigningKey::generate(&mut StdRng::seed_from_u64(1)).sign(b"unchecked"),
    }
}

/// What a stand-in replica saw: the writes it took, and how many of
/// them found another write already waiting behind them.
#[derive(Default)]
struct Seen {
    writes: usize,
    queued_behind: usize,
}

/// Serves `replica` until `stop`: each write is held for `pause` (its
/// "verification"), then acknowledged.
fn serve(replica: DynEndpoint, pause: Duration, stop: &AtomicBool) -> Seen {
    let mut seen = Seen::default();
    while !stop.load(Ordering::SeqCst) {
        let Ok(env) = replica.recv_timeout(Duration::from_millis(5)) else {
            continue;
        };
        if let Msg::BbWrite { request_id, .. } = env.msg {
            std::thread::sleep(pause);
            seen.writes += 1;
            seen.queued_behind += usize::from(replica.read_pending() > 0);
            replica.send(
                env.from,
                Msg::BbWriteReply {
                    request_id,
                    outcome: BbWriteOutcome::Accepted,
                },
            );
        }
    }
    seen
}

/// Runs `write_all` from `clients` (one per replica) to replicas served
/// by [`serve`], and returns what each replica saw.
fn write_all_to(
    replicas: Vec<DynEndpoint>,
    clients: Vec<DynEndpoint>,
    writes: &[BbWriteMsg],
    pause: Duration,
) -> Vec<Seen> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let remote: Vec<Arc<RemoteBb>> = clients
            .into_iter()
            .zip(&replicas)
            .map(|(client, replica)| Arc::new(RemoteBb::new(client, replica.id())))
            .collect();
        let stop = &stop;
        let servers: Vec<_> = replicas
            .into_iter()
            .map(|replica| s.spawn(move || serve(replica, pause, stop)))
            .collect();
        RemoteBb::write_all(&remote, writes);
        stop.store(true, Ordering::SeqCst);
        servers
            .into_iter()
            .map(|server| server.join().expect("replica thread"))
            .collect()
    })
}

/// Vote sets of 20,000 ballots (560 kB) each: no two fit in one window,
/// so each replica answers one before it is sent the next.
#[test]
fn write_all_keeps_one_window_in_flight_per_replica() {
    let net = SimNet::new(NetworkProfile::instant(), 1);
    let replicas: Vec<DynEndpoint> = (0..3)
        .map(|j| Box::new(net.register(NodeId::bb(j))) as DynEndpoint)
        .collect();
    let clients: Vec<DynEndpoint> = (0..3)
        .map(|j| Box::new(net.register(NodeId::client(1 + j))) as DynEndpoint)
        .collect();
    let writes: Vec<_> = (0..4).map(|i| vote_set_write(i, 20_000)).collect();
    let seen = write_all_to(replicas, clients, &writes, Duration::from_millis(20));
    for (j, seen) in seen.iter().enumerate() {
        assert_eq!(seen.writes, writes.len(), "replica {j} missed writes");
        assert_eq!(
            seen.queued_behind, 0,
            "replica {j} had a second write waiting before it answered the first"
        );
    }
    net.shutdown();
}

/// Small writes share a window: the first of four 8-ballot vote sets is
/// still being verified when the rest are already waiting.
#[test]
fn small_writes_share_a_window() {
    let net = SimNet::new(NetworkProfile::instant(), 1);
    let replica: DynEndpoint = Box::new(net.register(NodeId::bb(0)));
    let client: DynEndpoint = Box::new(net.register(NodeId::client(1)));
    let writes: Vec<_> = (0..4).map(|i| vote_set_write(i, 8)).collect();
    let seen = write_all_to(
        vec![replica],
        vec![client],
        &writes,
        Duration::from_millis(20),
    );
    assert_eq!(seen[0].writes, writes.len());
    assert!(seen[0].queued_behind > 0, "the writes went one at a time");
    net.shutdown();
}

/// Over TCP a client connection whose queue is over its write cap (1 MiB)
/// when another frame is sent is shed, and what it held is lost. Five
/// vote sets of about 3 MB each, to a replica that takes 300 ms over
/// each, all arrive.
#[cfg(target_os = "linux")]
#[test]
fn writes_over_the_write_cap_all_reach_a_slow_replica() {
    use ddemos_net::auth::{seeded_secret, AuthConfig};
    use ddemos_net::evloop::EvConfig;
    use ddemos_net::{AuthTransport, EvNodeEndpoint};

    let auth = AuthConfig::new(seeded_secret(7));
    let cfg = EvConfig::new(auth.clone(), [9u8; 32]);
    // Each write's ballots alone, 28 bytes apiece, are over the cap.
    assert!(110_000 * 28 > cfg.write_cap);
    let replica = EvNodeEndpoint::bind(
        NodeId::bb(0),
        "127.0.0.1:0".parse().expect("addr"),
        Vec::new(),
        cfg,
    )
    .expect("bind");
    let addr = replica.local_addr().expect("listener");
    let transport = AuthTransport::new(vec![(NodeId::bb(0), addr)], auth, [3u8; 32]);
    let client = transport.register(NodeId::client(1)).expect("client");
    let writes: Vec<_> = (0..5).map(|i| vote_set_write(i, 110_000)).collect();
    let seen = write_all_to(
        vec![Box::new(replica)],
        vec![Box::new(client)],
        &writes,
        Duration::from_millis(300),
    );
    assert_eq!(seen[0].writes, writes.len(), "writes were lost on the way");
    assert_eq!(transport.conn_counters().shed_slow, 0);
}
