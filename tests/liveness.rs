//! Liveness (Theorem 1): `[Twait]`-patient voters obtain receipts within
//! the bound, under clock drift and WAN-scale message delay — clusters
//! built through the `ElectionBuilder` facade.

use ddemos::liveness::{table1, LivenessParams};
use ddemos_harness::{ElectionBuilder, ElectionParams, NetworkProfile, NodeId, VcBehavior};
use std::time::Duration;

#[test]
fn receipts_arrive_within_the_theorem_bound() {
    // Model constants chosen to dominate the sandbox's real costs:
    // Tcomp = 50 ms, δ = 30 ms (covers the WAN profile's 25 ms + jitter),
    // Δ = 20 ms (we inject ±15 ms drift).
    let liveness = LivenessParams {
        t_comp: Duration::from_millis(50),
        delta_msg: Duration::from_millis(30),
        drift: Duration::from_millis(20),
    };
    let nv = 4;
    let t_wait = liveness.t_wait(nv);

    let params = ElectionParams::new("live", 6, 2, nv, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(10)
        .vc_only()
        .network(NetworkProfile::wan())
        .clock_drift(NodeId::vc(0), 15)
        .clock_drift(NodeId::vc(1), -15)
        .clock_drift(NodeId::vc(2), 10)
        .clock_drift(NodeId::vc(3), -10)
        .build()
        .expect("election builds");

    let voting = election.voting().patience(t_wait);
    for i in 0..4usize {
        let record = voting.cast(i, i % 2).expect("patient voter gets a receipt");
        assert!(
            record.latency <= t_wait,
            "receipt in {:?} exceeded Twait {:?}",
            record.latency,
            t_wait
        );
        // With all-honest nodes, the first attempt must succeed.
        assert_eq!(record.attempts, 1);
    }
    election.shutdown();
}

#[test]
fn table1_bounds_dominate_measured_steps() {
    // The end-to-end receipt time must sit below Table I's final row when
    // the model constants upper-bound reality.
    let liveness = LivenessParams {
        t_comp: Duration::from_millis(50),
        delta_msg: Duration::from_millis(30),
        drift: Duration::from_millis(5),
    };
    let rows = table1(&liveness, 4);
    let bound = rows.last().unwrap().global;

    let params = ElectionParams::new("live2", 3, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(11)
        .vc_only()
        .network(NetworkProfile::wan())
        .build()
        .expect("election builds");
    let record = election
        .voting()
        .patience(Duration::from_secs(10))
        .cast(0, 0)
        .expect("receipt");
    assert!(
        record.latency <= bound,
        "measured {:?} vs Table I bound {:?}",
        record.latency,
        bound
    );
    election.shutdown();
}

#[test]
fn voter_blacklists_crashed_node_and_succeeds_elsewhere() {
    // Definition 1 in action: a voter who hits the crashed node waits out
    // her patience, blacklists it, and succeeds at the next node.
    let params = ElectionParams::new("live3", 3, 2, 4, 3, 5, 3, 0, 600_000).unwrap();
    let election = ElectionBuilder::new(params)
        .seed(12)
        .vc_only()
        .adversary(NodeId::vc(0), VcBehavior::Crashed)
        .build()
        .expect("election builds");

    // Try voters until one's random first pick is the crashed node 0.
    let voting = election.voting().patience(Duration::from_millis(400));
    let mut saw_retry = false;
    for i in 0..3usize {
        let record = voting.cast(i, 0).expect("eventual success");
        if record.attempts > 1 {
            saw_retry = true;
        }
    }
    let _ = saw_retry; // probabilistic; the assertion is eventual success
    election.shutdown();
}
