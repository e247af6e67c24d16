//! Voting while `fv` vote collectors misbehave.
//!
//! ```text
//! cargo run --release --example byzantine_collectors
//! ```
//!
//! Runs a 7-node VC cluster where 2 nodes (the tolerated maximum,
//! `fv = ⌊(7−1)/3⌋ = 2`) are Byzantine — one crashed from the start, one
//! disclosing corrupted receipt shares. Voters still obtain valid receipts
//! (possibly after blacklisting a dead node, per the `[d]`-patience rule of
//! Definition 1), the final tally is exact, the audit passes, and both
//! adversaries acted (`vc.adversary_acts{preset}` above zero).

use ddemos_harness::{ElectionBuilder, ElectionParams, LivenessParams, NodeId, VcBehavior};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ElectionParams::new("byz-vc", 12, 2, 7, 3, 5, 3, 0, 120_000)?;
    // Two Byzantine collectors: one silent, one serving corrupt shares.
    let election = ElectionBuilder::new(params)
        .vc_nodes(7)
        .adversary(NodeId::vc(0), VcBehavior::Crashed)
        .adversary(NodeId::vc(1), VcBehavior::CorruptShares)
        .seed(99)
        .build()?;

    // The theorem-backed patience bound.
    let liveness = LivenessParams {
        t_comp: Duration::from_millis(20),
        delta_msg: Duration::from_millis(50),
        drift: Duration::from_millis(5),
    };
    let patience = liveness.t_wait(7);
    println!("[Twait]-patience for Nv=7: {patience:?}");

    let voting = election.voting().patience(patience);
    let mut total_attempts = 0;
    for i in 0..10usize {
        let record = voting.cast(i, i % 2)?;
        total_attempts += record.attempts;
        println!(
            "voter {i}: receipt {:#x} after {} attempt(s)",
            record.audit.receipt, record.attempts
        );
    }
    println!("total attempts for 10 voters: {total_attempts} (crashed nodes get blacklisted)");

    let report = election.finish()?;
    let result = report.result.as_ref().expect("tally published");
    println!("tally with 2/7 Byzantine collectors: {:?}", result.tally);
    assert_eq!(result.ballots_counted, 10);
    assert_eq!(result.tally, vec![5, 5]);
    assert!(
        report.verified(),
        "the audit must pass despite Byzantine collectors"
    );
    // Both adversaries acted: the crashed node dropped what reached it,
    // the corrupting one rewrote the shares it disclosed.
    for preset in ["Crashed", "CorruptShares"] {
        let acts = report
            .metrics
            .counter("vc.adversary_acts", None, Some(preset));
        println!("{preset} adversary acts: {acts}");
        assert!(acts > 0, "the {preset} collector never acted");
    }
    election.shutdown();
    Ok(())
}
