//! The four workloads and the metric names the benchmark declares.
//!
//! Each workload differs from `lan_fresh` in one dimension, so a
//! difference between two of them attributes to one layer (see
//! `ddbench/README.md` for the reasoning behind each).

use ddemos_protocol::{ElectionParams, PartId};

/// Warm-up serials reserved at the end of every electorate: cast until
/// one succeeds (the readiness barrier), excluded from every cast metric.
pub const WARMUP_BALLOTS: usize = 8;

/// Fewest measured ballots a run accepts (the smoke test's size).
pub const MIN_BALLOTS: usize = 8;

/// Which transport carries the election.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// `Network::Sim(NetworkProfile::lan())`: envelopes handed over in
    /// memory, 200–300 µs injected per hop.
    SimLan,
    /// `Network::Tcp` with the event-loop driver, replicas on loopback
    /// threads of this process (loopback, no wire).
    TcpLoopback,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    /// `Durability::File` + adaptive commit on the cast path.
    pub wal: bool,
    /// Options per ballot (`m`).
    pub options: usize,
    /// Complete elections per end-to-end run; every figure is the best
    /// over them. Many small elections rather than a few large ones: the
    /// shared machine slows down for seconds to minutes at a time, and
    /// each election is one more chance to measure it undisturbed. Six
    /// where the driver's time cap allows; four on `wide_tally`, whose
    /// tally costs three times the others'.
    pub elections: usize,
    /// How often every ballot is cast again after the fresh phase. A
    /// re-cast is answered from the stored receipt in well under a
    /// millisecond, so the rounds are chosen to make the re-cast phase a
    /// window of about a second per election.
    pub recast_rounds: usize,
    /// Measured ballots per election per `--seconds` second in the
    /// end-to-end run. The work is a fixed ballot count, not a time
    /// window; the rates are chosen so that the four workloads' runs
    /// average about `--seconds` on the 2-core reference container
    /// (`wide_tally` takes longest: its tally is the point).
    pub ballots_per_second: f64,
    /// Measured ballots per `--seconds` second in the traced run, which
    /// is single-threaded and drives the election twice (spans on, off).
    pub traced_ballots_per_second: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lan_fresh",
        net: Net::SimLan,
        wal: false,
        options: 2,
        elections: 6,
        recast_rounds: 12,
        ballots_per_second: 6.0,
        traced_ballots_per_second: 15.0,
    },
    Workload {
        name: "wal_fresh",
        net: Net::SimLan,
        wal: true,
        options: 2,
        elections: 6,
        recast_rounds: 12,
        ballots_per_second: 5.5,
        traced_ballots_per_second: 12.0,
    },
    Workload {
        name: "tcp_fresh",
        net: Net::TcpLoopback,
        wal: false,
        options: 2,
        elections: 6,
        recast_rounds: 30,
        ballots_per_second: 5.0,
        traced_ballots_per_second: 13.0,
    },
    Workload {
        name: "wide_tally",
        net: Net::SimLan,
        wal: false,
        options: 5,
        elections: 4,
        recast_rounds: 12,
        ballots_per_second: 4.0,
        traced_ballots_per_second: 5.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Measured ballots of a run of `seconds` (traced or end-to-end).
    pub fn ballots(&self, seconds: u64, traced: bool) -> usize {
        let rate = if traced {
            self.traced_ballots_per_second
        } else {
            self.ballots_per_second
        };
        ((rate * seconds as f64).round() as usize).max(MIN_BALLOTS)
    }

    /// Election parameters for `measured` ballots plus the warm-up
    /// serials: N_v=4, N_b=3, 5 trustees (3-of-5). The voting window is
    /// an hour, so the polls close only when the benchmark closes them.
    pub fn params(&self, measured: usize) -> ElectionParams {
        ElectionParams::new(
            self.name,
            (measured + WARMUP_BALLOTS) as u64,
            self.options,
            4,
            3,
            5,
            3,
            0,
            3_600_000,
        )
        .expect("workload parameters are valid")
    }
}

/// SplitMix64: the benchmark's only randomness, a pure function of
/// `--seed` and the ballot index.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The option and ballot part voter `ballot` uses, fresh and re-cast.
pub fn choice(seed: u64, ballot: usize, options: usize) -> (usize, PartId) {
    let z = mix(seed ^ mix(ballot as u64));
    let part = if z >> 63 == 1 { PartId::B } else { PartId::A };
    ((z % options as u64) as usize, part)
}

/// The tally the election must publish: the seed-derived choices of the
/// measured ballots plus those of the warm-up ballots that were cast.
pub fn expected_tally(seed: u64, measured: usize, warm_cast: &[usize], options: usize) -> Vec<u64> {
    let mut tally = vec![0u64; options];
    for ballot in (0..measured).chain(warm_cast.iter().copied()) {
        tally[choice(seed, ballot, options).0] += 1;
    }
    tally
}

/// A declared metric: name and unit, as in `BENCHMARK.json`.
pub type MetricDecl = (&'static str, &'static str);

/// What a user of the system sees (`--trace 0`).
pub const END_TO_END: &[MetricDecl] = &[
    ("setup_s", "s"),
    ("cast_p50_ms", "ms"),
    ("cast_per_s", "1/s"),
    ("recast_p50_ms", "ms"),
    ("recast_per_s", "1/s"),
    ("close_to_result_s", "s"),
    ("audit_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer ledger (`--trace 1`), grouped by module.
pub const PER_LAYER: &[MetricDecl] = &[
    ("ea.setup_ms", "ms"),
    ("ea.setup_us_per_ballot", "us"),
    ("protocol.encode_us_per_cast", "us"),
    ("protocol.decode_us_per_cast", "us"),
    ("protocol.frames_per_cast", "count"),
    ("protocol.bytes_per_cast", "bytes"),
    ("protocol.announce_encode_ms", "ms"),
    ("net.handshake_us", "us"),
    ("net.seal_us_per_cast", "us"),
    ("net.open_us_per_cast", "us"),
    ("net.conns_per_cast", "count"),
    ("net.wire_bytes_per_cast", "bytes"),
    ("net.sim_msgs_per_cast", "count"),
    ("vc.step_us.Vote", "us"),
    ("vc.step_us.Endorse", "us"),
    ("vc.step_us.Endorsement", "us"),
    ("vc.step_us.VoteP", "us"),
    ("vc.preverify_us_per_cast", "us"),
    ("vc.steps_per_cast", "count"),
    ("vc.cpu_ms_per_cast", "ms"),
    ("vc.recast_step_us", "us"),
    ("vc.consensus_step_ms", "ms"),
    ("vc.consensus_msgs", "count"),
    ("crypto.msm_ms", "ms"),
    ("crypto.verify_batch_ms", "ms"),
    ("crypto.verify_batch_us_per_cast", "us"),
    ("crypto.verify_scalar_count", "count"),
    ("storage.append_us_per_cast", "us"),
    ("storage.commit_us", "us"),
    ("storage.commits_per_cast", "count"),
    ("storage.records_per_commit", "count"),
    ("storage.bytes_per_cast", "bytes"),
    ("storage.recover_ms", "ms"),
    ("bb.vote_set_ms", "ms"),
    ("bb.msk_share_ms", "ms"),
    ("bb.trustee_post_ms", "ms"),
    ("bb.read_majority_ms", "ms"),
    ("bb.snapshot_encode_ms", "ms"),
    ("bb.snapshot_decode_ms", "ms"),
    ("bb.snapshot_bytes", "bytes"),
    ("trustee.post_ms", "ms"),
    ("trustee.post_us_per_ballot", "us"),
    ("trustee.post_bytes", "bytes"),
    ("core.voter_us_per_cast", "us"),
    ("core.audit_public_ms", "ms"),
    ("core.audit_delegated_ms", "ms"),
    ("core.audit_us_per_ballot", "us"),
    ("election.close_ms", "ms"),
    ("election.tally_ms", "ms"),
    ("election.cast_p50_ms", "ms"),
    ("election.cast_p95_ms", "ms"),
    ("trace.cpu_ms_per_cast", "ms"),
    ("trace.implied_cores", "count"),
    ("trace.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_are_a_pure_function_of_seed_and_ballot() {
        assert_eq!(choice(5, 17, 5), choice(5, 17, 5));
        let differing = (0..64)
            .filter(|&b| choice(5, b, 5) != choice(6, b, 5))
            .count();
        assert!(differing > 32, "seeds barely change the choices");
        let tally = expected_tally(9, 100, &[100, 103], 3);
        assert_eq!(tally.iter().sum::<u64>(), 102);
        assert!(tally.iter().all(|&c| c > 0));
    }

    #[test]
    fn sizing_scales_with_seconds() {
        let lan = Workload::by_name("lan_fresh").unwrap();
        assert_eq!(lan.ballots(20, false), 120);
        assert_eq!(lan.ballots(0, false), MIN_BALLOTS);
        assert!(Workload::by_name("nope").is_none());
        assert_eq!(lan.params(100).num_ballots, (100 + WARMUP_BALLOTS) as u64);
    }
}
