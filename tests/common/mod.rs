//! Helpers shared by the root package's integration tests.

use ddemos_harness::Election;
use ddemos_vc::FinalizedVoteSet;
use std::time::{Duration, Instant};

/// Reads [`Election::finalized_sets`] until at least `n` in-process
/// collectors have finalized, sleeping on the election's clock between
/// reads, or until 30 s of wall time pass; returns the last read.
/// `close()` returns once the board has published f_v + 1 copies, and
/// the other collectors may still be finalizing.
pub fn finalized_at_least(election: &Election, n: usize) -> Vec<FinalizedVoteSet> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let sets = election.finalized_sets();
        if sets.len() >= n || Instant::now() >= deadline {
            return sets;
        }
        election.sleep(Duration::from_millis(20));
    }
}
