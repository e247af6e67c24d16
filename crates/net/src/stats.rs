//! Network traffic counters (message counts by protocol class).

use ddemos_protocol::messages::Msg;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters the simulated network maintains.
#[derive(Debug, Default)]
pub struct NetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Total scheduled one-way delay of delivered messages, in simulation
    /// nanoseconds (virtual ns under a virtual clock) — timing accounting
    /// that stays meaningful and deterministic in both time modes.
    delay_ns_total: AtomicU64,
    vote_msgs: AtomicU64,
    endorse_msgs: AtomicU64,
    share_msgs: AtomicU64,
    consensus_msgs: AtomicU64,
}

impl NetStats {
    pub(crate) fn record_sent(&self, msg: &Msg) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        let class = match msg {
            Msg::Vote { .. } | Msg::VoteReply { .. } => &self.vote_msgs,
            Msg::Endorse { .. } | Msg::Endorsement { .. } => &self.endorse_msgs,
            Msg::VoteP { .. } => &self.share_msgs,
            Msg::Consensus(_) | Msg::Rbc(_) => &self.consensus_msgs,
            _ => return,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_delivered(&self, delay_ns: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.delay_ns_total.fetch_add(delay_ns, Ordering::Relaxed);
    }

    pub(crate) fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Total messages submitted to the network.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Messages actually placed in an inbox.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Messages dropped (loss, crash, partition, unknown destination).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total scheduled one-way delay across all delivered messages
    /// (simulation nanoseconds).
    pub fn delay_ns_total(&self) -> u64 {
        self.delay_ns_total.load(Ordering::Relaxed)
    }

    /// VOTE / reply traffic.
    pub fn vote_msgs(&self) -> u64 {
        self.vote_msgs.load(Ordering::Relaxed)
    }

    /// ENDORSE / ENDORSEMENT traffic.
    pub fn endorse_msgs(&self) -> u64 {
        self.endorse_msgs.load(Ordering::Relaxed)
    }

    /// VOTE_P (receipt share) traffic.
    pub fn share_msgs(&self) -> u64 {
        self.share_msgs.load(Ordering::Relaxed)
    }

    /// Consensus (RBC) traffic.
    pub fn consensus_msgs(&self) -> u64 {
        self.consensus_msgs.load(Ordering::Relaxed)
    }
}
