//! Identifiers for elections, nodes, and ballots.

use std::fmt;

/// Globally unique election identifier (binds every signature and
//  commitment to one election).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElectionId(pub [u8; 16]);

impl ElectionId {
    /// Derives an election id from a human-readable label.
    pub fn from_label(label: &str) -> ElectionId {
        let digest = ddemos_crypto::sha256::sha256(label.as_bytes());
        let mut id = [0u8; 16];
        id.copy_from_slice(&digest[..16]);
        ElectionId(id)
    }
}

impl fmt::Debug for ElectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ElectionId(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}
impl fmt::Display for ElectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The role a node plays in the system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum NodeKind {
    /// Election Authority (setup only; destroyed afterwards).
    Ea,
    /// Vote Collector node.
    Vc,
    /// Bulletin Board node.
    Bb,
    /// Trustee.
    Trustee,
    /// A voter device / workload client (public channel).
    Client,
}

/// A network-addressable node identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Node role.
    pub kind: NodeKind,
    /// Index within the role (0-based).
    pub index: u32,
}

impl NodeId {
    /// Vote collector `i` (0-based).
    pub fn vc(index: u32) -> NodeId {
        NodeId {
            kind: NodeKind::Vc,
            index,
        }
    }
    /// Bulletin board node `i` (0-based).
    pub fn bb(index: u32) -> NodeId {
        NodeId {
            kind: NodeKind::Bb,
            index,
        }
    }
    /// Trustee `i` (0-based).
    pub fn trustee(index: u32) -> NodeId {
        NodeId {
            kind: NodeKind::Trustee,
            index,
        }
    }
    /// Client (voter device) `i`.
    pub fn client(index: u32) -> NodeId {
        NodeId {
            kind: NodeKind::Client,
            index,
        }
    }
    /// The Election Authority.
    pub fn ea() -> NodeId {
        NodeId {
            kind: NodeKind::Ea,
            index: 0,
        }
    }

    /// A stable 64-bit key for this node, used by the virtual clock for
    /// wait notification and deterministic same-deadline tie-breaks
    /// (ordered by role, then index).
    pub fn clock_key(self) -> u64 {
        ((self.kind as u64) << 32) | u64::from(self.index)
    }
}

/// The election coordinator (`C0`): the operator identity that closes the
/// polls and stops the replicas — replicas take `ClosePolls`/`Shutdown`
/// from it alone. Nothing is sent back to it: it learns the vote set, like
/// everyone else, from the board.
pub const COORDINATOR: NodeId = NodeId {
    kind: NodeKind::Client,
    index: 0,
};

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::Ea => write!(f, "EA"),
            NodeKind::Vc => write!(f, "VC{}", self.index),
            NodeKind::Bb => write!(f, "BB{}", self.index),
            NodeKind::Trustee => write!(f, "T{}", self.index),
            NodeKind::Client => write!(f, "C{}", self.index),
        }
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A ballot serial number (the paper assigns unique 64-bit serials).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SerialNo(pub u64);

impl fmt::Debug for SerialNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}
impl fmt::Display for SerialNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One of the two functionally equivalent ballot parts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PartId {
    /// Part A.
    A,
    /// Part B.
    B,
}

impl PartId {
    /// Both parts, in order.
    pub const BOTH: [PartId; 2] = [PartId::A, PartId::B];

    /// The other part.
    pub fn other(self) -> PartId {
        match self {
            PartId::A => PartId::B,
            PartId::B => PartId::A,
        }
    }

    /// 0 for A, 1 for B (the voter's "coin" for the ZK challenge).
    pub fn coin(self) -> bool {
        matches!(self, PartId::B)
    }

    /// Index form (A = 0, B = 1).
    pub fn index(self) -> usize {
        match self {
            PartId::A => 0,
            PartId::B => 1,
        }
    }

    /// Inverse of [`PartId::index`].
    pub fn from_index(i: usize) -> PartId {
        if i == 0 {
            PartId::A
        } else {
            PartId::B
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_id_deterministic() {
        assert_eq!(ElectionId::from_label("e1"), ElectionId::from_label("e1"));
        assert_ne!(ElectionId::from_label("e1"), ElectionId::from_label("e2"));
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::vc(3).to_string(), "VC3");
        assert_eq!(NodeId::bb(0).to_string(), "BB0");
        assert_eq!(NodeId::trustee(2).to_string(), "T2");
        assert_eq!(NodeId::client(9).to_string(), "C9");
        assert_eq!(NodeId::ea().to_string(), "EA");
    }

    #[test]
    fn part_roundtrip() {
        assert_eq!(PartId::A.other(), PartId::B);
        assert_eq!(PartId::from_index(PartId::B.index()), PartId::B);
        assert!(!PartId::A.coin());
        assert!(PartId::B.coin());
    }
}
