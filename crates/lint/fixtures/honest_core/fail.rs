//! Seeded violations: an honest core that carries its own adversary.

use crate::behavior::{Adversary, VcBehavior};

pub struct Core {
    behavior: VcBehavior,
    adversary: Option<Adversary>,
}

impl Core {
    fn discloses(&self) -> bool {
        self.behavior != VcBehavior::WithholdShares
    }
}
