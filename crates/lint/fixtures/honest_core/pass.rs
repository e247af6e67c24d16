//! An honest core: the adversary wraps it at the step boundary
//! (`behavior.rs`), so nothing here names a Byzantine type.

pub struct Core {
    shares_sent: u64,
}

impl Core {
    /// Read-only accessor the Byzantine layer may use.
    pub fn shares_sent(&self) -> u64 {
        self.shares_sent
    }

    fn label(&self) -> &'static str {
        "the adversary is not here: VcBehavior"
    }
}

#[cfg(test)]
mod tests {
    use crate::behavior::VcBehavior;

    #[test]
    fn wrapped() {
        let _ = VcBehavior::Honest;
    }
}
