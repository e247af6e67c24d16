// The BB write path reordered: the outcome of an appended write is
// handed back before the commit that makes it durable, and a second
// copy drops the commit, so its tail value is never committed.
impl BbNode {
    pub fn handle_write(&self, write: BbWriteMsg) -> BbWriteOutcome {
        let (outcome, record) = self.core.write().step(write);
        if let (Some(record), Some(journal)) = (record, self.journal.lock().as_mut()) {
            if journal.append(&record).is_ok() {
                return outcome;
            }
            journal.commit();
        }
        outcome
    }
}

impl Uncommitted {
    pub fn handle_write(&self, write: BbWriteMsg) -> BbWriteOutcome {
        let (outcome, record) = self.core.write().step(write);
        self.journal.append(&record);
        outcome
    }
}
