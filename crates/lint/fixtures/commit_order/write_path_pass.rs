// The BB write path as it stands: appended, committed, then handed back.
impl BbNode {
    pub fn handle_write(&self, write: BbWriteMsg) -> BbWriteOutcome {
        if self.degraded.load(Ordering::Acquire) {
            return BbWriteOutcome::ReadOnly;
        }
        let (outcome, record) = self.core.write().step(write);
        if let (Some(record), Some(journal)) = (record, self.journal.lock().as_mut()) {
            let append = journal.append(&record).and_then(|()| journal.commit());
            if append.is_err() {
                return BbWriteOutcome::ReadOnly;
            }
        }
        outcome
    }
}
