// Seeded violation: a file in the rule's scope with no journal push, no
// commit and no visible output outside its tests — the rule would pass
// here while inspecting nothing.
impl Core {
    fn step_tally(&mut self, ballot: Ballot) {
        self.counts.add(ballot);
    }
}

#[cfg(test)]
mod tests {
    fn only_tests_journal(core: &mut Core) {
        core.jlog(Record::Voted);
        core.persist();
        core.send(0, Msg::Ack);
    }
}
