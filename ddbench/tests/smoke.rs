//! Smoke test: all four workloads, end to end and traced, at 24 ballots.
//!
//! One test function on purpose: the traced driver installs the
//! process-global crypto hook, so two traced runs must not overlap.

use ddbench::e2e;
use ddbench::json::Json;
use ddbench::report::RunOutput;
use ddbench::traced;
use ddbench::workload::{MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};

const BALLOTS: usize = 24;
const SEED: u64 = 11;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared_in(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn owned(decls: &[MetricDecl]) -> Vec<(String, String)> {
    decls
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

fn assert_correct(what: &str, out: &RunOutput, casts_per_ballot: usize) {
    assert!(
        out.correct(),
        "{what}: {:?} failed={}",
        out.misses,
        out.failed
    );
    assert_eq!(out.failed, 0, "{what}: cast_fail_ratio must be 0");
    assert_eq!(out.attempted, (casts_per_ballot * BALLOTS) as u64, "{what}");
}

#[test]
fn every_workload_runs_end_to_end_and_traced() {
    let doc = benchmark_json();
    assert_eq!(declared_in(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared_in(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);

    for workload in &WORKLOADS {
        let mut out = e2e::run(workload, SEED, BALLOTS);
        out.check_declared(END_TO_END);
        assert_correct(
            workload.name,
            &out,
            workload.elections * (1 + workload.recast_rounds),
        );
        for (name, _) in END_TO_END {
            assert!(
                out.value(name).unwrap() > 0.0,
                "{} {name} is 0",
                workload.name
            );
        }

        let mut traced = traced::run(workload, SEED, BALLOTS);
        traced.check_declared(PER_LAYER);
        assert_correct(&format!("{} traced", workload.name), &traced, 2);
        let value = |name: &str| traced.value(name).unwrap();

        // The predicted bypasses: the journal is on the cast path of
        // `wal_fresh` only, codec and channels of `tcp_fresh` only.
        for name in [
            "storage.append_us_per_cast",
            "storage.commit_us",
            "storage.commits_per_cast",
            "storage.records_per_commit",
            "storage.bytes_per_cast",
            "storage.recover_ms",
        ] {
            assert_eq!(value(name) > 0.0, workload.wal, "{} {name}", workload.name);
        }
        let tcp = workload.name == "tcp_fresh";
        for name in [
            "protocol.encode_us_per_cast",
            "protocol.decode_us_per_cast",
            "protocol.frames_per_cast",
            "protocol.bytes_per_cast",
            "net.handshake_us",
            "net.seal_us_per_cast",
            "net.open_us_per_cast",
            "net.conns_per_cast",
            "net.wire_bytes_per_cast",
            "bb.snapshot_bytes",
        ] {
            assert_eq!(value(name) > 0.0, tcp, "{} {name}", workload.name);
        }
        assert!(value("vc.steps_per_cast") > 0.0);
        assert!(value("net.sim_msgs_per_cast") > 0.0);
        assert!(value("trace.implied_cores") > 0.0);
        assert!(
            value("trace.unaccounted_pct") < 25.0,
            "ledger mostly accounted"
        );

        // Counts repeat exactly for a seed.
        let again = traced::run(workload, SEED, BALLOTS);
        for name in [
            "vc.steps_per_cast",
            "net.sim_msgs_per_cast",
            "protocol.frames_per_cast",
            "protocol.bytes_per_cast",
            "net.wire_bytes_per_cast",
            "storage.commits_per_cast",
            "storage.records_per_commit",
            "storage.bytes_per_cast",
            "vc.consensus_msgs",
        ] {
            assert_eq!(
                again.value(name),
                traced.value(name),
                "{} {name}",
                workload.name
            );
        }
    }
}
