//! Smoke-size runs of every workload: each prints every metric
//! `BENCHMARK.json` names, with its unit, passes its output checks, and
//! repeats its deterministic metrics exactly.

use nfv_perfbench::{
    run, silence_injected_panics, Options, RunResult, Scale, Workload, END_TO_END, PER_LAYER,
};
use nfv_telemetry::json::{get_str, parse_object};
use std::sync::Once;

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunResult {
    static QUIET: Once = Once::new();
    QUIET.call_once(silence_injected_panics);
    let options = Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
    };
    run(&options).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

/// The flat objects of one top-level array of `BENCHMARK.json`, as
/// `(name, unit)` pairs (`unit` empty where the objects have none).
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let open = start + text[start..].find('[').expect("an array");
    let close = open + text[open..].find(']').expect("a closed array");
    let mut out = Vec::new();
    let mut rest = &text[open..close];
    while let Some(begin) = rest.find('{') {
        let end = begin + rest[begin..].find('}').expect("a closed object");
        let fields = parse_object(&rest[begin..=end]).expect("a flat JSON object");
        let name = get_str(&fields, "name").expect("a name").to_string();
        let unit = get_str(&fields, "unit").unwrap_or_default().to_string();
        out.push((name, unit));
        rest = &rest[end + 1..];
    }
    out
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(name, unit)| ((*name).to_string(), (*unit).to_string()))
        .collect()
}

fn printed(result: &RunResult) -> Vec<(String, String)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    assert_eq!(listed("end_to_end"), declared(&END_TO_END));
    assert_eq!(listed("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = smoke(workload, 5, trace);
            assert!(
                result.correct,
                "{} (trace {trace}) failed a check",
                workload.name()
            );
            assert_eq!(result.failed, 0);
            assert!(result.attempted > 0);
            assert_eq!(printed(&result), declared(list), "{}", workload.name());
            assert!(result
                .to_json()
                .starts_with("{\"correct\": true, \"attempted\": "));
            if !trace {
                for m in &result.metrics {
                    assert!(
                        m.value > 0.0,
                        "{} {} reads {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    for workload in Workload::ALL {
        let (a, b) = (smoke(workload, 9, false), smoke(workload, 9, false));
        for name in ["served_ratio", "mean_response_ms"] {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        // Every count and ratio of the traced run is a pure function of
        // the seed, except the two ratios of span times; chaos
        // byte-identity is one of the run's checks.
        let wall_clock = ["fleet.drain_skew", "fleet.checkpoint_growth"];
        let (a, b) = (smoke(workload, 9, true), smoke(workload, 9, true));
        assert!(a.correct && b.correct, "{}", workload.name());
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if (x.unit == "count" || x.unit == "ratio") && !wall_clock.contains(&x.name) {
                assert_eq!(x.value, y.value, "{} {}", workload.name(), x.name);
            }
        }
    }
}

#[test]
fn the_command_line_takes_the_documented_flags() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let options = Options::parse(args("--workload chaos --seed 7 --seconds 3 --trace 1")).unwrap();
    assert_eq!(options.workload, Workload::Chaos);
    assert_eq!(
        (options.seed, options.seconds, options.trace),
        (7, 3.0, true)
    );
    let defaults = Options::parse(args("--workload replay")).unwrap();
    assert_eq!(
        (defaults.seed, defaults.seconds, defaults.trace),
        (42, 20.0, false)
    );
    for bad in [
        "",
        "--workload nope",
        "--workload fleet --trace 2",
        "--seconds 0 --workload fleet",
    ] {
        assert!(
            Options::parse(args(bad)).is_err(),
            "{bad:?} should be refused"
        );
    }
}
