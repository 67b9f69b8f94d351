//! `BENCHMARK.json` is well formed, within its limits, and declares
//! exactly the workloads and metrics this package measures; every
//! per-layer prediction names real end-to-end metrics and workloads.

use std::collections::BTreeSet;

use pdf_atpgbench::workload::{command_line, Plan, END_TO_END, PER_LAYER, WORKLOADS};
use pdf_telemetry::Json;

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn str_field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string in {j:?}"))
}

fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is not an array"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn top_level_shape_and_limits() {
    let d = declaration();
    assert_eq!(
        keys(&d),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = array(&d, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths: Vec<&str> = array(&d, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["atpgbench"]);
    let seconds = d.get("run_seconds").and_then(Json::as_num).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = array(&d, "workloads").len();
    let e2e = array(&d, "end_to_end").len();
    let layers = array(&d, "per_layer").len();
    assert!((2..=8).contains(&workloads), "{workloads} workloads");
    assert!((1..=16).contains(&e2e), "{e2e} end-to-end metrics");
    assert!((1..=128).contains(&layers), "{layers} per-layer metrics");

    let mut names = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in array(&d, section) {
            let name = str_field(entry, "name");
            assert!(valid_name(name), "bad name `{name}`");
            assert!(names.insert(name.to_owned()), "`{name}` is declared twice");
        }
    }
}

#[test]
fn workloads_match_the_code() {
    let d = declaration();
    let declared = array(&d, "workloads");
    assert_eq!(declared.len(), WORKLOADS.len());
    for (entry, w) in declared.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(str_field(entry, "name"), w.name);
        assert_eq!(str_field(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        // Every workload is a command line the traced run reproduces.
        let args = command_line(w, 1, std::path::Path::new("tmp"));
        Plan::parse(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

#[test]
fn end_to_end_metrics_match_the_code_and_carry_bounds() {
    let d = declaration();
    let declared = array(&d, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    let mut bounds = Vec::new();
    for (entry, m) in declared.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(str_field(entry, "name"), m.name);
        assert_eq!(str_field(entry, "unit"), m.unit);
        assert_eq!(str_field(entry, "better"), m.better);
        assert!(valid_unit(m.unit));
        let bound = entry.get("bound").and_then(Json::as_num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        bounds.push((m.name, bound));
    }
    let setup = declared
        .iter()
        .find(|e| str_field(e, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(str_field(setup, "unit"), "s");
    assert_eq!(str_field(setup, "better"), "lower");
    let setup_bound = setup.get("bound").and_then(Json::as_num).unwrap();
    assert!(
        bounds.iter().all(|&(_, b)| b <= setup_bound),
        "setup_s carries the largest bound: {bounds:?}"
    );
}

#[test]
fn per_layer_metrics_match_the_code_and_predict_real_pairs() {
    let d = declaration();
    let declared = array(&d, "per_layer");
    assert_eq!(declared.len(), PER_LAYER.len());
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for (entry, m) in declared.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(str_field(entry, "name"), m.name);
        assert_eq!(str_field(entry, "unit"), m.unit);
        assert_eq!(str_field(entry, "better"), m.better);
        assert!(valid_unit(m.unit));
        assert!(matches!(m.better, "lower" | "higher"));
        assert!(!m.moves.is_empty(), "{} predicts nothing", m.name);
        for target in m.moves {
            assert!(e2e.contains(target), "{} moves unknown {target}", m.name);
        }
        for w in m.on {
            assert!(
                workloads.contains(w),
                "{} names unknown workload {w}",
                m.name
            );
        }
    }
}
