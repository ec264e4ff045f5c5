//! Smoke tests of the benchmark binary: every workload at tiny size, in
//! both modes, must pass its checks and print exactly the metrics
//! `BENCHMARK.json` declares, with their units; every per-layer metric
//! must carry a stated prediction.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A minimal JSON value, enough for the benchmark's own files.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut at = 0;
    let value = parse_value(bytes, &mut at);
    skip_ws(bytes, &mut at);
    assert_eq!(at, bytes.len(), "trailing input after JSON value");
    value
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) {
    skip_ws(b, at);
    assert_eq!(
        b.get(*at),
        Some(&c),
        "expected {:?} at byte {at}",
        c as char
    );
    *at += 1;
}

fn parse_string(b: &[u8], at: &mut usize) -> String {
    expect(b, at, b'"');
    let mut out = String::new();
    loop {
        match b[*at] {
            b'"' => {
                *at += 1;
                return out;
            }
            b'\\' => {
                let c = b[*at + 1];
                *at += 2;
                match c {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*at..*at + 4]).unwrap();
                        out.push(char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap());
                        *at += 4;
                    }
                    c => out.push(c as char),
                }
            }
            _ => {
                let rest = std::str::from_utf8(&b[*at..]).unwrap();
                let c = rest.chars().next().unwrap();
                out.push(c);
                *at += c.len_utf8();
            }
        }
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(b, at);
            if b[*at] == b'}' {
                *at += 1;
                return Json::Obj(fields);
            }
            loop {
                let key = parse_string(b, at);
                expect(b, at, b':');
                fields.push((key, parse_value(b, at)));
                skip_ws(b, at);
                *at += 1;
                if b[*at - 1] == b'}' {
                    return Json::Obj(fields);
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b[*at] == b']' {
                *at += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, at));
                skip_ws(b, at);
                *at += 1;
                if b[*at - 1] == b']' {
                    return Json::Arr(items);
                }
            }
        }
        b'"' => Json::Str(parse_string(b, at)),
        b't' => {
            *at += 4;
            Json::Bool(true)
        }
        b'f' => {
            *at += 5;
            Json::Bool(false)
        }
        b'n' => {
            *at += 4;
            Json::Null
        }
        _ => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            Json::Num(
                std::str::from_utf8(&b[start..*at])
                    .unwrap()
                    .parse()
                    .unwrap(),
            )
        }
    }
}

fn package_file(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// `(name, unit)` of the metrics a section of `BENCHMARK.json` declares.
fn declared(section: &str) -> BTreeMap<String, String> {
    package_file("../BENCHMARK.json")
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    package_file("../BENCHMARK.json")
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn assert_result(workload: &str, result: &Json, metrics: &BTreeMap<String, String>) {
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
    assert!(
        matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0),
        "{workload}"
    );
    let printed = result.get("metrics");
    let mut names: Vec<&str> = printed.keys();
    names.sort_unstable();
    assert_eq!(
        names,
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        "{workload}"
    );
    for (name, unit) in metrics {
        let metric = printed.get(name);
        assert_eq!(metric.keys(), ["value", "unit"], "{workload} {name}");
        assert_eq!(metric.get("unit").str(), unit, "{workload} {name}");
        assert!(
            matches!(metric.get("value"), Json::Num(v) if v.is_finite()),
            "{workload} {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    for workload in workloads() {
        let result = run(&workload, "0");
        assert_result(&workload, &result, &metrics);
        for name in metrics.keys() {
            let Json::Num(value) = result.get("metrics").get(name).get("value") else {
                unreachable!()
            };
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} reads {value}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let metrics = declared("per_layer");
    for workload in workloads() {
        assert_result(&workload, &run(&workload, "1"), &metrics);
    }
}

#[test]
fn every_per_layer_metric_states_its_prediction() {
    let predictions = package_file("predictions.json");
    let names = workloads();
    for name in declared("per_layer").keys() {
        let prediction = predictions.get("per_layer").get(name);
        let moves = prediction.get("moves").str();
        assert!(
            declared("end_to_end").contains_key(moves),
            "{name} moves unknown metric {moves}"
        );
        for workload in prediction.get("on").arr() {
            assert!(
                names.iter().any(|w| w == workload.str()),
                "{name}: unknown workload {workload:?}"
            );
        }
    }
    for workload in &names {
        predictions.get("workloads").get(workload);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "paper", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
