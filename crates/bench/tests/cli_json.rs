//! CI lane: the machine-readable CLI surface. Runs `pim-bench list`
//! and `pim-bench run table1 --format json`, and validates the JSON
//! with the vendored `serde_json` round-trip helper (parse + compact
//! re-render), so `--format json` can never emit text that a JSON
//! consumer would reject.

use std::process::Command;

mod common;
use common::run_cli;

#[test]
fn list_names_every_registered_experiment() {
    let listing = run_cli(&["list"]);
    for spec in pim_core::experiments::registry().specs() {
        assert!(
            listing.lines().any(|l| l.starts_with(spec.name)),
            "`pim-bench list` is missing {}",
            spec.name
        );
    }
}

#[test]
fn run_table1_json_round_trips_through_the_vendored_parser() {
    let json = run_cli(&["run", "table1", "--format", "json"]);
    // The round-trip helper parses and compactly re-renders; a second
    // round trip must be a fixed point.
    let compact = serde_json::round_trip(&json).expect("CLI emitted valid JSON");
    assert_eq!(serde_json::round_trip(&compact).unwrap(), compact);

    let value = serde_json::from_str(&json).expect("parses");
    let serde::Value::Seq(outputs) = value else {
        panic!("top level must be an array of experiment outputs");
    };
    assert_eq!(outputs.len(), 1);
    let serde::Value::Map(fields) = &outputs[0] else {
        panic!("experiment output must be an object");
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{k}` field"))
    };
    assert_eq!(get("experiment"), &serde::Value::Str("table1".into()));
    let serde::Value::Seq(tables) = get("tables") else {
        panic!("`tables` must be an array");
    };
    assert_eq!(tables.len(), 1);
}

#[test]
fn config_rejections_surface_as_clean_cli_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_pim-bench"))
        .args(["run", "table1", "--set", "sim_sampling=0"])
        .output()
        .expect("pim-bench spawns");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sim_sampling"), "{stderr}");
}

#[test]
fn out_of_range_float_overrides_are_clean_cli_errors() {
    // A zero vertical conductance used to print an absurd peak
    // temperature and exit 0; NaN and negative budgets were silently
    // treated as "disabled".
    for set in [
        "thermal.g_vertical=0",
        "thermal.g_vertical=NaN",
        "dynamic_power_budget_w=-1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pim-bench"))
            .args(["run", "fig7", "--set", set])
            .output()
            .expect("pim-bench spawns");
        assert_eq!(out.status.code(), Some(1), "{set}");
        let key = set.split('=').next().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(key), "{set}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{set}: no table on a rejected config"
        );
    }
}
