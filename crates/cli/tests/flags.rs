//! End-to-end exit codes of the `mcast` binary for flags a subcommand
//! does not read.

use std::process::Command;

fn mcast(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcast"))
        .args(args)
        .output()
        .expect("mcast runs")
}

#[test]
fn removed_engine_jobs_flag_exits_2_naming_it() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/spec_fig7_5.json"
    );
    let out = mcast(&["run", "--spec", spec, "--engine-jobs", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--engine-jobs"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the usage error"
    );
}

#[test]
fn bogus_sweep_flag_exits_2_naming_it() {
    let out = mcast(&["sweep", "--topology", "mesh:4x4", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
}
