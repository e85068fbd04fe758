//! `ion_cli` argument handling, checked on the real binary: a `--flag`
//! that neither the global set nor the command knows is rejected by
//! name, a command's own flags keep working, and an unreadable input
//! prints its error alone, without the usage text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ion_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ion_cli"))
        .args(args)
        .env("IONREPRO_SCALE", "0.02")
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory holding a small generated trace.
fn trace_dir(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("ion-cli-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.darshan").to_string_lossy().into_owned();
    let out = ion_cli(&["generate", "ior-easy-2k", &trace]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    (dir, trace)
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let (dir, trace) = trace_dir("unknown");
    for args in [
        &["analyze", "--bogus-flag", &trace][..],
        &["analyze", &trace, "--bogus-flag"],
        &["--bogus-flag", &trace],
        &[&trace, "--bogus-flag"],
        // A flag of another command is unknown here.
        &["analyze", "--explain", &trace],
    ] {
        let out = ion_cli(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            err.starts_with(&format!("error: unknown flag {flag}")),
            "{args:?}: {err}"
        );
        assert!(!err.contains("cannot read"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn command_flags_stay_valid() {
    let (dir, trace) = trace_dir("own");
    let program = dir.join("p.iql");
    std::fs::write(&program, "LOAD POSIX\nAGG n = count()\nEMIT n\n").unwrap();
    let program = program.to_string_lossy().into_owned();
    let store = dir.join("store").to_string_lossy().into_owned();
    for args in [
        &["iql", &trace, &program, "--explain"][..],
        &["store", "gc", "--apply", "--store", &store],
        &["fuzz", "--iters", "2", "--seed", "5"],
    ] {
        let out = ion_cli(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unreadable_input_prints_only_its_error() {
    let missing = Path::new("/nonexistent-ion-cli-input/t.darshan").to_string_lossy();
    for command in ["analyze", "parse", "qa"] {
        let out = ion_cli(&[command, &missing]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        assert!(
            err.starts_with(&format!("error: cannot read {missing}")),
            "{command}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{command} printed more: {err}");
        assert!(!err.contains("usage:"), "{command}: {err}");
    }
}
