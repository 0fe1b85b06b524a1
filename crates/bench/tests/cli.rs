//! The bench binaries' command lines are strict: a flag they do not know
//! is a usage error, not a silently ignored word.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

#[test]
fn a_typoed_flag_exits_2_instead_of_running_the_full_grid() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_fig4"),
            vec!["--quik", "--json-out", "x"],
        ),
        (env!("CARGO_BIN_EXE_fig4"), vec!["--threads", "0"]),
        (env!("CARGO_BIN_EXE_mttr"), vec!["--quick", "--json-out"]),
        (env!("CARGO_BIN_EXE_resildb-top"), vec!["--once", "--once"]),
    ] {
        let out = Command::new(bin).args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage error: "),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}
