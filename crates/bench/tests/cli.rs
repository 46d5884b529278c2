//! Command-line contract of the `bench_kernels` binary: malformed
//! arguments are usage errors (exit 2) that write no file, instead of
//! being taken as an output path or silently replaced by a default.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

#[test]
fn malformed_arguments_are_usage_errors_that_write_nothing() {
    let cases: [(&str, &[&str], &str); 4] = [
        ("flag", &["--forse"], "unknown flag `--forse`"),
        ("reps", &["out.json", "1", "abc"], "reps must be"),
        ("scale", &["out.json", "big"], "scale must be"),
        (
            "extra",
            &["out.json", "1", "1", "7"],
            "unexpected argument `7`",
        ),
    ];
    for (name, args, needle) in cases {
        // A fresh empty directory per case: anything in it afterwards
        // was written by the rejected invocation.
        let dir =
            std::env::temp_dir().join(format!("bench_kernels_cli_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn bench_kernels");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();

        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: bench_kernels"),
            "{args:?}: {stderr}"
        );
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
