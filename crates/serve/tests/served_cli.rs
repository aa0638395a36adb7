//! `cvopt-served` rejects a sampling rate outside `(0, 1]` at startup,
//! before binding, instead of failing every approximate query later.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn out_of_range_rate_exits_2_before_binding() {
    for rate in ["0", "1.5", "nan"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cvopt-served"))
            .args(["--port", "0", "--rate", rate])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cvopt-served");
        // A server that accepted the rate would listen forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("poll cvopt-served").is_none() {
            if Instant::now() > deadline {
                child.kill().expect("kill cvopt-served");
                panic!("--rate {rate}: cvopt-served started instead of exiting");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("collect cvopt-served output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rate {rate}: {stderr}");
        assert!(stderr.contains("--rate: sampling rate must be in (0, 1]"), "{stderr}");
        assert!(out.stdout.is_empty(), "--rate {rate} must fail before listening");
    }
}
