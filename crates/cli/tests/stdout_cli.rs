//! `pdfatpg` writing to a stdout that closes early or cannot take the
//! output: a reader that stops (`| head -1`) ends the run quietly with
//! status 0, any other write failure is a typed error with exit 2 —
//! never a panic.

use std::process::{Command, Stdio};

const EXIT_ERROR: i32 = 2;

fn pdfatpg(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdfatpg"));
    for knob in pdf_knobs::KNOBS {
        cmd.env_remove(knob.env);
    }
    cmd.args(args);
    cmd
}

#[test]
fn closed_stdout_pipe_exits_zero_without_panicking() {
    // The DOT output of s9234* (~300 kB) outgrows any pipe buffer, so the
    // write hits the closed read end whenever the process gets to it.
    let mut child = pdfatpg(&["dot", "s9234*"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdfatpg");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for pdfatpg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn full_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = pdfatpg(&["info", "s27"])
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("run pdfatpg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ERROR), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
