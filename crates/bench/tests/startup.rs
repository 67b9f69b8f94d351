//! A malformed grammar knob, or a misspelt `PDF_*` variable, stops every
//! throughput binary at startup: exit status 2, a typed error naming the
//! variable, no measurement.

#[test]
fn a_malformed_grammar_knob_exits_two_before_any_work() {
    let bins = [
        env!("CARGO_BIN_EXE_sim_throughput"),
        env!("CARGO_BIN_EXE_justify_throughput"),
        env!("CARGO_BIN_EXE_pipeline_throughput"),
    ];
    let vars = [
        ("PDF_TIME_BUDGET", "@@"),
        ("PDF_IO_RETRY", "@@"),
        ("PDF_FAILPOINTS", "@@"),
        ("PDF_BENCH_TEST", "32"),
    ];
    for (bin, (var, value)) in bins.iter().flat_map(|b| vars.map(|v| (b, v))) {
        let mut cmd = std::process::Command::new(bin);
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("PDF_") {
                cmd.env_remove(name);
            }
        }
        let out = cmd.env(var, value).output().expect("spawn bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {var}: {stderr}");
        assert!(stderr.starts_with(&format!("error: invalid {var}=`{value}`: ")));
        assert!(out.stdout.is_empty(), "{bin} {var}: work ran first");
    }
}
