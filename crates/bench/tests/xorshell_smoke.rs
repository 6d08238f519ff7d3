//! End-to-end smoke test of the `xorshell` binary: drives a scripted
//! session over stdin (DDL, DML, a rolled-back transaction, plan forcing
//! through `SET`, EXPLAIN, corpus load, EXPLAIN ANALYZE, span exports) and
//! asserts on the captured stdout and the exported files.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn scripted_session_over_stdin() {
    let dir = std::env::temp_dir().join(format!("xorshell-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let chrome = dir.join("trace.json");
    let folded = dir.join("trace.folded");

    let script = format!(
        "\
CREATE TABLE kv (k INTEGER, v VARCHAR)
INSERT INTO kv VALUES (1, 'one'), (2, 'two')
SELECT k, v FROM kv
BEGIN
INSERT INTO kv VALUES (3, 'three')
SELECT COUNT(*) AS inside FROM kv
EXPLAIN ANALYZE SELECT k FROM kv
ROLLBACK
SELECT COUNT(*) AS after FROM kv
SET force_access = seq
EXPLAIN SELECT v FROM kv WHERE k = 1
.load shakespeare 1
.tables
EXPLAIN ANALYZE SELECT COUNT(*) FROM speech;
.metrics
\\spans
\\spans chrome {}
\\spans folded {}
\\hist
.quit
",
        chrome.display(),
        folded.display()
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_xorshell"))
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xorshell");
    child.stdin.take().expect("stdin piped").write_all(script.as_bytes()).expect("write script");
    let out = child.wait_with_output().expect("xorshell exits");
    let chrome = std::fs::read_to_string(&chrome).unwrap_or_default();
    let folded = std::fs::read_to_string(&folded).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "xorshell failed: {stderr}\n{stdout}");
    assert!(stderr.trim().is_empty(), "no command in the script may error: {stderr}");

    // Banner and DDL/DML acknowledgements.
    assert!(stdout.contains("xorshell —"), "greeting missing:\n{stdout}");
    assert!(stdout.contains("ok (2 rows affected)\n("), "timed INSERT ack missing:\n{stdout}");
    // The SELECT echoes both rows.
    assert!(stdout.contains("one") && stdout.contains("two"), "SELECT rows missing:\n{stdout}");
    // The shell's session holds the transaction open across lines: the
    // insert is visible inside it and gone after ROLLBACK.
    assert!(stdout.contains("inside\n3\n"), "transaction misses its insert:\n{stdout}");
    // `EXPLAIN ANALYZE` runs in that transaction too.
    assert!(stdout.contains("[rows=3 "), "EXPLAIN ANALYZE misses the open insert:\n{stdout}");
    assert!(stdout.contains("after\n2\n"), "ROLLBACK kept the insert:\n{stdout}");
    // `SET` is acknowledged like CREATE, BEGIN and ROLLBACK, forces the
    // session's plans, and `EXPLAIN` shows it.
    assert_eq!(stdout.matches("ok (0 rows affected)").count(), 4, "SET ack missing:\n{stdout}");
    assert!(
        stdout.contains("forcing: join=cost order=greedy access=seq"),
        "forced plan missing:\n{stdout}"
    );
    // After .load, the XORator Shakespeare tables exist with rows.
    assert!(stdout.contains("speech ("), ".tables must list speech:\n{stdout}");
    assert!(stdout.contains("play ("), ".tables must list play:\n{stdout}");
    // EXPLAIN ANALYZE prints an operator tree with each one's rows.
    assert!(stdout.contains("[rows=1 "), "COUNT(*) returns one row:\n{stdout}");
    // .metrics reports buffer-pool counters.
    assert!(stdout.contains("buffer pool:"), "metrics output missing:\n{stdout}");
    // \spans shows the last plain SELECT's phase tree (with an operator
    // under exec — the COUNT aggregate) and per-span total/self times.
    assert!(stdout.contains("query"), "span tree missing query phase:\n{stdout}");
    for phase in ["parse", "plan", "exec"] {
        assert!(stdout.contains(phase), "span tree missing {phase} phase:\n{stdout}");
    }
    assert!(stdout.contains("total") && stdout.contains("self"), "span times:\n{stdout}");
    // The exports hold the same record: the phases and the aggregate's
    // operator as Chrome events, and a folded stack through exec.
    for name in ["query", "parse", "plan", "exec"] {
        let event = format!("{{\"name\":\"{name}\",\"ph\":\"X\"");
        assert!(chrome.contains(&event), "Chrome trace misses {name}:\n{chrome}");
    }
    assert!(chrome.matches("\"ph\":\"X\"").count() >= 5, "no operator event:\n{chrome}");
    assert!(folded.lines().any(|l| l.starts_with("query;exec;")), "folded:\n{folded}");
    // \hist summarizes the session latency histogram.
    assert!(stdout.contains("latency: count="), "histogram summary missing:\n{stdout}");
    assert!(stdout.contains("p999="), "histogram quantiles missing:\n{stdout}");
}
