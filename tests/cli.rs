//! End-to-end tests of the `qni` command-line tool.

use std::process::Command;

fn qni() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qni"))
}

#[test]
fn simulate_then_infer_round_trip() {
    let dir = std::env::temp_dir().join("qni-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,2",
            "--lambda",
            "4",
            "--mu",
            "5",
            "--tasks",
            "120",
            "--observe",
            "0.3",
            "--seed",
            "11",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--seed",
            "3",
        ])
        .output()
        .expect("run infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");
    assert!(stdout.contains("q1"), "stdout: {stdout}");

    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--seed",
            "3",
            "--chains",
            "3",
        ])
        .output()
        .expect("run infer --chains");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("pooled over 3 chain(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("split-R̂"), "stdout: {stdout}");
    assert!(stdout.contains("pooled ESS"), "stdout: {stdout}");
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");

    let out = qni()
        .args([
            "localize",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
        ])
        .output()
        .expect("run localize");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bottleneck ranking"), "stdout: {stdout}");
}

#[test]
fn infer_rejects_an_empty_kept_window() {
    let dir = std::env::temp_dir().join("qni-cli-burn-in-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "60",
            "--observe",
            "0.4",
            "--seed",
            "5",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // --burn-in >= --iterations: clear error instead of an empty window.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--burn-in",
            "40",
        ])
        .output()
        .expect("run infer");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("burn-in (40)") && stderr.contains("iterations (40)"),
        "stderr: {stderr}"
    );

    // A custom burn-in works end to end.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--burn-in",
            "10",
        ])
        .output()
        .expect("run infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");
}

#[test]
fn stream_happy_path_rejections_and_shard_identity() {
    let dir = std::env::temp_dir().join("qni-cli-stream-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Happy path: per-window table, CSV and JSON outputs.
    let csv = dir.join("traj.csv");
    let json = dir.join("traj.json");
    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--out",
            csv.to_str().expect("utf8 path"),
            "--json",
            json.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run stream");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("streaming over"), "stdout: {stdout}");
    assert!(stdout.contains("warm-start on"), "stdout: {stdout}");
    assert!(stdout.contains("w0"), "stdout: {stdout}");
    assert!(stdout.contains("split-R̂"), "stdout: {stdout}");
    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        csv_text.starts_with("window,start,end,tasks"),
        "csv: {csv_text}"
    );
    assert!(csv_text.lines().count() > 2, "csv: {csv_text}");
    let json_text = std::fs::read_to_string(&json).expect("json written");
    assert!(json_text.contains("\"windows\""), "json: {json_text}");

    // Sharding is a pure performance knob for streaming too: stdout must
    // be byte-identical across --shards (wall times are not printed).
    let stream_stdout = |extra: &[&str]| {
        let mut args = vec![
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = qni().args(&args).output().expect("run stream");
        assert!(
            out.status.success(),
            "{:?}: {}",
            extra,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let base = stream_stdout(&[]);
    assert_eq!(base, stream_stdout(&["--shards", "2"]));

    // Rejections: zero stride, non-positive width, --warm-start typos.
    let reject = |args: &[&str], needle: &str| {
        let mut full = vec!["stream", "--trace", trace.to_str().expect("utf8 path")];
        full.extend_from_slice(args);
        let out = qni().args(&full).output().expect("run stream");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    };
    reject(&["--window", "10", "--stride", "0"], "--stride must be > 0");
    reject(&["--window", "0", "--stride", "5"], "--window must be > 0");
    reject(&["--window", "-3", "--stride", "5"], "--window must be > 0");
    reject(
        &["--window", "10", "--stride", "5", "--warm-start", "maybe"],
        "--warm-start",
    );
    reject(&["--stride", "5"], "--window");
    reject(&["--window", "10"], "--stride");
}

#[test]
fn volume_reports_reduction() {
    let out = qni()
        .args([
            "volume",
            "--tasks-per-day",
            "250000000",
            "--events-per-task",
            "6",
            "--fraction",
            "0.01",
        ])
        .output()
        .expect("run volume");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("full tracing"), "stdout: {stdout}");
    assert!(stdout.contains("100x reduction"), "stdout: {stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let out = qni().args(["simulate"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");

    let out = qni().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    let out = qni().output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn shards_flag_is_byte_identical_and_validated() {
    let dir = std::env::temp_dir().join("qni-cli-shard-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "100",
            "--observe",
            "0.2",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Sharding is a pure performance knob: every --shards value must
    // print byte-identical estimates (only the shard banner differs).
    let infer = |shards: &str| {
        let out = qni()
            .args([
                "infer",
                "--trace",
                trace.to_str().expect("utf8 path"),
                "--iterations",
                "30",
                "--seed",
                "3",
                "--shards",
                shards,
            ])
            .output()
            .expect("run infer --shards");
        assert!(
            out.status.success(),
            "--shards {shards}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let table: Vec<String> = stdout
            .lines()
            .filter(|l| !l.starts_with("sharded sweeps:"))
            .map(str::to_owned)
            .collect();
        (stdout, table)
    };
    let (base, base_table) = infer("1");
    assert!(!base.contains("sharded sweeps:"), "stdout: {base}");
    for shards in ["2", "4"] {
        let (full, table) = infer(shards);
        assert!(
            full.contains("sharded sweeps:") && full.contains("byte-identical"),
            "--shards {shards} should print the shard banner: {full}"
        );
        assert_eq!(table, base_table, "--shards {shards} changed the estimates");
    }

    // --shards 0 is a usage error, not a silent serial run.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "30",
            "--shards",
            "0",
        ])
        .output()
        .expect("run infer --shards 0");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shards must be >= 1"), "stderr: {stderr}");
}

#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join("qni-cli-unknown-flag-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let path = trace.to_str().expect("utf8 path");
    let simulate = |extra: &[&str]| {
        let mut args = vec!["simulate", "--tiers", "1", "--tasks", "30", "--out", path];
        args.extend_from_slice(extra);
        qni().args(&args).output().expect("run simulate")
    };
    // A misspelled flag fails instead of running with the default, and
    // fails before the command writes anything.
    let _ = std::fs::remove_file(&trace);
    let out = simulate(&["--task", "40"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --task"), "stderr: {stderr}");
    assert!(!trace.exists(), "simulate wrote a trace despite a bad flag");
    assert!(simulate(&[]).status.success());
    // `--iteration 500` would otherwise silently run the default 200
    // iterations, and the removed `--dispatch` and `--batch` must not be
    // ignored.
    for (flag, value) in [
        ("--iteration", "500"),
        ("--dispatch", "scoped"),
        ("--batch", "off"),
    ] {
        for cmd in ["infer", "stream"] {
            let mut args = vec![cmd, "--trace", path, "--iterations", "30"];
            if cmd == "stream" {
                args.extend(["--window", "10", "--stride", "5"]);
            }
            args.extend([flag, value]);
            let out = qni().args(&args).output().expect("run with unknown flag");
            assert!(!out.status.success(), "{cmd} accepted {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unknown flag {flag}")),
                "{cmd} {flag}: {stderr}"
            );
        }
    }
}

#[test]
fn infer_rejects_a_task_id_gap_with_a_typed_error() {
    let dir = std::env::temp_dir().join("qni-cli-task-gap-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1",
            "--tasks",
            "30",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    // One record claiming task 4 000 000 000: growing the per-task index
    // to that id would need a ~96 GB allocation.
    let mut text = std::fs::read_to_string(&trace).expect("read trace");
    let first = text.lines().next().expect("non-empty trace").to_owned();
    assert!(first.starts_with("{\"task\":0,"), "record shape: {first}");
    text.push_str(&first.replacen("\"task\":0,", "\"task\":4000000000,", 1));
    text.push('\n');
    std::fs::write(&trace, text).expect("write trace");
    let out = qni()
        .args(["infer", "--trace", trace.to_str().expect("utf8 path")])
        .output()
        .expect("run infer");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("task id 4000000000"), "stderr: {stderr}");
}

#[test]
fn infer_rejects_a_duplicated_record_naming_the_trace() {
    let dir = std::env::temp_dir().join("qni-cli-duplicate-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let path = trace.to_str().expect("utf8 path");
    let out = qni()
        .args([
            "simulate", "--tiers", "1,2", "--tasks", "200", "--out", path,
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).expect("read trace");
    // Line 1 is task 0's initial record, line 2 its first visit; a copy
    // of either, prepended, makes the original the repeat.
    for line in 0..2 {
        let copy = text.lines().nth(line).expect("two lines");
        std::fs::write(&trace, format!("{copy}\n{text}")).expect("write trace");
        let out = qni()
            .args(["infer", "--trace", path, "--iterations", "8"])
            .output()
            .expect("run infer");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(path)
                && stderr.contains(&format!("record {} repeats", line + 2))
                && stderr.contains("task 0"),
            "stderr: {stderr}"
        );
        assert!(!stderr.contains("USAGE"), "stderr: {stderr}");
    }
}

#[test]
fn malformed_trace_lines_name_the_file_and_line_without_usage() {
    let dir = std::env::temp_dir().join("qni-cli-bad-line-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1",
            "--tasks",
            "30",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).expect("read trace");
    let lines: Vec<&str> = text.lines().collect();
    let offset = lines[0].len() + 1;
    // A truncated second line, and a second line with a time that
    // overflows to infinity: both are rejected while reading, naming
    // the file, line 2 and its byte offset.
    let truncated = &lines[1][..lines[1].len() / 2];
    let infinite = lines[1].replacen("\"departure\":", "\"departure\":1e999,\"d\":", 1);
    for (bad, needle) in [(truncated.to_owned(), "at byte"), (infinite, "not finite")] {
        let mut broken = vec![lines[0].to_owned(), bad];
        broken.extend(lines[2..].iter().map(|l| l.to_string()));
        std::fs::write(&trace, broken.join("\n") + "\n").expect("write trace");
        for cmd in ["infer", "localize"] {
            let out = qni()
                .args([cmd, "--trace", trace.to_str().expect("utf8 path")])
                .output()
                .expect("run");
            assert!(!out.status.success());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("line 2 (byte offset {offset})"))
                    && stderr.contains(trace.to_str().expect("utf8 path"))
                    && stderr.contains(needle),
                "{cmd} stderr: {stderr}"
            );
            assert!(!stderr.contains("USAGE"), "{cmd} stderr: {stderr}");
        }
        let out = qni()
            .args([
                "stream",
                "--trace",
                trace.to_str().expect("utf8 path"),
                "--window",
                "5",
                "--stride",
                "5",
            ])
            .output()
            .expect("run stream");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 2"), "stream stderr: {stderr}");
    }
}

#[test]
fn watch_matches_stream_fingerprint_and_enforces_gates() {
    let dir = std::env::temp_dir().join("qni-cli-watch-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // The watcher on an already-complete file must report the exact
    // trajectory `qni stream` computes for it: same fingerprint line.
    let fingerprint_of = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
            .unwrap_or_else(|| panic!("no fingerprint line in: {stdout}"))
    };
    let watch_csv = dir.join("watch.csv");
    let out = qni()
        .args([
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--queues",
            "3",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--poll-ms",
            "1",
            "--idle-polls",
            "2",
            "--max-resident",
            "4",
            "--out",
            watch_csv.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run watch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("watching"), "stdout: {stdout}");
    assert!(stdout.contains("tail drained"), "stdout: {stdout}");
    let watch_fp = fingerprint_of(&out);
    assert!(
        std::fs::read_to_string(&watch_csv)
            .expect("csv written")
            .starts_with("window,start,end,tasks"),
        "csv missing header"
    );

    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("run stream");
    assert!(out.status.success());
    assert_eq!(
        fingerprint_of(&out),
        watch_fp,
        "watch and stream fingerprints diverged"
    );

    // An impossible residency gate must fail the run (this is what the
    // CI soak leans on); the loop stops promptly on the violation but
    // still persists the trajectory artifacts first.
    let out = qni()
        .args([
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--queues",
            "3",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--poll-ms",
            "1",
            "--idle-polls",
            "2",
            "--max-resident",
            "0",
        ])
        .output()
        .expect("run watch with zero residency budget");
    assert!(!out.status.success(), "--max-resident 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bounded-memory gate violated"),
        "stderr: {stderr}"
    );

    // Rejections: --queues is mandatory and must be >= 2.
    let reject = |args: &[&str], needle: &str| {
        let mut full = vec![
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
        ];
        full.extend_from_slice(args);
        let out = qni().args(&full).output().expect("run watch");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    };
    reject(&[], "--queues");
    reject(&["--queues", "1"], "--queues");
    reject(&["--queues", "3", "--idle-polls", "0"], "--idle-polls");
    reject(
        &["--queues", "3", "--checkpoint-every", "0"],
        "--checkpoint-every",
    );
    reject(
        &["--queues", "3", "--follow-rotations", "maybe"],
        "--follow-rotations",
    );
}

/// `--checkpoint`: an interrupted watch resumed with the same flags
/// reproduces the `qni stream` fingerprint of the complete trace, and a
/// resume under different byte-affecting options is refused.
#[test]
fn watch_checkpoint_resume_matches_stream_and_rejects_mismatches() {
    let dir = std::env::temp_dir().join("qni-cli-checkpoint-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let full = std::fs::read(&trace).expect("read trace");

    // Phase 1: watch only a prefix of the trace (cut mid-line so the
    // checkpoint carries a held partial line), exiting via idle polls.
    let cut = full.len() / 2 + 5;
    std::fs::write(&trace, &full[..cut]).expect("write prefix");
    let cp = dir.join("cp.json");
    let _ = std::fs::remove_file(&cp);
    let watch_args = |trace: &std::path::Path, cp: &std::path::Path| {
        vec![
            "watch".to_owned(),
            "--trace".to_owned(),
            trace.to_str().expect("utf8").to_owned(),
            "--window".to_owned(),
            "10".to_owned(),
            "--stride".to_owned(),
            "5".to_owned(),
            "--queues".to_owned(),
            "3".to_owned(),
            "--iterations".to_owned(),
            "30".to_owned(),
            "--seed".to_owned(),
            "3".to_owned(),
            "--poll-ms".to_owned(),
            "1".to_owned(),
            "--idle-polls".to_owned(),
            "2".to_owned(),
            "--checkpoint".to_owned(),
            cp.to_str().expect("utf8").to_owned(),
        ]
    };
    let out = qni()
        .args(watch_args(&trace, &cp))
        .output()
        .expect("run watch phase 1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(cp.exists(), "no checkpoint written");

    // Phase 2: the rest of the trace arrives; the same command resumes
    // from the checkpoint instead of starting over.
    std::fs::write(&trace, &full).expect("write full trace");
    let out = qni()
        .args(watch_args(&trace, &cp))
        .output()
        .expect("run watch phase 2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from checkpoint"),
        "stdout: {stdout}"
    );
    let resumed_fp = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
        .expect("fingerprint line");

    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("run stream");
    assert!(out.status.success());
    let stream_stdout = String::from_utf8_lossy(&out.stdout);
    let stream_fp = stream_stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
        .expect("fingerprint line");
    assert_eq!(
        resumed_fp, stream_fp,
        "resumed watch and stream fingerprints diverged"
    );

    // A resume under a different master seed must be refused: silently
    // continuing would break byte-identity undetectably.
    let mut mismatched = watch_args(&trace, &cp);
    let seed_pos = mismatched
        .iter()
        .position(|a| a == "--seed")
        .expect("seed flag");
    mismatched[seed_pos + 1] = "4".to_owned();
    let out = qni()
        .args(&mismatched)
        .output()
        .expect("run watch with mismatched seed");
    assert!(!out.status.success(), "mismatched resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different schedule/options"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
