//! End-to-end smoke: the whole benchmark at `--quick` size, through
//! the binary, exactly as the one command runs it (pinning, building
//! the daemon binaries, daemons, probes, traces, report).

use jsonlite::Json;
use std::path::Path;
use std::process::Command;

fn hostbench(out: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mosaic-hostbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run mosaic-hostbench");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        output.status.success(),
        "mosaic-hostbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let text = hostbench(Path::new("."), &["--print-benchmark-json"]);
    let section = text
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn quick_run_reports_every_metric_and_passes_its_checks() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let _ = std::fs::remove_dir_all(&out);

    // The full run: ten results, every metric of each kind, no failure.
    let stdout = hostbench(&out, &["--quick"]);
    let text = std::fs::read_to_string(out.join("report.json")).expect("report.json was written");
    let report = Json::parse(text.trim_end()).expect("report.json parses");
    let report = report.as_object("report").unwrap();
    assert!(report.get("pinned", "report").unwrap().as_bool().unwrap());
    assert!(report.get("quick", "report").unwrap().as_bool().unwrap());
    let runs = report
        .get("runs", "report")
        .unwrap()
        .as_array("runs")
        .unwrap();
    assert_eq!(runs.len(), 10, "five workloads, plain and traced");
    for run in runs {
        let run = run.as_object("run").unwrap();
        let workload = run.get("workload", "run").unwrap().as_string().unwrap();
        let traced = run.get("traced", "run").unwrap().as_bool().unwrap();
        assert_eq!(
            run.get("failed", "run").unwrap().as_u64().unwrap(),
            0,
            "{workload}"
        );
        assert!(
            run.get("attempted", "run").unwrap().as_u64().unwrap() > 0,
            "{workload}"
        );
        let metrics = run
            .get("metrics", "run")
            .unwrap()
            .as_object("metrics")
            .unwrap();
        let names: Vec<String> = metrics.keys().map(str::to_string).collect();
        assert_eq!(
            names,
            listed(if traced { "per_layer" } else { "end_to_end" }),
            "{workload}"
        );
        for name in &names {
            let value = metrics
                .get(name, "metrics")
                .unwrap()
                .as_object("metric")
                .unwrap();
            let v: f64 = value
                .get("value", "metric")
                .unwrap()
                .as_string()
                .unwrap()
                .parse()
                .unwrap();
            assert!(v.is_finite(), "{workload} {name} = {v}");
        }
        assert!(out.join(format!("trace_{workload}.json")).exists());
    }
    assert!(stdout.contains("work_per_s") && stdout.contains("sim.engine.ns_per_op"));
    assert!(!out.join(format!("work-{}", std::process::id())).exists());
    assert!(
        std::fs::read_dir(&out)
            .unwrap()
            .flatten()
            .all(|e| !e.file_name().to_string_lossy().starts_with("work-")),
        "the scratch directory is removed on exit"
    );

    // One driver-style run: the last line is the contract's object.
    let stdout = hostbench(
        &out,
        &[
            "--quick",
            "--workload",
            "cycle_dynamic",
            "--seed",
            "3",
            "--trace",
            "0",
        ],
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(!last.contains("pinned"), "{last}");
    for name in listed("end_to_end") {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {last}"
        );
    }

    // A report agrees with itself.
    let report = out.join("report.json");
    let report = report.to_str().unwrap();
    let compared = hostbench(&out, &["--compare", report, report]);
    assert!(compared.contains("reports agree within the bounds"));
}
