//! End-to-end tests of the `scale-sim` binary: real process, real files.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scale_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scale-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scale-sim-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = scale_sim(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("--topology"));
}

#[test]
fn every_subcommand_prints_usage_on_help() {
    let usage = scale_sim(&["--help"]).stdout;
    for command in ["run", "serve", "batch", "sweep", "explore"] {
        for help in ["-h", "--help"] {
            let out = scale_sim(&[command, help]);
            assert!(out.status.success(), "{command} {help}: {:?}", out.status);
            assert_eq!(out.stdout, usage, "{command} {help}");
            assert!(out.stderr.is_empty(), "{command} {help}");
        }
    }
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = scale_sim(&["--bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown argument"));
}

#[test]
fn dump_config_round_trips_through_a_file() {
    let dir = temp_dir("dumpcfg");
    let out = scale_sim(&["--dump-config"]);
    assert!(out.status.success());
    let cfg_path = dir.join("dumped.cfg");
    fs::write(&cfg_path, &out.stdout).unwrap();
    // Feed the dump back in: identical dump out.
    let again = scale_sim(&["--config", cfg_path.to_str().unwrap(), "--dump-config"]);
    assert!(again.status.success());
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn builtin_network_run_reports_all_layers() {
    let out = scale_sim(&["--network", "alexnet"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for layer in ["Conv1", "Conv5", "FC8"] {
        assert!(text.contains(layer), "missing {layer} in report");
    }
    assert!(text.contains("total:"));
}

#[test]
fn full_pipeline_writes_report_and_traces() {
    let dir = temp_dir("full");
    // A tiny custom topology keeps the trace files small.
    let topo = dir.join("tiny.csv");
    fs::write(&topo, "TinyConv,8,8,3,3,2,4,1\nTinyGemm,16,8,16\n").unwrap();
    let out = scale_sim(&[
        "--topology",
        topo.to_str().unwrap(),
        "--grid",
        "2x2",
        "--bandwidth",
        "8",
        "--output",
        dir.to_str().unwrap(),
        "--traces",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = fs::read_to_string(dir.join("REPORT.csv")).unwrap();
    assert_eq!(report.lines().count(), 3); // header + 2 layers
    assert!(report.contains("TinyConv"));
    // Stall column is populated because --bandwidth was set.
    let last_col = report.lines().nth(1).unwrap().rsplit(',').next().unwrap();
    assert!(last_col.parse::<u64>().is_ok(), "stalled_cycles column");
    for suffix in ["sram_read", "sram_write", "dram_read", "dram_write"] {
        let path = dir.join(format!("TinyConv_{suffix}.csv"));
        assert!(path.exists(), "missing {suffix} trace");
        assert!(fs::metadata(&path).unwrap().len() > 0);
    }
}

/// `run --profile` appends a per-layer timing table: one row per layer
/// position, plus a total row that is the sum of the rows. Two layers of
/// one name are two rows with their own times: a cold GEMM and the
/// same-shape layer-cache hit after it.
#[test]
fn profile_flag_lists_every_layer_exactly_once() {
    let dir = temp_dir("profile");
    let topo = dir.join("tiny.csv");
    fs::write(
        &topo,
        "ProfA,8,8,3,3,2,4,1\nProfB,16,8,16\nProfC,8,8,1,1,4,8,1\n\
         ProfRep,1024,512,1024\nProfRep,1024,512,1024\n",
    )
    .unwrap();
    let out = scale_sim(&["run", "--topology", topo.to_str().unwrap(), "--profile"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let (_, profile) = text
        .split_once("profile (wall time per layer):")
        .expect("profile table present");
    for layer in ["ProfA", "ProfB", "ProfC"] {
        let rows = profile.matches(layer).count();
        assert_eq!(rows, 1, "{layer} must appear exactly once in the profile");
    }
    assert!(profile.contains("wall_micros"));
    assert!(profile.contains("total"));
    assert!(profile.trim_end().ends_with("100.0%"));

    // `name cycles wall_micros wall%` per row.
    let wall = |row: &str| -> u64 { row.split_whitespace().nth(2).unwrap().parse().unwrap() };
    let rows: Vec<&str> = profile.lines().filter(|l| l.starts_with("Prof")).collect();
    assert_eq!(rows.len(), 5, "{profile}");
    let (cold, hit) = (wall(rows[3]), wall(rows[4]));
    assert!(
        cold > hit,
        "the cold ProfRep ({cold} us) and its cache hit ({hit} us) are timed apart:\n{profile}"
    );
    let total = profile.lines().find(|l| l.starts_with("total")).unwrap();
    assert_eq!(
        rows.iter().map(|r| wall(r)).sum::<u64>(),
        wall(total),
        "{profile}"
    );

    // Without the flag the table is absent, and `run` is optional.
    let plain = scale_sim(&["--topology", topo.to_str().unwrap()]);
    assert!(plain.status.success());
    let plain_text = String::from_utf8(plain.stdout).unwrap();
    assert!(!plain_text.contains("profile (wall time per layer)"));
}

#[test]
fn dataflow_override_changes_the_report() {
    let run = |df: &str| {
        let out = scale_sim(&["--network", "yolo_tiny", "--dataflow", df]);
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    assert_ne!(run("os"), run("ws"));
}

#[test]
fn batch_flag_multiplies_work() {
    let extract_total = |text: &str| -> u64 {
        // "total: <cycles> cycles, <macs> MACs, ..."
        let line = text.lines().find(|l| l.contains("total:")).unwrap();
        line.split(',')
            .nth(1)
            .unwrap()
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let one = scale_sim(&["--network", "alexnet"]);
    let four = scale_sim(&["--network", "alexnet", "--batch", "4"]);
    let macs1 = extract_total(&String::from_utf8(one.stdout).unwrap());
    let macs4 = extract_total(&String::from_utf8(four.stdout).unwrap());
    assert_eq!(macs4, 4 * macs1);
}

#[test]
fn missing_topology_file_is_a_clean_error() {
    let out = scale_sim(&["--topology", "/nonexistent/net.csv"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read topology"));
}

/// Runtime failures (valid flags, bad file contents) must exit nonzero with
/// exactly one `error:` line — no usage dump, no panic backtrace.
fn assert_one_line_error(out: &Output, expect: &str) {
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(err.contains(expect), "stderr missing `{expect}`: {err}");
    assert_eq!(
        err.lines().count(),
        1,
        "expected one-line error, got: {err}"
    );
    assert!(err.starts_with("error:"), "stderr: {err}");
    assert!(!err.contains("USAGE"), "runtime errors must not dump usage");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn malformed_config_is_a_one_line_error() {
    let dir = temp_dir("badcfg");
    let cfg = dir.join("bad.cfg");
    fs::write(&cfg, "ArrayHeight : not_a_number\n").unwrap();
    let out = scale_sim(&["--config", cfg.to_str().unwrap(), "--network", "alexnet"]);
    assert_one_line_error(&out, "config parse error");
}

#[test]
fn malformed_topology_csv_is_a_one_line_error() {
    let dir = temp_dir("badtopo");
    let topo = dir.join("bad.csv");
    fs::write(&topo, "Conv1,230,230,7,7\n").unwrap(); // wrong column count
    let out = scale_sim(&["--topology", topo.to_str().unwrap()]);
    assert_one_line_error(&out, "topology parse error");
}

#[test]
fn bad_flags_still_dump_usage() {
    let out = scale_sim(&["--bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown argument"));
    assert!(err.contains("USAGE"), "argument errors keep the usage dump");
}

#[test]
fn help_mentions_subcommands() {
    let out = scale_sim(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("serve"));
    assert!(text.contains("batch"));
    assert!(text.contains("sweep"));
    assert!(text.contains("/simulate"));
}

/// The sweep acceptance scenario at CLI scope: a plan that lists its MAC
/// budget twice yields byte-identical output at any `--jobs` count, and
/// the in-process cache serves every duplicate point (exactly 50% hits).
#[test]
fn sweep_is_deterministic_and_counts_cache_hits() {
    let dir = temp_dir("sweep");
    let plan = dir.join("tiny.plan");
    fs::write(
        &plan,
        "name = e2e\nworkload = TF1\nbudget = 1024, 1024\n\
         config.IfmapSramSz = 64\nconfig.FilterSramSz = 64\nconfig.OfmapSramSz = 32\n",
    )
    .unwrap();

    let serial_csv = dir.join("serial.csv");
    let serial = scale_sim(&[
        "sweep",
        "--plan",
        plan.to_str().unwrap(),
        "--jobs",
        "1",
        "--output",
        serial_csv.to_str().unwrap(),
    ]);
    assert!(
        serial.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let summary = String::from_utf8(serial.stderr).unwrap();
    assert!(
        summary.contains("10 points (5 simulations, 5 cache hits)"),
        "summary: {summary}"
    );
    assert!(summary.contains("sweet spot"), "summary: {summary}");

    let parallel_csv = dir.join("parallel.csv");
    let parallel = scale_sim(&[
        "sweep",
        "--plan",
        plan.to_str().unwrap(),
        "--jobs",
        "8",
        "--output",
        parallel_csv.to_str().unwrap(),
    ]);
    assert!(parallel.status.success());
    let serial_rows = fs::read_to_string(&serial_csv).unwrap();
    let parallel_rows = fs::read_to_string(&parallel_csv).unwrap();
    assert_eq!(
        serial_rows, parallel_rows,
        "sweep output must not depend on the worker count"
    );
    assert!(serial_rows.starts_with("workload,budget,partitions,"));
    assert_eq!(serial_rows.lines().count(), 11, "header + 10 points");

    // JSONL goes to stdout when no --output is given.
    let jsonl = scale_sim(&[
        "sweep",
        "--plan",
        plan.to_str().unwrap(),
        "--format",
        "jsonl",
    ]);
    assert!(jsonl.status.success());
    let text = String::from_utf8(jsonl.stdout).unwrap();
    assert_eq!(text.lines().count(), 10);
    assert!(text.lines().all(|l| l.starts_with("{\"workload\":\"TF1\"")));
}

/// The tracing acceptance scenario: `explore --trace-out` on the committed
/// smoke plan emits valid Chrome trace-event JSON with the stage-0/1/2
/// spans nested under `explore.run`, per-worker sweep spans, and per-layer
/// simulator spans.
#[test]
fn explore_trace_out_emits_nested_chrome_trace() {
    use scalesim_server::Json;

    let dir = temp_dir("trace");
    let plan = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/explore_smoke.plan");
    let trace = dir.join("trace.json");
    let csv = dir.join("explore.csv");
    let out = scale_sim(&[
        "explore",
        "--plan",
        plan.to_str().unwrap(),
        "--budget",
        "4",
        "--jobs",
        "2",
        "--output",
        csv.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("wrote trace"), "stderr: {stderr}");

    let text = fs::read_to_string(&trace).unwrap();
    let json = Json::parse(&text).expect("trace file is valid JSON");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents[]");

    // Every complete event has the Chrome trace-event shape.
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(!complete.is_empty(), "spans were recorded");
    for event in &complete {
        assert!(event.get("ts").and_then(Json::as_u64).is_some());
        assert!(event.get("dur").and_then(Json::as_u64).is_some());
        assert!(event.get("tid").and_then(Json::as_u64).is_some());
        assert!(event.get("name").and_then(Json::as_str).is_some());
    }

    let named = |name: &str| -> Vec<&&Json> {
        complete
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    for required in [
        "explore.run",
        "explore.stage0",
        "explore.stage1",
        "explore.stage2",
        "sweep.worker",
        "run_layer",
    ] {
        assert!(!named(required).is_empty(), "missing span `{required}`");
    }

    // The three stage spans nest under the single explore.run span.
    let span_id = |e: &Json| {
        e.get("args")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_u64)
    };
    let parent_id = |e: &Json| {
        e.get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_u64)
    };
    let runs = named("explore.run");
    assert_eq!(runs.len(), 1, "exactly one explore.run span");
    let run_id = span_id(runs[0]).unwrap();
    for stage in ["explore.stage0", "explore.stage1", "explore.stage2"] {
        for event in named(stage) {
            assert_eq!(
                parent_id(event),
                Some(run_id),
                "{stage} must nest under explore.run"
            );
        }
    }
}

/// `run --trace-out` on two cold layers: one `run_topology` span, under it
/// one `run_layer` span per layer carrying its `layer` arg, and under each
/// of those the four phase spans — nested by `args.parent`.
#[test]
fn run_trace_out_nests_layers_and_phases_under_the_topology() {
    use scalesim_server::Json;

    let dir = temp_dir("run-trace");
    let topo = dir.join("two.csv");
    fs::write(&topo, "TraceConv,8,8,3,3,2,4,1\nTraceGemm,16,8,16\n").unwrap();
    let trace = dir.join("trace.json");
    let out = scale_sim(&[
        "run",
        "--topology",
        topo.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = Json::parse(&fs::read_to_string(&trace).unwrap()).expect("valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents[]");
    let arg = |e: &Json, key: &str| e.get("args").and_then(|a| a.get(key)).cloned();
    let id = |e: &Json| arg(e, "id").and_then(|v| v.as_u64());
    let named = |name: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    let children = |parent: u64, name: &str| -> Vec<&Json> {
        named(name)
            .into_iter()
            .filter(|e| arg(e, "parent").and_then(|v| v.as_u64()) == Some(parent))
            .collect()
    };

    let topologies = named("run_topology");
    assert_eq!(topologies.len(), 1);
    assert_eq!(
        arg(topologies[0], "network")
            .as_ref()
            .and_then(Json::as_str),
        Some("two")
    );
    let layers = children(id(topologies[0]).unwrap(), "run_layer");
    let layer_args: Vec<String> = layers
        .iter()
        .map(|e| {
            arg(e, "layer")
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap()
        })
        .collect();
    assert_eq!(layer_args, ["TraceConv", "TraceGemm"]);
    for layer in layers {
        let layer_id = id(layer).unwrap();
        for phase in [
            "phase.cache_probe",
            "phase.compute",
            "phase.dram",
            "phase.energy",
        ] {
            assert_eq!(
                children(layer_id, phase).len(),
                1,
                "one {phase} under {layer:?}"
            );
        }
    }
}

#[test]
fn sweep_error_paths_are_one_line() {
    let out = scale_sim(&["sweep"]);
    assert_one_line_error(&out, "--plan");

    let out = scale_sim(&["sweep", "--plan", "/nonexistent/x.plan"]);
    assert_one_line_error(&out, "cannot read plan");

    let dir = temp_dir("sweepbad");
    let plan = dir.join("bad.plan");
    fs::write(&plan, "frobnicate = yes\n").unwrap();
    let out = scale_sim(&["sweep", "--plan", plan.to_str().unwrap()]);
    assert_one_line_error(&out, "plan parse error");
}

/// `9223372036854775809x2` is 2^64 + 2 partitions: the count used to wrap
/// to 2, pass every check and panic inside the simulator.
#[test]
fn a_grid_whose_partition_count_overflows_is_an_error_not_a_panic() {
    let out = scale_sim(&["run", "-n", "TF1", "-g", "9223372036854775809x2"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "stderr: {err}");
    assert!(errors[0].contains("--grid"), "stderr: {err}");
    assert!(errors[0].contains("9223372036854775809x2"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

/// TF0's M = 31,999 times this batch wraps to 15,483 rows: a release
/// binary reported 1,331,785,728 MACs (batch 1 reports 2,752,425,984) and
/// exited 0, and a debug one panicked on the multiply.
#[test]
fn a_batch_whose_rows_overflow_is_a_one_line_error() {
    let out = scale_sim(&["--network", "TF0", "--batch", "576478767264901"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "stderr: {err}");
    assert!(errors[0].contains("batch 576478767264901"), "stderr: {err}");
    assert!(errors[0].contains("`TF0`"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("total:"), "stdout: {text}");
}

/// 32 x 2^63 x 32 wrapped to `0 MACs` and `SRAM 1022` and exited 0;
/// 32 x (2^64 - 16) x 32 wrapped its fold duration and panicked in the
/// energy model. A MAC count past `u64::MAX` is one located error line.
#[test]
fn a_layer_whose_mac_count_overflows_is_a_one_line_error() {
    let dir = temp_dir("bigmacs");
    for (i, row) in [
        "Big,32,9223372036854775808,32",
        "Big,32,18446744073709551600,32",
        "Wide,8,8,3,3,1099511627776,1099511627776,1",
    ]
    .into_iter()
    .enumerate()
    {
        let topo = dir.join(format!("big{i}.csv"));
        fs::write(&topo, format!("A,4,4,4\n{row}\n")).unwrap();
        let out = scale_sim(&["-t", topo.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{row}");
        assert_one_line_error(&out, "line 2: invalid layer: its MAC count");
        assert!(out.stdout.is_empty(), "{row}");
    }
}

/// `min_dim = 2^32` squares past `u64::MAX`, and budget `2^63` at
/// `min_dim = 1` doubles its partition count past it: both panicked in
/// `--dry-run` (exit 101) before the plan arithmetic was checked.
#[test]
fn plan_axes_that_overflow_a_u64_are_one_line_errors() {
    let dir = temp_dir("planoverflow");
    for (i, (axes, key)) in [
        ("budget = 2^10\nmin_dim = 4294967296\n", "min_dim"),
        ("budget = 2^63\nmin_dim = 1\n", "budget"),
    ]
    .into_iter()
    .enumerate()
    {
        let plan = dir.join(format!("p{i}.plan"));
        fs::write(&plan, format!("workload = TF1\n{axes}")).unwrap();
        let out = scale_sim(&["sweep", "--plan", plan.to_str().unwrap(), "--dry-run"]);
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8(out.stderr).unwrap();
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "stderr: {err}");
        assert!(errors[0].contains(key), "stderr: {err}");
        assert!(!err.contains("panicked"), "stderr: {err}");
    }
}

/// An empty grid list is a plan error at its line. It used to run a
/// 0-point sweep or explore and exit 0.
#[test]
fn an_empty_grid_list_is_a_one_line_error_at_its_line() {
    let dir = temp_dir("emptygrid");
    let plan = dir.join("g.plan");
    fs::write(&plan, "workload = TF1\nbudget = 2^10\ngrid = ,\n").unwrap();
    let plan = plan.to_str().unwrap();
    for command in ["sweep", "explore"] {
        let out = scale_sim(&[command, "--plan", plan]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert_one_line_error(&out, "g.plan:3: grid list is empty");
    }
}

/// `--dry-run` counts distinct grids: a repeated grid, apart from its copy,
/// is one grid, not two.
#[test]
fn dry_run_counts_a_repeated_grid_once() {
    let dir = temp_dir("repeatgrid");
    let plan = dir.join("r.plan");
    fs::write(
        &plan,
        "workload = TF1\nbudget = 2^10\ngrid = 1x1, 2x2, 1x1\n",
    )
    .unwrap();
    let out = scale_sim(&["sweep", "--plan", plan.to_str().unwrap(), "--dry-run"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap() + &String::from_utf8(out.stderr).unwrap();
    assert!(text.contains(" 2 grids,"), "{text}");
    assert!(text.contains(" 3 (grid, array) combos,"), "{text}");
}

/// An array whose PE count overflows a u64 is a one-line config error:
/// 2^32 x 2^32 panicked in the energy model (exit 101), and 2^32 + 1 x
/// 2^32 printed the energy of a 65536x65536 array and exited 0.
#[test]
fn an_array_whose_pe_count_overflows_is_a_one_line_error() {
    let dir = temp_dir("bigarray");
    for (i, rows) in ["4294967296", "4294967297"].into_iter().enumerate() {
        let cfg = dir.join(format!("a{i}.cfg"));
        fs::write(
            &cfg,
            format!("ArrayHeight : {rows}\nArrayWidth : 4294967296\n"),
        )
        .unwrap();
        let out = scale_sim(&["-c", cfg.to_str().unwrap(), "-n", "TF1"]);
        assert_eq!(out.status.code(), Some(1));
        assert_one_line_error(&out, &format!("array of {rows} x 4294967296 PEs"));
        assert!(String::from_utf8(out.stdout).unwrap().is_empty());
    }
}

/// The PE-cycles of 65536x65536 arrays on a 1024x1024 grid, 2^52 PEs for
/// 4,097 cycles, wrapped: the energy printed, 450,505,454,018,560, was
/// below the 1,830,504,715,883,315 of the same arrays on a 64x16 grid.
#[test]
fn pe_cycles_of_a_huge_grid_saturate() {
    let dir = temp_dir("bigpe");
    let cfg = dir.join("big.cfg");
    fs::write(&cfg, "ArrayHeight : 65536\nArrayWidth : 65536\n").unwrap();
    let energy = |grid: &str| {
        let out = scale_sim(&["-c", cfg.to_str().unwrap(), "-n", "TF1", "-g", grid]);
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let total = text.lines().find(|l| l.contains("total:")).unwrap();
        total.rsplit(' ').next().unwrap().parse::<f64>().unwrap()
    };
    let (wide, narrow) = (energy("1024x1024"), energy("64x16"));
    assert_eq!(narrow, 1_830_504_715_883_315.0);
    assert!(wide > narrow, "{wide} vs {narrow}");
}

/// A word of 2^62 bytes makes every DRAM byte count overflow a u64: the
/// report used to say `0 DRAM bytes` (the products wrapped) and exit 0.
#[test]
fn a_huge_word_size_saturates_the_dram_bytes() {
    let dir = temp_dir("bigword");
    let cfg = dir.join("big.cfg");
    fs::write(
        &cfg,
        "ArrayHeight : 32\nArrayWidth : 32\nWordBytes : 4611686018427387904\n",
    )
    .unwrap();
    let out = scale_sim(&["-c", cfg.to_str().unwrap(), "-n", "TF0"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains(" 18446744073709551615 DRAM bytes"),
        "stdout: {text}"
    );
}

/// An `IfmapOffset` 616 addresses short of 2^64 puts each layer's IFMAP
/// region across the end of the address space. The runs that crossed it
/// wrapped and the report lost IFMAP reads (9,176 of 9,216 DRAM bytes for
/// the GEMM, 4,184 of 4,192 for the convolution, 27,096 of 27,136 with
/// 1 KB SRAMs) and exited 0. Layers are simulated at offset zero now, so
/// the report is offset 0's; `--traces`, which prints addresses, refuses
/// the offset with one error line naming the key.
#[test]
fn an_ifmap_offset_near_the_top_of_the_address_space_drops_no_reads() {
    let dir = temp_dir("bigoffset");
    let cases = [
        ("G1,64,40,64\n", 512, 9216),
        ("L1,16,16,3,3,8,8,1\n", 512, 4192),
        ("G1,64,40,64\n", 1, 27136),
    ];
    for (i, (topology, sram_kb, bytes)) in cases.into_iter().enumerate() {
        let topo = dir.join(format!("t{i}.csv"));
        fs::write(&topo, topology).unwrap();
        let report = |offset: &str| {
            let cfg = dir.join(format!("c{i}_{offset}.cfg"));
            fs::write(
                &cfg,
                format!(
                    "ArrayHeight : 8\nArrayWidth : 8\nIfmapSramSz : {sram_kb}\n\
                     FilterSramSz : {sram_kb}\nOfmapSramSz : {sram_kb}\nIfmapOffset : {offset}\n"
                ),
            )
            .unwrap();
            let out = scale_sim(&["-c", cfg.to_str().unwrap(), "-t", topo.to_str().unwrap()]);
            assert!(out.status.success());
            (String::from_utf8(out.stdout).unwrap(), cfg)
        };
        let (at_zero, _) = report("0");
        assert!(
            at_zero.contains(&format!(" {bytes} DRAM bytes")),
            "{at_zero}"
        );
        let (at_top, cfg) = report("18446744073709551000");
        assert_eq!(at_top, at_zero);
        let traces = dir.join(format!("traces{i}"));
        let out = scale_sim(&[
            "-c",
            cfg.to_str().unwrap(),
            "-t",
            topo.to_str().unwrap(),
            "-o",
            traces.to_str().unwrap(),
            "--traces",
        ]);
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8(out.stderr).unwrap();
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "stderr: {err}");
        assert!(
            errors[0].contains("IfmapOffset 18446744073709551000"),
            "{err}"
        );
        assert!(!err.contains("panicked"), "stderr: {err}");
    }
}

/// A wall-clock `--budget` past what a `Duration` holds is refused: in
/// minutes its integer product wrapped (44 s in release) or panicked
/// (debug); in seconds `1e300s` is the `/explore` repro spelled as a flag.
#[test]
fn a_huge_explore_budget_is_a_one_line_error() {
    let plan = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/explore_smoke.plan");
    for budget in ["307445734561825861m", "1e300s"] {
        let out = scale_sim(&[
            "explore",
            "--plan",
            plan.to_str().unwrap(),
            "--budget",
            budget,
        ]);
        assert_eq!(out.status.code(), Some(1));
        assert_one_line_error(
            &out,
            &format!("--budget: wall clock `{budget}` is out of range"),
        );
        assert!(out.stdout.is_empty(), "nothing explored");
    }
}

#[test]
fn serve_with_bad_flag_is_a_one_line_error() {
    let out = scale_sim(&["serve", "--frobnicate"]);
    assert_one_line_error(&out, "unknown serve argument");
}

#[test]
fn batch_without_manifest_is_a_one_line_error() {
    let out = scale_sim(&["batch"]);
    assert_one_line_error(&out, "--manifest");
}

/// A JSON manifest line whose config value holds a line break is rejected
/// at its line, before anything runs: the break once smuggled a second
/// Table I line into the job.
#[test]
fn batch_rejects_a_smuggled_config_line_at_its_manifest_line() {
    let dir = temp_dir("batchsmuggle");
    let manifest = dir.join("manifest.txt");
    fs::write(
        &manifest,
        "network=TF0\n\
         {\"network\":\"TF0\",\"config\":{\"ArrayHeight\":\"8\\nArrayWidth : 4\"}}\n",
    )
    .unwrap();
    let out = scale_sim(&["batch", "--manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_one_line_error(&out, "manifest line 2: config.ArrayHeight");
}

/// `scale-sim run` and `scale-sim batch` read one job: for every workload
/// and flag set, `run … -o DIR` writes the `REPORT.csv` that `batch`
/// writes for the manifest line holding the same fields — a `key=value`
/// line for a built-in network, a JSON line for a topology file.
#[test]
fn run_and_batch_read_one_job() {
    let dir = temp_dir("onejob");
    let topo = dir.join("tiny_net.csv");
    fs::write(
        &topo,
        "Conv,16,16,3,3,4,8,1\nFc,1,1,1,1,64,10,1\nGemm,24,16,40\n",
    )
    .unwrap();
    let csv = fs::read_to_string(&topo).unwrap();
    let flag_sets: [&[(&str, &str, &str)]; 9] = [
        &[],
        &[("-g", "grid", "2x2")],
        &[("-d", "dataflow", "os")],
        &[("-d", "dataflow", "ws")],
        &[("-d", "dataflow", "is")],
        &[("-d", "dataflow", "auto")],
        &[("-b", "bandwidth", "16")],
        &[("--batch", "batch", "2")],
        &[
            ("-g", "grid", "2x2"),
            ("-d", "dataflow", "auto"),
            ("-b", "bandwidth", "16"),
            ("--batch", "batch", "2"),
        ],
    ];
    let workloads = [
        ("-n", "TF1", "network=TF1".to_owned()),
        ("-n", "alexnet", "network=alexnet".to_owned()),
        (
            "-t",
            topo.to_str().unwrap(),
            format!(
                "\"topology_csv\": \"{}\", \"topology_name\": \"tiny_net\"",
                csv.replace('\n', "\\n")
            ),
        ),
    ];
    for (w, (flag, value, job)) in workloads.iter().enumerate() {
        for (f, flags) in flag_sets.iter().enumerate() {
            let out = dir.join(format!("run{w}_{f}"));
            let mut argv = vec!["run", flag, value, "-o", out.to_str().unwrap()];
            argv.extend(flags.iter().flat_map(|(flag, _, text)| [*flag, *text]));
            let run = scale_sim(&argv);
            assert!(run.status.success(), "{argv:?}: {run:?}");

            let line = if *flag == "-t" {
                let fields = flags.iter().map(|(_, key, text)| match *key {
                    "grid" | "dataflow" => format!(", \"{key}\": \"{text}\""),
                    _ => format!(", \"{key}\": {text}"),
                });
                format!("{{{job}{}}}", fields.collect::<String>())
            } else {
                let fields = flags.iter().map(|(_, key, text)| format!(" {key}={text}"));
                format!("{job}{}", fields.collect::<String>())
            };
            let manifest = dir.join(format!("manifest{w}_{f}.txt"));
            fs::write(&manifest, format!("{line}\n")).unwrap();
            let batch_csv = dir.join(format!("batch{w}_{f}.csv"));
            let batch = scale_sim(&[
                "batch",
                "--manifest",
                manifest.to_str().unwrap(),
                "--jobs",
                "1",
                "--output",
                batch_csv.to_str().unwrap(),
            ]);
            assert!(batch.status.success(), "{line}: {batch:?}");
            assert_eq!(
                fs::read_to_string(out.join("REPORT.csv")).unwrap(),
                fs::read_to_string(&batch_csv).unwrap(),
                "{argv:?} vs {line}"
            );
        }
    }
}

/// The batch acceptance scenario: a manifest listing every ResNet-50 layer
/// twice must report exactly a 50% cache-hit rate and produce per-layer
/// rows byte-identical to a sequential single-shot CLI run.
#[test]
fn batch_resnet50_duplicates_hit_exactly_fifty_percent() {
    let dir = temp_dir("batch50");

    // Sequential ground truth: one full run, REPORT.csv row per layer.
    let seq_out = scale_sim(&["--network", "resnet50", "--output", dir.to_str().unwrap()]);
    assert!(seq_out.status.success());
    let sequential = fs::read_to_string(dir.join("REPORT.csv")).unwrap();
    let mut rows = sequential.lines();
    let header = rows.next().unwrap();
    let rows: Vec<&str> = rows.collect();
    assert_eq!(rows.len(), 54, "resnet50 has 54 layers");

    // Manifest: each layer as its own job, listed twice back to back.
    let names = scalesim_topology::networks::resnet50();
    let manifest: String = names
        .iter()
        .flat_map(|layer| {
            let line = format!("network=resnet50 layer={}\n", layer.name());
            [line.clone(), line]
        })
        .collect();
    let manifest_path = dir.join("manifest.txt");
    fs::write(&manifest_path, manifest).unwrap();

    let batch_csv = dir.join("batch.csv");
    let out = scale_sim(&[
        "batch",
        "--manifest",
        manifest_path.to_str().unwrap(),
        "--jobs",
        "8",
        "--output",
        batch_csv.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8(out.stderr).unwrap();
    assert!(
        summary.contains("cache-hit rate 50.0% (54/108)"),
        "summary: {summary}"
    );
    assert!(summary.contains("54 simulations"), "summary: {summary}");

    // Byte-identical per-layer rows, in manifest order (each row twice).
    let mut expected = String::from(header);
    expected.push('\n');
    for row in &rows {
        expected.push_str(row);
        expected.push('\n');
        expected.push_str(row);
        expected.push('\n');
    }
    let batch = fs::read_to_string(&batch_csv).unwrap();
    assert_eq!(batch, expected, "batch rows must match sequential runs");
}
