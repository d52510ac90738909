//! Property tests for the content-addressed job key: equivalent requests
//! must collide, distinct requests must not.

use std::collections::HashSet;

use proptest::prelude::*;

use scalesim::{parse_config, ContentKey, SimConfig};
use scalesim_server::job::{NormalizedJob, SimJob, Workload};
use scalesim_server::Json;

/// Table I keys the job model accepts, with a generator for plausible values.
const CONFIG_KEYS: [&str; 5] = [
    "ArrayHeight",
    "ArrayWidth",
    "IfmapSramSz",
    "FilterSramSz",
    "OfmapSramSz",
];

fn inline_job(csv: &str) -> SimJob {
    SimJob {
        workload: Workload::InlineCsv {
            name: "prop".into(),
            csv: csv.into(),
        },
        ..SimJob::default()
    }
}

/// `job` with each `(key, text)` set in order: every job field goes
/// through `SimJob::set`, as at every door.
fn set_all<K: AsRef<str>, V: AsRef<str>>(mut job: SimJob, fields: &[(K, V)]) -> SimJob {
    for (key, text) in fields {
        job.set(key.as_ref(), text.as_ref())
            .expect("field is valid");
    }
    job
}

fn key_of(job: &SimJob) -> ContentKey {
    job.normalize().expect("job is valid").key()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reordering (rotating) the config override list never changes the key.
    fn config_key_order_is_irrelevant(
        values in prop::collection::vec(1u64..=512, 2..=5),
        rotation in 0usize..5,
    ) {
        let mut fields: Vec<(String, String)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("config.{}", CONFIG_KEYS[i]), v.to_string()))
            .collect();
        let job = set_all(SimJob::builtin("alexnet"), &fields);
        let len = fields.len();
        fields.rotate_left(rotation % len);
        let rotated = set_all(SimJob::builtin("alexnet"), &fields);
        prop_assert_eq!(key_of(&job), key_of(&rotated));
    }

    /// Config key spelling is case-insensitive.
    fn config_key_case_is_irrelevant(
        value in 1u64..=512,
        which in 0usize..5,
    ) {
        let key = CONFIG_KEYS[which % CONFIG_KEYS.len()];
        let with_key = |key: String| {
            set_all(SimJob::builtin("alexnet"), &[(format!("config.{key}"), value.to_string())])
        };
        let a = with_key(key.to_string());
        let b = with_key(key.to_ascii_lowercase());
        let c = with_key(key.to_ascii_uppercase());
        prop_assert_eq!(key_of(&a), key_of(&b));
        prop_assert_eq!(key_of(&a), key_of(&c));
    }

    /// Every accepted spelling of a dataflow maps to the same key, and the
    /// explicit default spelling equals no override at all.
    fn dataflow_spellings_are_equivalent(which in 0usize..3, case_flip in 0u8..2) {
        let spellings: [&[&str]; 3] = [
            &["os", "output_stationary"],
            &["ws", "weight_stationary"],
            &["is", "input_stationary"],
        ];
        let pair = spellings[which % 3];
        let mut keys = Vec::new();
        for spelling in pair {
            let text = if case_flip == 1 {
                spelling.to_ascii_uppercase()
            } else {
                (*spelling).to_string()
            };
            keys.push(key_of(&set_all(SimJob::builtin("alexnet"), &[("dataflow", text)])));
        }
        prop_assert_eq!(keys[0], keys[1]);
        if pair[0] == "os" {
            // OS is the paper's default dataflow.
            prop_assert_eq!(keys[0], key_of(&SimJob::builtin("alexnet")));
        }
    }

    /// Whitespace, trailing commas, comments and blank lines in an inline
    /// topology CSV never change the key.
    fn topology_csv_whitespace_is_irrelevant(
        ih in 4u64..=64,
        fh in 1u64..=3,
        channels in 1u64..=16,
        filters in 1u64..=16,
        pad in 0usize..6,
    ) {
        let iw = ih;
        let tight = format!("L0,{ih},{iw},{fh},{fh},{channels},{filters},1");
        let spaces = " ".repeat(pad);
        let loose = format!(
            "# generated\n\n  L0 ,{spaces}{ih} , {iw},{spaces}{fh}, {fh} , {channels} ,{filters} , 1 ,,\n\n"
        );
        prop_assert_eq!(key_of(&inline_job(&tight)), key_of(&inline_job(&loose)));
    }

    /// Layers are simulated at offset zero, so region offsets — any of
    /// them, alone or together — never change the key.
    fn region_offsets_are_irrelevant(
        offsets in (0..u64::MAX, 0..u64::MAX, 0..u64::MAX),
        which in 0usize..4,
    ) {
        let set = [
            ("IfmapOffset", offsets.0),
            ("FilterOffset", offsets.1),
            ("OfmapOffset", offsets.2),
        ];
        let fields: Vec<(String, String)> = set
            .iter()
            .enumerate()
            .filter(|&(i, _)| which == 3 || i == which)
            .map(|(_, (k, v))| (format!("config.{k}"), v.to_string()))
            .collect();
        let job = set_all(SimJob::builtin("TF1"), &fields);
        prop_assert_eq!(key_of(&job), key_of(&SimJob::builtin("TF1")));
    }

    /// Semantically different jobs get different keys.
    fn different_jobs_differ(
        grid_a in 1u64..=4, grid_b in 1u64..=4,
        height in 4u64..=8,
    ) {
        prop_assume!(grid_a != grid_b);
        let csv = format!("L0,{height},{height},3,3,4,8,1");
        let a = set_all(inline_job(&csv), &[("grid", format!("{grid_a}x1"))]);
        let b = set_all(inline_job(&csv), &[("grid", format!("{grid_b}x1"))]);
        prop_assert_ne!(key_of(&a), key_of(&b));
    }
}

/// Table I keys a "doors agree" case may override, in the spellings it
/// draws (a key's case never matters).
const TABLE_I_KEYS: [&str; 10] = [
    "ArrayHeight",
    "ArrayWidth",
    "IfmapSramSz",
    "FilterSramSz",
    "OfmapSramSz",
    "IfmapOffset",
    "FilterOffset",
    "OfmapOffset",
    "WordBytes",
    "Dataflow",
];

/// The job dataflows a case draws from: every mnemonic, a long spelling,
/// and `auto`.
const JOB_DATAFLOWS: [&str; 6] = ["os", "ws", "is", "Weight_Stationary", "auto", "AUTO"];

/// One drawn override as `(key, value text, JSON value text)`.
fn table_i_override((which, case, raw): (usize, u8, u64)) -> (String, String, String) {
    let key = TABLE_I_KEYS[which % TABLE_I_KEYS.len()];
    let key = match case % 3 {
        0 => key.to_owned(),
        1 => key.to_ascii_lowercase(),
        _ => key.to_ascii_uppercase(),
    };
    let value = match which % TABLE_I_KEYS.len() {
        0 | 1 => (raw % 64 + 1).to_string(),
        5..=7 => (raw * 1_000_003).to_string(),
        8 => (raw % 4 + 1).to_string(),
        9 => ["os", "ws", "is"][raw as usize % 3].to_owned(),
        _ => raw.to_string(),
    };
    let json = match which % TABLE_I_KEYS.len() {
        9 => format!("\"{value}\""),
        _ => value.clone(),
    };
    (key, value, json)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A job read from a JSON body and from a manifest line, and its
    /// Table I part read from a config file, resolve to one `SimConfig`
    /// and one `ContentKey`: every door reads through the same grammar.
    fn the_doors_agree(
        overrides in prop::collection::vec((0usize..10, 0u8..3, 0u64..1024), 0..=6),
        grid in (1u64..=4, 1u64..=4),
        dataflow in prop::option::of(0usize..6),
        quarter_bandwidth in prop::option::of(1u64..=512),
        batch in prop::option::of(1u64..=4),
    ) {
        let overrides: Vec<_> = overrides.into_iter().map(table_i_override).collect();
        let dataflow = dataflow.map(|i| JOB_DATAFLOWS[i]);
        let bandwidth = quarter_bandwidth.map(|q| q as f64 / 4.0);

        let mut json = vec!["\"network\": \"TF1\"".to_owned()];
        let mut line = vec!["network=TF1".to_owned()];
        let mut file = String::from("[architecture_presets]\n");
        let config: Vec<String> = overrides
            .iter()
            .map(|(key, _, value)| format!("\"{key}\": {value}"))
            .collect();
        json.push(format!("\"config\": {{{}}}", config.join(", ")));
        for (key, value, _) in &overrides {
            line.push(format!("config.{key}={value}"));
            file.push_str(&format!("{key} : {value}\n"));
        }
        json.push(format!("\"grid\": \"{}x{}\"", grid.0, grid.1));
        line.push(format!("grid={}x{}", grid.0, grid.1));
        if let Some(df) = dataflow {
            json.push(format!("\"dataflow\": \"{df}\""));
            line.push(format!("dataflow={df}"));
            if !df.eq_ignore_ascii_case("auto") {
                file.push_str(&format!("Dataflow = {df}\n"));
            }
        }
        if let Some(bw) = bandwidth {
            json.push(format!("\"bandwidth\": {bw}"));
            line.push(format!("bandwidth={bw}"));
            file.push_str(&format!("DramBandwidth : {bw}\n"));
        }
        if let Some(n) = batch {
            json.push(format!("\"batch\": {n}"));
            line.push(format!("batch={n}"));
        }

        let body = format!("{{{}}}", json.join(", "));
        let from_json = SimJob::from_json(&Json::parse(&body).expect("valid JSON"))
            .and_then(|job| job.normalize())
            .expect("the JSON body normalizes");
        let from_line = SimJob::from_kv_line(&line.join(" "))
            .and_then(|job| job.normalize())
            .expect("the manifest line normalizes");
        let from_file: SimConfig = parse_config(&file).expect("the config file parses");
        let file_job = NormalizedJob {
            config: from_file,
            ..from_json.clone()
        };

        prop_assert_eq!(from_json.config, from_line.config);
        prop_assert_eq!(from_json.config, from_file);
        prop_assert_eq!(from_json.auto_dataflow, from_line.auto_dataflow);
        prop_assert_eq!(from_json.key(), from_line.key());
        prop_assert_eq!(from_json.key(), file_job.key());
    }
}

/// 10k-sample collision sweep: distinct jobs spanning grids, array shapes,
/// dataflows and layer geometries must produce 10k distinct FNV-128 keys.
#[test]
fn ten_thousand_distinct_jobs_no_collision() {
    let mut keys: HashSet<u128> = HashSet::with_capacity(10_000);
    let mut jobs = 0u32;
    'outer: for grid_r in 1u64..=5 {
        for grid_c in 1u64..=5 {
            for (di, df) in ["os", "ws", "is"].iter().enumerate() {
                for array in [4u64, 8, 16, 32, 64] {
                    for ih in 0..30u64 {
                        let csv = format!("L0,{h},{h},3,3,{c},8,1", h = 8 + ih, c = 1 + di as u64);
                        let job = set_all(
                            inline_job(&csv),
                            &[
                                ("grid", format!("{grid_r}x{grid_c}")),
                                ("dataflow", df.to_string()),
                                ("config.ArrayHeight", array.to_string()),
                                ("config.ArrayWidth", array.to_string()),
                            ],
                        );
                        let key = key_of(&job);
                        assert!(
                            keys.insert(key.0),
                            "collision at job {jobs}: grid {grid_r}x{grid_c} df {df} \
                             array {array} ih {ih} -> {key}"
                        );
                        jobs += 1;
                        if jobs == 10_000 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(keys.len() as u32, jobs);
    assert!(jobs >= 10_000, "sweep produced only {jobs} jobs");
}
