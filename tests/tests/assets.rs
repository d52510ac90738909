//! The shipped asset files (`assets/`) must stay loadable, and each
//! built-in network must be its asset file.

use std::fs;
use std::path::Path;

use scalesim::{parse_config, SimConfig};
use scalesim_topology::{networks, topology_to_csv};

#[test]
fn shipped_config_matches_the_paper_defaults() {
    let text = include_str!("../../assets/scale.cfg");
    let config = parse_config(text).unwrap();
    assert_eq!(config, SimConfig::default());
}

#[test]
fn each_builtin_writes_back_its_asset_byte_for_byte() {
    let assets = Path::new(env!("CARGO_MANIFEST_DIR")).join("../assets");
    for (name, _) in networks::BUILTIN {
        let asset = fs::read_to_string(assets.join(format!("{name}.csv"))).unwrap();
        let builtin = networks::by_name(name).unwrap();
        assert_eq!(builtin.name(), name);
        assert_eq!(topology_to_csv(&builtin), asset, "assets/{name}.csv");
    }
    // ... and every topology file in `assets/` is a built-in.
    let mut files: Vec<String> = fs::read_dir(&assets)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|file| file.strip_suffix(".csv").map(str::to_owned))
        .collect();
    files.sort_unstable();
    let mut names: Vec<&str> = networks::BUILTIN.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    assert_eq!(files, names);
}
