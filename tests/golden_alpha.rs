//! The α extraction pinned bit for bit: `tests/golden/alpha/` holds the
//! on-disk α-cache files that `fig3b_electrode_spacing` and
//! `fig2a_temperature_matrix` wrote for their golden specs
//! (`tests/golden/README.md` says how). Each file carries the exact hex
//! bits of R_th, T₀, the minimum R², the α matrix and the temperature
//! matrix of one field problem.
//!
//! Every field problem of those specs is solved afresh here — never read
//! back from a memo or a cache directory — and rendered into the cache
//! format, which must equal the recorded file byte for byte. A mismatch is
//! a change of the field solve: find it, never re-record the files.

use std::path::PathBuf;

use neurohammer_repro::attack::campaign::CampaignSpec;
use neurohammer_repro::fem::alpha::{
    disk_cache_entry, extract_alpha, extract_alpha_disk_cached, extract_alpha_threaded,
    AlphaConfig, AlphaExtraction,
};
use neurohammer_repro::fem::CrossbarGeometry;

/// The golden specs whose FEM extractions are pinned.
const SPECS: [&str; 2] = ["fig3b", "fig2a"];

fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Every distinct field problem of the pinned specs, in grid order.
fn field_problems() -> Vec<(CrossbarGeometry, AlphaConfig)> {
    let mut problems: Vec<(CrossbarGeometry, AlphaConfig)> = Vec::new();
    for name in SPECS {
        let path = golden(&format!("{name}.spec.json"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for point in spec.points() {
            let problem = spec
                .alpha_problem(&point)
                .expect("golden spec is FEM-coupled");
            if !problems.contains(&problem) {
                problems.push(problem);
            }
        }
    }
    problems
}

/// Solves every field problem with `extract` and compares its cache entry
/// with the recorded file of the same name.
fn assert_pinned(extract: impl Fn(&CrossbarGeometry, &AlphaConfig) -> AlphaExtraction) {
    let problems = field_problems();
    for (geometry, config) in &problems {
        let extraction = extract(geometry, config);
        let (file, fresh) = disk_cache_entry(geometry, config, &extraction);
        let path = golden(&format!("alpha/{file}"));
        let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(
            fresh == recorded,
            "{path:?}: a fresh solve of spacing {} nm at {} nm voxels differs from the pin",
            geometry.electrode_spacing_nm,
            geometry.voxel_nm
        );
    }
}

#[test]
fn there_is_one_pin_per_golden_field_problem() {
    let recorded = std::fs::read_dir(golden("alpha"))
        .expect("tests/golden/alpha exists")
        .count();
    assert_eq!(
        field_problems().len(),
        4,
        "three fig3b spacings and one fig2a"
    );
    assert_eq!(recorded, 4);
}

#[test]
fn extract_alpha_reproduces_the_pinned_bits() {
    assert_pinned(|geometry, config| extract_alpha(geometry, config).expect("field solve"));
}

#[test]
fn every_thread_count_reproduces_the_pinned_bits() {
    for threads in 1..=3 {
        assert_pinned(|geometry, config| {
            extract_alpha_threaded(geometry, config, threads).expect("field solve")
        });
    }
}

/// The campaign's path: a fresh solve on two threads through the on-disk
/// cache writes files identical to the pins. Nothing else in this test
/// binary fills the process-wide memo, and the directory starts empty, so
/// the first call per problem solves.
#[test]
fn the_disk_cache_writes_the_pinned_files() {
    let dir = std::env::temp_dir().join(format!("golden-alpha-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (geometry, config) in field_problems() {
        extract_alpha_disk_cached(&geometry, &config, &dir, 2).expect("field solve");
    }
    for entry in std::fs::read_dir(golden("alpha")).expect("tests/golden/alpha exists") {
        let name = entry.expect("directory entry").file_name();
        let written = std::fs::read(dir.join(&name)).unwrap_or_else(|e| panic!("{name:?}: {e}"));
        let pinned = std::fs::read(golden("alpha").join(&name)).expect("pin is readable");
        assert!(written == pinned, "{name:?} differs from the pin");
    }
    std::fs::remove_dir_all(&dir).ok();
}
