//! The golden report corpus: every figure binary's `--quick` grid, next to
//! the exact report JSON the binary printed for it when the corpus was
//! recorded (`tests/golden/README.md` says how each file was made).
//!
//! Each spec runs through [`CampaignExecutor`], the runner behind every
//! figure binary, and its `CampaignReport::to_json()` must match the
//! recorded bytes exactly. The checkpoint fixtures were written by the
//! binaries' `--checkpoint` flag at the same time; resuming from them must
//! replay every point, which pins the `PointKey` fingerprints absolutely.
//! A mismatch is a behaviour change: find it, never re-record the corpus.

use std::path::PathBuf;

use neurohammer_repro::attack::campaign::{read_checkpoint, CampaignExecutor, CampaignSpec};

fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn executor(name: &str) -> CampaignExecutor {
    let path = golden(&format!("{name}.spec.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    CampaignExecutor::new(spec).expect("golden spec validates")
}

/// Runs `executor` and compares its report with `<name>.report.json`,
/// naming the first line that differs.
fn assert_golden(name: &str, executor: CampaignExecutor) {
    let report = executor.execute(|_| {}).expect("golden campaign runs");
    let fresh = format!("{}\n", report.to_json());
    let path = golden(&format!("{name}.report.json"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    if fresh != expected {
        let line = fresh
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(expected.lines().count()));
        panic!(
            "{name}: report differs from {path:?} at line {}:\n  fresh:  {:?}\n  golden: {:?}",
            line + 1,
            fresh.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

fn assert_fresh_run_is_golden(name: &str) {
    assert_golden(name, executor(name));
}

/// Resumes the golden spec from its recorded checkpoint: nothing may be
/// left to run, and the replayed report is the golden one.
fn assert_checkpoint_resumes(name: &str) {
    let path = golden(&format!("checkpoints/{name}.jsonl"));
    let recorded = read_checkpoint(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let executor = executor(name).resume_from(recorded);
    assert!(
        executor.pending_points().is_empty(),
        "{name}: checkpoint keys no longer match the grid: {:?}",
        executor.pending_points()
    );
    assert_golden(name, executor);
}

#[test]
fn fig1_report_is_golden() {
    assert_fresh_run_is_golden("fig1");
}

#[test]
fn fig2a_report_is_golden() {
    assert_fresh_run_is_golden("fig2a");
}

#[test]
fn fig3a_report_is_golden() {
    assert_fresh_run_is_golden("fig3a");
}

#[test]
fn fig3b_report_is_golden() {
    assert_fresh_run_is_golden("fig3b");
}

#[test]
fn fig3c_report_is_golden() {
    assert_fresh_run_is_golden("fig3c");
}

#[test]
fn fig3d_report_is_golden() {
    assert_fresh_run_is_golden("fig3d");
}

#[test]
fn fig_defense_report_is_golden() {
    assert_fresh_run_is_golden("fig_defense");
}

#[test]
fn fig_variability_report_is_golden() {
    assert_fresh_run_is_golden("fig_variability");
}

#[test]
fn ablation_report_is_golden() {
    assert_fresh_run_is_golden("ablation");
}

#[test]
fn pulse_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig3a");
}

#[test]
fn batched_monte_carlo_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig_variability");
}

#[test]
fn guarded_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig_defense");
}

#[test]
fn detailed_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("ablation");
}
