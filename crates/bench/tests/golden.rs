//! Golden-snapshot and determinism tiers for the experiment harness.
//!
//! Every experiment family renders at [`Profile::Smoke`] — a small
//! fixed-seed configuration with no wall-clock text, so the report is
//! byte-deterministic — and is compared against a committed golden file
//! under `tests/golden/`. Regenerate after an intentional change with:
//!
//! ```text
//! ZIGZAG_BLESS=1 cargo test -p zigzag-bench --test golden
//! ```
//!
//! The determinism tier renders the **full harness** (all families, all
//! cells) at worker counts 1 and 8 and requires byte-identical output —
//! the family-level extension of the coordination layer's serial-fold
//! regression. `render_with(n)` is exactly the code path a
//! `ZIGZAG_THREADS=n` environment selects.

use std::fs;
use std::path::PathBuf;

use zigzag_bench::experiments::{self, Profile};
use zigzag_bench::harness::ExperimentHarness;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn bless_requested() -> bool {
    std::env::var("ZIGZAG_BLESS").is_ok_and(|v| v == "1")
}

fn check_golden(name: &str, report: &str) {
    let path = golden_path(name);
    if bless_requested() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, report).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             ZIGZAG_BLESS=1 cargo test -p zigzag-bench --test golden",
            path.display()
        )
    });
    assert!(
        report == expected,
        "{name} diverged from its golden file {}.\n\
         If the change is intentional, regenerate with ZIGZAG_BLESS=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{report}",
        path.display()
    );
}

macro_rules! golden_tests {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            let exp = experiments::$name::experiment(Profile::Smoke);
            let name = exp.name();
            check_golden(name, &exp.render());
        }
    )+};
}

golden_tests!(
    fig1_fork,
    fig2_zigzag,
    fig3_visible,
    fig8_extended,
    thm1_soundness,
    thm2_tightness,
    thm3_kop,
    thm4_knowledge,
    protocol_compare,
    ablation,
    online,
    serve,
);

/// Witness bytes on the `cold-observer-read` inputs of the repository
/// benchmark: `max_x` and the rendered σ-visible witness (the string the
/// wire sends) for every 7th observer of three 640-event prefixes, from
/// two anchors. The witness path is the canonical maximum-weight path of
/// `GE(r, σ)`: the fewest edges, then each hop's least `(label, vertex
/// index)` tight in-edge. No row order decides it, so a graph builder may
/// reorder its edges; `tests/oracle.rs` holds each served witness to a
/// naive reference of the same rule, and this pins the bytes end to end.
#[test]
fn witness_bytes() {
    use std::fmt::Write as _;
    use zigzag_bcm::{NodeId, ProcessId, RunCursor, StreamingRun};
    use zigzag_core::knowledge::KnowledgeEngine;
    use zigzag_core::GeneralNode;

    let ctx = zigzag_bench::scaled_context(12, 0.3, 11);
    let mut report = String::new();
    for seed in 1..=3u64 {
        let recorded = zigzag_bench::kicked_run(&ctx, ProcessId::new(0), 1, 80, seed);
        let mut stream = StreamingRun::new(recorded.context_arc(), recorded.horizon());
        let nodes: Vec<NodeId> = RunCursor::new(&recorded)
            .collect_events()
            .iter()
            .take(640)
            .map(|ev| stream.append(ev).expect("recorded schedules replay"))
            .collect();
        let run = stream.run();
        for (k, &sigma) in nodes.iter().enumerate().step_by(7) {
            let engine = KnowledgeEngine::new(run, sigma).unwrap();
            let past: Vec<NodeId> = run.past(sigma).iter().filter(|n| !n.is_initial()).collect();
            let strided = past[(k * 37) % past.len()];
            write!(report, "seed {seed} σ {sigma}").unwrap();
            for anchor in [nodes[0], strided] {
                let (a, b) = (GeneralNode::basic(anchor), GeneralNode::basic(sigma));
                let max_x = engine.max_x(&a, &b).unwrap();
                let witness = match engine.witness(&a, &b).unwrap() {
                    Some((weight, vz)) => format!("{weight} {vz}"),
                    None => "none".to_string(),
                };
                write!(report, " | θ1 {anchor}: max_x {max_x:?}, witness {witness}").unwrap();
            }
            report.push('\n');
        }
    }
    check_golden("witness_bytes", &report);
}

/// Family-level determinism: the whole harness — every family, every
/// cell, one fused parallel map — renders byte-identically at 1 and 8
/// workers (the `ZIGZAG_THREADS=1` vs `ZIGZAG_THREADS=8` contract), and
/// equals the concatenation of the per-family golden reports.
#[test]
fn harness_output_is_worker_count_invariant() {
    let harness = ExperimentHarness::new().experiments(experiments::all(Profile::Smoke));
    assert!(harness.cell_count() > 20, "families lost their cells");
    let serial = harness.render_with(1);
    let parallel = harness.render_with(8);
    assert!(
        serial == parallel,
        "family-parallel harness output diverged from the serial fold"
    );
    if !bless_requested() {
        let concatenated: String = experiments::all(Profile::Smoke)
            .into_iter()
            .map(|e| {
                fs::read_to_string(golden_path(e.name())).expect("golden files exist (bless first)")
            })
            .collect();
        assert!(
            serial == concatenated,
            "harness report is not the concatenation of the family reports"
        );
    }
}
