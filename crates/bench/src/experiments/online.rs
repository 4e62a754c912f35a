//! O (PR 3, facade since PR 4): the incremental streaming engine,
//! exercised online **through `zigzag_api::ZigzagService`** — the same
//! dispatch code path production callers use.
//!
//! Three claims, each checked per cell (so the binary has teeth and the
//! golden snapshot pins the numbers):
//!
//! * **O1 — prefix-differential equality**: feeding a recorded schedule
//!   event-by-event into a facade stream session, the all-pairs
//!   threshold matrix dispatched at every appended node equals a freshly
//!   built batch [`KnowledgeEngine`] on the same prefix, cell for cell;
//! * **O2 — online coordination**: replaying Figure 1 schedules through
//!   a spec-configured stream session, the earliest event at which `B`'s
//!   knowledge holds (`Query::CoordDecision`) is exactly the node where
//!   the batch Protocol 2 acted;
//! * **O3 — caught-up global bounds**: the session's dispatched
//!   `TightBound` answers, caught up across appends, equal a
//!   from-scratch [`BoundsGraph`] per prefix.
//!
//! All report text is byte-deterministic in both profiles (counts and
//! times only — wall-clock comparisons live in `benches/online.rs`).

use zigzag_api::{Query, Response, SessionConfig, ZigzagService};
use zigzag_bcm::scheduler::RandomScheduler;
use zigzag_bcm::{ProcessId, RunCursor, Time};
use zigzag_coord::{CoordKind, OptimalStrategy, Scenario, TimedCoordination};
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::knowledge::KnowledgeEngine;

use super::Profile;
use crate::harness::{CellOutput, Experiment, Section};
use crate::{format_header, format_row, kicked_run, scaled_context};

const O1_WIDTHS: [usize; 5] = [3, 8, 7, 10, 10];

/// One O1 row: stream a random-topology schedule into a facade session
/// and check the dispatched matrix at every appended node against a
/// scratch batch engine.
fn o1_row(n: usize, seed: u64, horizon: u64) -> CellOutput {
    let ctx = scaled_context(n, 0.3, seed);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, horizon, seed);
    let mut cursor = RunCursor::new(&run);
    let service = ZigzagService::new();
    let session = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let mut events = 0usize;
    let mut cells = 0usize;
    while let Some(ev) = cursor.next_event() {
        let node = service.append(session, &ev).expect("legal feed").node;
        let Response::MaxXMatrix(online) = service
            .dispatch(session, &Query::MaxXMatrix { sigma: node })
            .expect("observer exists")
        else {
            unreachable!("matrix queries return matrices");
        };
        let batch = service
            .with_run(session, |prefix| {
                KnowledgeEngine::new(prefix, node)
                    .expect("observer exists")
                    .max_x_basic_matrix()
                    .expect("legal prefix")
            })
            .expect("open session");
        assert_eq!(online, batch, "streaming matrix diverged at {node}");
        events += 1;
        cells += online.len() * online.len();
    }
    assert!(
        service
            .with_run(session, |grown| grown == &run)
            .expect("open session"),
        "grown run is not the recorded run"
    );
    CellOutput::with_metrics(
        format_row(
            &O1_WIDTHS,
            &[
                n.to_string(),
                format!("s{seed}"),
                events.to_string(),
                cells.to_string(),
                "identical".into(),
            ],
        ),
        vec![events as i64, cells as i64],
    )
}

const O2_WIDTHS: [usize; 5] = [4, 6, 12, 12, 9];

/// One O2 row: batch protocol decision vs streaming first-knowledge,
/// replayed through a spec-configured facade session.
fn o2_row(x: i64, seed: u64) -> CellOutput {
    let (ctx, c, a, b) = crate::fig1_context(2, 5, 9, 12);
    let spec = TimedCoordination::new(CoordKind::Late { x }, a, b, c);
    let sc = Scenario::new(spec.clone(), ctx, Time::new(3), Time::new(80)).unwrap();
    let (run, verdict) = sc
        .run_verified(&mut OptimalStrategy, &mut RandomScheduler::seeded(seed))
        .expect("legal scenario");
    let service = ZigzagService::new();
    let (session, reports) = service
        .open_replay(&run, SessionConfig::new().spec(spec))
        .expect("legal replay");
    let Response::CoordDecision(coord) = service
        .dispatch(session, &Query::CoordDecision)
        .expect("spec configured")
    else {
        unreachable!("coordination queries return coordination reports");
    };
    assert_eq!(
        coord.first_known, verdict.b_node,
        "x={x} seed {seed}: online decision diverged from the batch protocol"
    );
    let show = |t: Option<Time>| t.map_or("abstains".to_string(), |t| t.to_string());
    CellOutput::with_metrics(
        format_row(
            &O2_WIDTHS,
            &[
                x.to_string(),
                format!("s{seed}"),
                show(coord.first_known.and_then(|n| run.time(n))),
                show(verdict.b_time),
                "agree".into(),
            ],
        ),
        vec![reports.len() as i64],
    )
}

const O3_WIDTHS: [usize; 4] = [3, 8, 7, 10];

/// One O3 row: caught-up GB tight bounds (dispatched through the
/// facade) vs scratch rebuilds.
fn o3_row(n: usize, seed: u64, horizon: u64) -> CellOutput {
    let ctx = scaled_context(n, 0.4, seed + 100);
    let run = kicked_run(&ctx, ProcessId::new(0), 1, horizon, seed);
    let mut cursor = RunCursor::new(&run);
    let service = ZigzagService::new();
    let session = service.open_stream(run.context_arc(), run.horizon(), SessionConfig::new());
    let anchor = zigzag_bcm::NodeId::new(ProcessId::new(0), 1);
    let mut checks = 0usize;
    while let Some(ev) = cursor.next_event() {
        let node = service.append(session, &ev).expect("legal feed").node;
        let (recorded, want) = service
            .with_run(session, |prefix| {
                let recorded = prefix.appears(anchor);
                let want = recorded.then(|| {
                    BoundsGraph::of_run(prefix)
                        .longest_path(anchor, node)
                        .expect("anchor recorded")
                        .map(|(w, _)| w)
                });
                (recorded, want)
            })
            .expect("open session");
        if !recorded {
            continue;
        }
        // The cached source stays warm, so each append catches up.
        let Response::TightBound(got) = service
            .dispatch(
                session,
                &Query::TightBound {
                    from: anchor,
                    to: node,
                },
            )
            .expect("anchor recorded")
        else {
            unreachable!("tight-bound queries return tight bounds");
        };
        assert_eq!(Some(got), want, "delta GB bound diverged at {node}");
        checks += 1;
    }
    CellOutput::with_metrics(
        format_row(
            &O3_WIDTHS,
            &[
                n.to_string(),
                format!("s{seed}"),
                checks.to_string(),
                "identical".into(),
            ],
        ),
        vec![checks as i64],
    )
}

/// Builds the online experiment family.
pub fn experiment(p: Profile) -> Experiment {
    let o1_cases: Vec<(usize, u64, u64)> = p.pick(
        vec![(4, 0, 24), (4, 1, 24), (6, 0, 26), (6, 2, 26), (9, 1, 24)],
        vec![(4, 0, 16), (5, 1, 14)],
    );
    let mut o1 = Section::new(format!(
        "O — the incremental streaming engine online\n\n\
         O1 — prefix-differential equality (matrix at every appended node):\n{}",
        format_header(&O1_WIDTHS, &["n", "seed", "events", "cells", "verdict"]),
    ));
    for (n, seed, horizon) in o1_cases {
        o1 = o1.cell(move || o1_row(n, seed, horizon));
    }
    let o1 = o1.footer(|cells| {
        let events: i64 = cells.iter().map(|c| c.metrics[0]).sum();
        let checked: i64 = cells.iter().map(|c| c.metrics[1]).sum();
        format!("all {events} appends matched the batch engine ({checked} cells)\n\n")
    });

    let o2_cases: Vec<(i64, u64)> = p.pick(
        vec![(4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (0, 3)],
        vec![(4, 0), (5, 0)],
    );
    let mut o2 = Section::new(format!(
        "O2 — online coordination (streaming first-knowledge vs batch Protocol 2):\n{}",
        format_header(
            &O2_WIDTHS,
            &["x", "seed", "t(online)", "t(batch)", "verdict"]
        ),
    ));
    for (x, seed) in o2_cases {
        o2 = o2.cell(move || o2_row(x, seed));
    }
    let o2 = o2.footer(|_| "\n".into());

    let o3_cases: Vec<(usize, u64, u64)> =
        p.pick(vec![(5, 0, 26), (7, 1, 24), (10, 2, 22)], vec![(4, 0, 16)]);
    let mut o3 = Section::new(format!(
        "O3 — delta-relaxed GB(r) tight bounds vs scratch rebuilds:\n{}",
        format_header(&O3_WIDTHS, &["n", "seed", "checks", "verdict"]),
    ));
    for (n, seed, horizon) in o3_cases {
        o3 = o3.cell(move || o3_row(n, seed, horizon));
    }
    let o3 = o3.footer(|_| {
        "\nEvery append delta-updates the stream's analyses in place; every\n\
         answer is byte-identical to a batch rebuild of the same prefix.\n"
            .into()
    });

    Experiment::new("online")
        .section(o1)
        .section(o2)
        .section(o3)
}
