//! Registry-wide check of the lattice equivalence classes: for every
//! registered program and every `(model, config)` point, the report
//! `Study::evaluate` answers, from its own walk or from an equivalent
//! point's, is `Debug`-identical to a direct `lp_runtime::evaluate`.

use loopapalooza::Study;
use lp_obs::Counter;
use lp_runtime::{evaluate, lattice_point, Config, ExecModel, LatticeClasses};
use lp_suite::Scale;
use std::collections::HashSet;

#[test]
fn study_answers_match_direct_evaluation_at_every_point_of_every_program() {
    let points: Vec<(ExecModel, Config)> = ExecModel::all()
        .into_iter()
        .flat_map(|m| Config::lattice().into_iter().map(move |c| (m, c)))
        .collect();
    let counters = lp_obs::counters();
    let (mut walks, mut shared) = (0, 0);
    for bench in lp_suite::registry() {
        let module = bench.build(Scale::Test);
        let study = Study::of(&module).expect("registered programs study cleanly");
        let direct: Vec<String> = points
            .iter()
            .map(|&(m, c)| format!("{:?}", evaluate(study.profile(), m, c)))
            .collect();
        let classes = LatticeClasses::of(study.profile());
        let reps: HashSet<usize> = points
            .iter()
            .map(|&(m, c)| {
                let (m, c) = classes.representative(m, c);
                lattice_point(m, c)
            })
            .collect();

        let before = (
            counters.get(Counter::EvalsPerformed),
            counters.get(Counter::EvalsShared),
        );
        // The second round finds every class's report already kept.
        for round in 0..2 {
            for (&(m, c), want) in points.iter().zip(&direct) {
                let got = format!("{:?}", study.evaluate(m, c));
                assert_eq!(&got, want, "{} {m} {c} (round {round})", bench.name);
            }
        }
        let performed = counters.get(Counter::EvalsPerformed) - before.0;
        let answered_shared = counters.get(Counter::EvalsShared) - before.1;
        assert_eq!(
            performed,
            reps.len() as u64,
            "{}: one walk per class",
            bench.name
        );
        assert_eq!(performed + answered_shared, 2 * points.len() as u64);
        walks += performed;
        shared += answered_shared;
    }
    // The rules must pay somewhere in the registry.
    assert!(walks < shared, "walks {walks}, shared answers {shared}");
}
