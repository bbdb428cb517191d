//! Exact-repeat check: two short runs with one seed must agree on every
//! output digest, on fabric bytes and frames, and on `tenant_mix` sheds.
//! Virtual time is reported, not asserted: the observation-ordered
//! clock is not always exact between runs.

use haocl_perfbench::fixture::Workload;
use haocl_perfbench::repeat_run;

/// Ops per run: every paper kernel twice, a few tenant rounds.
const OPS: usize = 10;

#[test]
fn one_seed_repeats_exactly() {
    let seed = 0x5eed;
    for workload in Workload::ALL {
        let (a, virt_a) = repeat_run(workload, seed, OPS).expect("first run");
        let (b, virt_b) = repeat_run(workload, seed, OPS).expect("second run");
        assert_eq!(a.failed, 0, "{}: failed ops", workload.name());
        assert_eq!(a, b, "{}: runs with one seed differ", workload.name());
        if virt_a != virt_b {
            eprintln!(
                "{}: virtual time differs between runs: {virt_a} ns vs {virt_b} ns",
                workload.name()
            );
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    for workload in Workload::ALL {
        let (a, _) = repeat_run(workload, 1, 2).expect("seed 1");
        let (b, _) = repeat_run(workload, 2, 2).expect("seed 2");
        assert_ne!(
            a.digest,
            b.digest,
            "{}: seed does not reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn tenant_mix_sheds_exactly_the_hogs_excess() {
    // The hog submits 16 per round against a queue of 8.
    let (r, _) = repeat_run(Workload::TenantMix, 7, 3).expect("tenant_mix");
    assert_eq!(r.sheds, 3 * 8);
}
