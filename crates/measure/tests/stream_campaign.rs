//! End-to-end golden pins of the streaming campaign.
//!
//! The `cloud-repro campaign --tenants N` pipeline simulates tenants
//! with `netsim::tcp::StreamSim` and never builds a `netsim::Fabric`, so
//! its bytes do not depend on the fabric stepping engine. What they do
//! depend on — the pair simulation on both the capped (topology) and
//! the uncapped (flat) arm, the pane fold, the fingerprint chain — is
//! pinned here by golden fingerprints, together with worker-count
//! invariance. The pins are identical in debug and release builds.

use measure::stream::{run_fleet_stream, StreamSpec};
use netsim::TrafficPattern;

fn spec(star: bool) -> StreamSpec {
    let mut spec = StreamSpec::new(
        clouds::hpccloud::n_core(8).with_reference_faults(),
        TrafficPattern::FullSpeed,
        90.0,
        400,
        0xfeed_f00d,
    );
    if star {
        spec.topology = Some(topo::zoo::star(16).expect("star"));
    }
    spec
}

/// Runs `spec` on two workers and on one, checks the reports are
/// byte-identical, and returns the fingerprint.
fn fingerprint_at_jobs_1_and_2(spec: &StreamSpec) -> u64 {
    let parallel = run_fleet_stream(spec, 2).expect("jobs=2");
    assert_eq!(parallel.tenants_done, 400);
    let serial = run_fleet_stream(spec, 1).expect("jobs=1");
    assert_eq!(serial.render(spec), parallel.render(spec));
    assert_eq!(serial.fingerprint, parallel.fingerprint);
    parallel.fingerprint
}

#[test]
fn capped_star_campaign_matches_its_golden_fingerprint() {
    let fp = fingerprint_at_jobs_1_and_2(&spec(true));
    assert_eq!(fp, 0x3b96_c37f_0878_8e44, "got {fp:#018x}");
}

#[test]
fn uncapped_flat_campaign_matches_its_golden_fingerprint() {
    let fp = fingerprint_at_jobs_1_and_2(&spec(false));
    assert_eq!(fp, 0x8467_52ac_a7bc_b099, "got {fp:#018x}");
}
