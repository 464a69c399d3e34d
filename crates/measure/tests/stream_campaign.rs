//! End-to-end golden pins of the streaming campaign.
//!
//! The `cloud-repro campaign --tenants N` pipeline simulates tenants
//! with `netsim::tcp::StreamSim` and never builds a `netsim::Fabric`, so
//! its bytes do not depend on the fabric stepping engine. What they do
//! depend on — the pair simulation on both the capped (topology) and
//! the uncapped (flat) arm, the pane fold, the fingerprint chain — is
//! pinned here by golden fingerprints, together with worker-count
//! invariance. The pins are identical in debug and release builds.
//!
//! The hpc-8 pins never leave `StreamSim`'s per-step path (its noise
//! changes the grant every tick); the ec2 pin drains and pins each
//! tenant's token bucket, so it covers the event-stepped runs.

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
    assert_eq!(parallel.tenants_done, spec.tenants);
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

#[test]
fn token_bucket_campaign_matches_its_golden_fingerprint() {
    // One hour per tenant: every c5.xlarge bucket drains within ~10
    // minutes and then stays pinned at its refill rate, with reference
    // stalls, degrades and loss bursts cutting the pinned stretches.
    let spec = StreamSpec::new(
        clouds::ec2::c5_xlarge().with_reference_faults(),
        TrafficPattern::FullSpeed,
        3600.0,
        300,
        0x7b_0c4e7,
    );
    let fp = fingerprint_at_jobs_1_and_2(&spec);
    assert_eq!(fp, 0x1da5_9daf_b8b0_d17d, "got {fp:#018x}");
}
