//! The streaming campaign's per-tenant glue, restated from
//! `measure::stream` and `measure::campaign`, where it is private.
//!
//! The traced run needs it to re-drive the same tenants through public
//! calls. It is checked, not trusted: a traced pass must reproduce the
//! untraced run's campaign fingerprint and sketch bytes exactly, so any
//! drift between this copy and the library fails the run.

use clouds::CloudProfile;
use netsim::pattern::TrafficPattern;
use netsim::rng::{derive_seed, SimRng};
use topo::Wiring;

/// `measure::campaign`'s label for a pair's death draw.
const LABEL_PAIR_DEATH: u64 = 0xD347;
/// `measure::campaign`'s label for a pair's fault timeline.
pub const LABEL_FAULT_TIMELINE: u64 = 0xFA17;
/// `measure::stream`'s label for a tenant's placement stream.
const LABEL_TENANT_PLACE: u64 = 0xF1ACE;
/// `measure::stream`'s panes per parallel wave.
pub const CHUNK_PANES: u64 = 16;
/// `netsim::tcp::StreamConfig`'s default fluid step, seconds.
pub const STEP_S: f64 = 0.1;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a 64 digest over `bytes`.
pub fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn fnv_basis() -> u64 {
    FNV_BASIS
}

/// When the tenant's pair dies, seconds into its campaign (infinite
/// for profiles without pair deaths).
pub fn death_s(profile: &CloudProfile, pair_seed: u64) -> f64 {
    let rate = profile.faults.pair_death_rate_per_hour / 3600.0;
    if rate > 0.0 {
        SimRng::new(derive_seed(pair_seed, LABEL_PAIR_DEATH)).exponential(rate)
    } else {
        f64::INFINITY
    }
}

/// Fluid steps `StreamSim::run` takes for a campaign of `duration_s`.
pub fn kernel_steps(duration_s: f64) -> u64 {
    (duration_s / STEP_S).round() as u64
}

/// The resolved placement: wiring plus directed link capacities.
pub struct Placement {
    pub wiring: Wiring,
    pub caps: Vec<f64>,
}

/// The tenant's path ceiling: two distinct hosts from its placement
/// stream, the ECMP route between them, and the route's smallest link.
pub fn path_cap(p: &Placement, pair_seed: u64, tenant: u64) -> Option<f64> {
    let h = p.wiring.endpoints();
    if h < 2 {
        return None;
    }
    let mut placer = SimRng::new(derive_seed(pair_seed, LABEL_TENANT_PLACE));
    let src = placer.index(h);
    let mut dst = placer.index(h - 1);
    if dst >= src {
        dst += 1;
    }
    let route = p.wiring.route_for(src, dst, tenant);
    let cap = route
        .links()
        .iter()
        .map(|&slot| p.caps.get(slot as usize).copied().unwrap_or(f64::INFINITY))
        .fold(f64::INFINITY, f64::min);
    cap.is_finite().then_some(cap)
}

/// Summary intervals the pattern would have produced in
/// `[from_s, to_s)`: the coverage denominator after a pair's death.
pub fn expected_intervals(pattern: TrafficPattern, from_s: f64, to_s: f64, interval: f64) -> u64 {
    let mut count = 0;
    let mut k = (from_s / interval).ceil() as u64;
    loop {
        let start = k as f64 * interval;
        if start >= to_s {
            break;
        }
        let end = (start + interval).min(to_s);
        let mut t = start;
        while t < end {
            if pattern.is_on(t) {
                count += 1;
                break;
            }
            t += STEP_S;
        }
        k += 1;
    }
    count
}

/// What `measure::stream` folds for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantRecord {
    pub tag: u8,
    pub tenant: u64,
    pub mean: f64,
    pub cov: f64,
    pub min: f64,
    pub max: f64,
    pub expected: u64,
    pub observed: u64,
    pub gaps: u64,
    pub retrans: u64,
    pub total_bits: f64,
    pub death_s: f64,
}

impl TenantRecord {
    /// A record with no data: tag 2 for a dead pair, tag 3 for a pane
    /// whose task panicked (`tenant` is then the pane index and
    /// `expected` its tenant count).
    pub fn empty(tag: u8, tenant: u64, expected: u64, death_s: f64) -> TenantRecord {
        TenantRecord {
            tag,
            tenant,
            mean: 0.0,
            cov: 0.0,
            min: 0.0,
            max: 0.0,
            expected,
            observed: 0,
            gaps: 0,
            retrans: 0,
            total_bits: 0.0,
            death_s,
        }
    }

    /// The digest bytes: tag, then eleven little-endian words.
    pub fn bytes(&self) -> [u8; 89] {
        let mut b = [0u8; 89];
        b[0] = self.tag;
        let fields: [u64; 11] = [
            self.tenant,
            self.mean.to_bits(),
            self.cov.to_bits(),
            self.min.to_bits(),
            self.max.to_bits(),
            self.expected,
            self.observed,
            self.gaps,
            self.retrans,
            self.total_bits.to_bits(),
            self.death_s.to_bits(),
        ];
        for (i, f) in fields.iter().enumerate() {
            b[1 + i * 8..9 + i * 8].copy_from_slice(&f.to_le_bytes());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_fold_from_basis_is_the_journal_fingerprint() {
        let data = b"cloud-repro perfbench";
        assert_eq!(fnv_fold(fnv_basis(), data), journal::fingerprint64(data));
        let (a, b) = data.split_at(7);
        assert_eq!(
            fnv_fold(fnv_fold(fnv_basis(), a), b),
            journal::fingerprint64(data)
        );
    }

    #[test]
    fn kernel_steps_round_like_stream_sim() {
        assert_eq!(kernel_steps(3600.0), 36_000);
        assert_eq!(kernel_steps(180.0), 1800);
        assert_eq!(kernel_steps(0.04), 0);
    }

    #[test]
    fn expected_intervals_after_death() {
        let full = TrafficPattern::FullSpeed;
        // Death at 25 s of 60: intervals starting at 30, 40, 50.
        assert_eq!(expected_intervals(full, 25.0, 60.0, 10.0), 3);
        // Death on a boundary: that interval never started, so it counts.
        assert_eq!(expected_intervals(full, 30.0, 60.0, 10.0), 3);
        assert_eq!(expected_intervals(full, 60.0, 60.0, 10.0), 0);
    }

    #[test]
    fn record_layout_is_fixed() {
        let r = TenantRecord::empty(2, 5, 0, 1.5);
        let b = r.bytes();
        assert_eq!(b[0], 2);
        assert_eq!(u64::from_le_bytes(b[1..9].try_into().unwrap()), 5);
        assert_eq!(
            f64::from_bits(u64::from_le_bytes(b[81..89].try_into().unwrap())),
            1.5
        );
    }
}
