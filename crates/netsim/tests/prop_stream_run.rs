//! Differential suite for the event-stepped tenant kernel.
//!
//! `StreamSim::run` asks its shaper for pinned runs
//! (`Shaper::transmit_run`) instead of one `transmit` per tick. That is
//! an equivalence contract, not an approximation: these properties run
//! randomized shaper setups through `StreamSim::run` and through a
//! test-local copy of the per-tick loop it replaced, and require the
//! bandwidth samples, the RTT samples and the final token budget to be
//! bitwise equal. A second property checks `transmit_run` itself
//! against a loop of `transmit` calls for every overriding shaper.

use netsim::faults::{FaultConfig, FaultInjector, FaultSchedule};
use netsim::nic::{NicConfig, NicModel};
use netsim::rng::SimRng;
use netsim::shaper::{MinShaper, NoiseConfig, NoiseShaper, Shaper, StaticShaper, TokenBucket};
use netsim::tcp::{StreamConfig, StreamResult, StreamSim};
use netsim::trace::{BandwidthTrace, BwSample, RttTrace};
use netsim::TrafficPattern;
use proplite::prelude::*;

/// The per-tick loop `StreamSim::run` used before event stepping: one
/// `transmit` per step and a `%` test for interval edges.
fn reference_run<S: Shaper>(shaper: &mut S, nic: &mut NicModel, cfg: &StreamConfig) -> StreamResult {
    let mut bandwidth = BandwidthTrace::new(cfg.summary_interval_s);
    let mut rtt = RttTrace::default();
    let steps = (cfg.duration_s / cfg.step_s).round() as u64;
    let steps_per_interval = (cfg.summary_interval_s / cfg.step_s).round().max(1.0) as u64;
    let mut interval_bits = 0.0;
    let mut interval_on_time = 0.0;
    let mut interval_idx: u64 = 0;
    let mut last_rate = 0.0;
    for i in 0..steps {
        let t = i as f64 * cfg.step_s;
        let on = cfg.pattern.is_on(t);
        let demand = if on { f64::INFINITY } else { 0.0 };
        let granted = shaper.transmit(t, cfg.step_s, demand);
        if on {
            interval_bits += granted;
            interval_on_time += cfg.step_s;
            last_rate = granted / cfg.step_s;
        }
        if (i + 1) % steps_per_interval == 0 || i + 1 == steps {
            let interval_start = interval_idx as f64 * cfg.summary_interval_s;
            if interval_on_time > 0.0 {
                let avg_rate = interval_bits / interval_on_time;
                let retrans = nic.count_retransmissions(interval_bits, cfg.write_bytes, avg_rate);
                bandwidth.samples.push(BwSample {
                    t: interval_start,
                    bandwidth_bps: avg_rate,
                    bits: interval_bits,
                    retransmissions: retrans,
                });
                for k in 0..cfg.rtt_samples_per_interval {
                    let frac = (k as f64 + 0.5) / cfg.rtt_samples_per_interval as f64;
                    let ts = interval_start + frac * cfg.summary_interval_s;
                    let outcome = nic.send_segment(cfg.write_bytes, last_rate.max(avg_rate * 0.5));
                    rtt.samples.push((ts, outcome.rtt_s()));
                }
            }
            interval_bits = 0.0;
            interval_on_time = 0.0;
            interval_idx += 1;
        }
    }
    StreamResult { bandwidth, rtt }
}

/// A token bucket drawn from `rng`: an idle refill faster than the busy
/// one, an initial budget below capacity (so the cap binds while it
/// refills), and a partly drained budget.
fn token_bucket(rng: &mut SimRng) -> TokenBucket {
    let high = rng.uniform_in(4e9, 10e9);
    let low = rng.uniform_in(0.3e9, 2e9);
    let cap = rng.uniform_in(1e9, 80e9);
    let initial = cap * rng.uniform_in(0.3, 1.0);
    let mut tb =
        TokenBucket::new(initial, cap, high, low, low).with_idle_refill(low * rng.uniform_in(1.0, 4.0));
    if rng.chance(0.5) {
        tb.set_budget_bits(initial * rng.uniform());
    }
    tb
}

/// Stalls, degrades and loss bursts dense enough that most runs cross
/// several episode edges.
fn fault_schedule(horizon_s: f64, seed: u64) -> FaultSchedule {
    let cfg = FaultConfig {
        stall_rate_per_hour: 40.0,
        stall_mean_s: 15.0,
        degrade_rate_per_hour: 30.0,
        degrade_mean_s: 25.0,
        degrade_min_factor: 0.2,
        degrade_max_factor: 0.9,
        loss_rate_per_hour: 20.0,
        loss_mean_s: 10.0,
        loss_frac: 0.4,
        probe_loss_prob: 0.0,
        pair_death_rate_per_hour: 0.0,
    };
    FaultSchedule::generate(&cfg, 1, horizon_s, seed)
}

/// Setup `kind` as a pure function of its inputs, so twins are bitwise
/// identical.
fn make_shaper(kind: usize, seed: u64, horizon_s: f64) -> Box<dyn Shaper + Send> {
    let mut rng = SimRng::new(seed);
    match kind % 7 {
        0 => Box::new(token_bucket(&mut rng)),
        1 => Box::new(StaticShaper::new(rng.uniform_in(1e9, 10e9))),
        2 => Box::new(NoiseShaper::new(NoiseConfig::hpccloud(), seed)),
        3 => Box::new(MinShaper::new(
            token_bucket(&mut rng),
            StaticShaper::new(rng.uniform_in(1e9, 10e9)),
        )),
        4 => Box::new(FaultInjector::new(
            token_bucket(&mut rng),
            0,
            fault_schedule(horizon_s, seed),
        )),
        // A boxed bucket inside the injector: the campaign's own shape.
        5 => {
            let inner: Box<dyn Shaper + Send> = Box::new(token_bucket(&mut rng));
            Box::new(FaultInjector::new(inner, 0, fault_schedule(horizon_s, seed)))
        }
        _ => Box::new(FaultInjector::new(
            NoiseShaper::new(NoiseConfig::hpccloud(), seed),
            0,
            fault_schedule(horizon_s, seed),
        )),
    }
}

const STEPS: [f64; 4] = [0.1, 0.05, 0.25, 0.3];
const INTERVALS: [f64; 4] = [10.0, 1.0, 0.7, 5.0];

fn same_samples(a: &[BwSample], b: &[BwSample]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.t.to_bits() == y.t.to_bits()
                && x.bandwidth_bps.to_bits() == y.bandwidth_bps.to_bits()
                && x.bits.to_bits() == y.bits.to_bits()
                && x.retransmissions == y.retransmissions
        })
}

fn same_rtts(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

prop_cases! {
    #![config(Config::with_cases(96))]

    /// `StreamSim::run` is bitwise the per-tick loop on every setup.
    #[test]
    fn stream_run_matches_the_per_tick_loop(
        kind in 0usize..7,
        seed in 0u64..1_000_000,
        duration_s in 0.0f64..1500.0,
        step in 0usize..4,
        interval in 0usize..4,
        duty in 0u32..4,
    ) {
        let pattern = if duty == 0 {
            TrafficPattern::TEN_THIRTY
        } else {
            TrafficPattern::FullSpeed
        };
        let mut cfg = StreamConfig::new(duration_s, pattern)
            .with_step(STEPS[step])
            .with_rtt_samples((seed % 3) as usize);
        cfg.summary_interval_s = INTERVALS[interval].max(STEPS[step]);
        let mut fast = make_shaper(kind, seed, duration_s);
        let mut slow = make_shaper(kind, seed, duration_s);
        let nic = || NicModel::new(NicConfig::ec2_ena(10e9), seed ^ 0x5eed);
        let (mut nic_fast, mut nic_slow) = (nic(), nic());

        let got = StreamSim::run(&mut fast, &mut nic_fast, &cfg);
        let want = reference_run(&mut slow, &mut nic_slow, &cfg);

        prop_assert!(
            same_samples(&got.bandwidth.samples, &want.bandwidth.samples),
            "bandwidth samples diverged"
        );
        prop_assert!(same_rtts(&got.rtt.samples, &want.rtt.samples), "rtt samples diverged");
        prop_assert_eq!(
            fast.token_budget_bits().map(f64::to_bits),
            slow.token_budget_bits().map(f64::to_bits),
            "final budget diverged"
        );
        // The shapers stay twins after the run, too.
        let t = duration_s;
        let (gf, gs) = (fast.transmit(t, 0.1, f64::INFINITY), slow.transmit(t, 0.1, f64::INFINITY));
        prop_assert_eq!(gf.to_bits(), gs.to_bits(), "next grant diverged");
    }

    /// `transmit_run` makes `k` calls of one grant and leaves the state
    /// `k` plain `transmit` calls would, for finite, infinite and zero
    /// demands alike.
    #[test]
    fn transmit_run_matches_a_transmit_loop(
        kind in 0usize..7,
        seed in 0u64..1_000_000,
        start_s in 0.0f64..600.0,
        max_steps in 1u64..3000,
        demand in 0u32..4,
    ) {
        let dt = 0.1;
        let mut run = make_shaper(kind, seed, 900.0);
        let mut each = make_shaper(kind, seed, 900.0);
        let demand_bits = match demand {
            0 => 0.0,
            1 => f64::INFINITY,
            2 => 0.5e9 * dt,
            _ => 3e9 * dt,
        };
        let (calls, granted) = run.transmit_run(start_s, dt, demand_bits, max_steps);
        prop_assert!((1..=max_steps).contains(&calls), "{calls} calls for max {max_steps}");
        let mut t = start_s;
        for k in 0..calls {
            let g = each.transmit(t, dt, demand_bits);
            prop_assert!(g.to_bits() == granted.to_bits(), "grant {k} of {calls}");
            t += dt;
        }
        prop_assert_eq!(
            run.token_budget_bits().map(f64::to_bits),
            each.token_budget_bits().map(f64::to_bits),
            "budget after {calls} calls"
        );
        for k in 0..20 {
            let (gr, ge) = (run.transmit(t, dt, f64::INFINITY), each.transmit(t, dt, f64::INFINITY));
            prop_assert!(gr.to_bits() == ge.to_bits(), "follow-up grant {k}");
            t += dt;
        }
    }
}
