//! The big-data workload: `measure::run_placement_fleet` running
//! terasort on a fat-tree, one fresh placement per repetition. The only
//! workload that steps `netsim::Fabric` and the `bigdata` scheduler.

use crate::layers::Layers;
use crate::report::{median, spread_text, Outcome};
use crate::tenant::{fnv_basis, fnv_fold};
use crate::{end_to_end, secs, Ctx, SetupTimes, Tally, DEFAULT_SEED};
use bigdata::{run_job, Cluster, JobSpec};
use clouds::CloudProfile;
use measure::PlacementFleetResult;
use netsim::fabric::FabricPerf;
use netsim::rng::derive_seed;
use netsim::StepPath;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use topo::{Topology, Wiring};

const NODES: usize = 32;
/// Cores per node, as `cloud-repro run` uses.
const CORES_PER_NODE: u32 = 16;
const REPS: usize = 1000;
const TOPOLOGY: &str = "fattree4";

/// Digest of the duration bits and merged fabric counters at the
/// default seed.
const GOLDEN_DIGEST: u64 = 0x24c6_583d_eeb5_f687;

struct Inputs {
    profile: CloudProfile,
    job: JobSpec,
    topology: Topology,
    /// The wiring `run_placement_fleet` resolves before sharding.
    wiring: Wiring,
    wiring_new_s: f64,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let profile = clouds::ec2::c5_xlarge();
    let job = bigdata::workloads::hibench::terasort();
    let topology = topo::zoo::by_name(TOPOLOGY, NODES).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let wiring = Wiring::new(topology.clone(), NODES, seed, seed).map_err(|e| e.to_string())?;
    let wiring_new_s = secs(t);
    Ok(Inputs {
        profile,
        job,
        topology,
        wiring,
        wiring_new_s,
    })
}

/// Bit-exact digest of a fleet's output: every duration, then every
/// fabric counter.
fn digest(r: &PlacementFleetResult) -> u64 {
    let p = &r.fabric_perf;
    let words = r.durations_s.iter().map(|d| d.to_bits()).chain([
        p.steps,
        p.rate_recomputes,
        p.rate_cache_hits,
        p.empty_steps,
        p.ref_vec_allocs,
        p.event_jumps,
        p.event_steps,
        p.link_recomputes,
        p.link_cache_hits,
    ]);
    words.fold(fnv_basis(), |h, w| fnv_fold(h, &w.to_le_bytes()))
}

struct Pass {
    wall_s: f64,
    result: Option<PlacementFleetResult>,
    problems: Vec<String>,
}

fn untraced_pass(inp: &Inputs, seed: u64) -> Pass {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        measure::run_placement_fleet(
            &inp.profile,
            &inp.job,
            NODES,
            CORES_PER_NODE,
            REPS,
            seed,
            Some(&inp.topology),
            seed,
            StepPath::Event,
        )
    }));
    let wall_s = secs(t);
    let mut problems = Vec::new();
    let result = match r {
        Ok(Ok(res)) => Some(res),
        Ok(Err(e)) => {
            problems.push(format!("placement fleet failed: {e}"));
            None
        }
        Err(_) => {
            problems.push("placement fleet panicked".into());
            None
        }
    };
    if let Some(res) = &result {
        if res.durations_s.len() != REPS
            || !res.durations_s.iter().all(|d| d.is_finite() && *d > 0.0)
        {
            problems.push(format!(
                "{} durations, not {REPS} positive ones",
                res.durations_s.len()
            ));
        }
        let d = digest(res);
        if seed == DEFAULT_SEED && d != GOLDEN_DIGEST {
            problems.push(format!(
                "fleet digest {d:#018x} != golden {GOLDEN_DIGEST:#018x}"
            ));
        }
    }
    Pass {
        wall_s,
        result,
        problems,
    }
}

/// Re-drive every repetition as `run_placement_fleet` does, with spans
/// around cluster set-up, re-placement and the job.
fn traced_pass(
    inp: &Inputs,
    seed: u64,
    jobs: usize,
    expect: &PlacementFleetResult,
) -> Result<(Layers, f64), String> {
    let t = Instant::now();
    let (results, pool) = exec::par_map_indexed_report(jobs, REPS, |rep| {
        let s = derive_seed(seed, rep as u64);
        let t = Instant::now();
        let mut cluster = Cluster::from_profile(&inp.profile, NODES, CORES_PER_NODE, s);
        let setup_s = secs(t);
        cluster.fabric_mut().force_path(StepPath::Event);
        let t = Instant::now();
        let w = inp.wiring.reseat(derive_seed(seed, rep as u64));
        let reseat_s = secs(t);
        cluster.set_wiring(w);
        let t = Instant::now();
        let duration = run_job(&mut cluster, &inp.job, s).duration_s;
        (
            duration,
            cluster.fabric().perf(),
            setup_s,
            reseat_s,
            secs(t),
        )
    });
    let wall_s = secs(t);
    let mut got = PlacementFleetResult {
        durations_s: Vec::with_capacity(REPS),
        fabric_perf: FabricPerf::default(),
    };
    let (mut setup_s, mut reseat_s, mut job_s) = (0.0, 0.0, 0.0);
    for r in results {
        let (d, perf, a, b, c) = r.map_err(|p| format!("traced repetition panicked: {p}"))?;
        got.durations_s.push(d);
        got.fabric_perf.merge(&perf);
        setup_s += a;
        reseat_s += b;
        job_s += c;
    }
    if digest(&got) != digest(expect) {
        return Err("traced pass diverged from the placement fleet".into());
    }
    let p = got.fabric_perf;
    let mut l = Layers::default();
    l.set("topo.wiring_new_s", inp.wiring_new_s);
    l.set("topo.reseat_s", reseat_s);
    l.set("bigdata.cluster_setup_s", setup_s);
    l.set("bigdata.run_job_s", job_s);
    l.set("netsim.fabric.steps", p.steps as f64);
    l.set("netsim.fabric.event_jumps", p.event_jumps as f64);
    l.set("netsim.fabric.event_steps", p.event_steps as f64);
    l.set("netsim.fabric.rate_recomputes", p.rate_recomputes as f64);
    l.set("netsim.fabric.rate_cache_hits", p.rate_cache_hits as f64);
    l.set("netsim.fabric.link_recomputes", p.link_recomputes as f64);
    l.set("netsim.fabric.link_cache_hits", p.link_cache_hits as f64);
    l.set(
        "netsim.fabric.steps_per_jump",
        p.event_steps as f64 / p.event_jumps.max(1) as f64,
    );
    l.set(
        "netsim.fabric.ns_per_step",
        job_s * 1e9 / p.steps.max(1) as f64,
    );
    l.set(
        "exec.busy_frac",
        pool.busy_total().as_secs_f64() / (jobs as f64 * wall_s),
    );
    l.set("exec.tasks_stolen", pool.total_stolen() as f64);
    Ok((l, wall_s))
}

impl Pass {
    fn account(&self, tally: &mut Tally) {
        let failed = if self.result.is_none() {
            REPS as u64
        } else {
            0
        };
        tally.record(
            REPS as u64,
            failed,
            &self.problems,
            self.result.as_ref().map(digest),
        );
    }
}

fn traced_iteration(ctx: &Ctx, tally: &mut Tally) -> Result<Layers, String> {
    let inp = setup(ctx.seed)?;
    let pass = untraced_pass(&inp, ctx.seed);
    pass.account(tally);
    let Some(expect) = &pass.result else {
        return Ok(Layers::default());
    };
    Ok(match traced_pass(&inp, ctx.seed, ctx.jobs, expect) {
        Ok((mut l, traced_s)) => {
            l.set("trace.overhead_frac", traced_s / pass.wall_s - 1.0);
            l
        }
        Err(e) => {
            tally.problem(e);
            Layers::default()
        }
    })
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    // `run_placement_fleet` takes its worker count from the process-wide
    // setting.
    exec::set_global_jobs(Some(ctx.jobs));
    let mut tally = Tally::default();
    let metrics = if trace {
        let iters = ctx.repeat(|_| traced_iteration(ctx, &mut tally))?;
        Layers::summarize(&iters)?
    } else {
        let mut setups = SetupTimes::default();
        let passes = ctx.repeat(|_| {
            setups.sample(|_| setup(ctx.seed))?;
            Ok(untraced_pass(&setup(ctx.seed)?, ctx.seed))
        })?;
        passes.iter().for_each(|p| p.account(&mut tally));
        let ops: Vec<f64> = passes.iter().map(|p| REPS as f64 / p.wall_s).collect();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        eprintln!("perfbench: ops/s {}", spread_text(&ops));
        eprintln!("perfbench: passes {ops:?}");
        end_to_end(median(&ops), median(&walls), setups.median(), &tally)
    };
    Ok(tally.finish(metrics))
}
