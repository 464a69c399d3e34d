//! The two streaming workloads: `measure::run_fleet_stream` on a
//! token-bucket cloud, and `measure::run_fleet_stream_journaled` plus
//! a mid-campaign resume on a per-core-QoS cloud behind a star.

use crate::layers::Layers;
use crate::procfs::IoSnapshot;
use crate::report::{median, spread_text, Outcome};
use crate::tenant::{self, Placement, TenantRecord, CHUNK_PANES};
use crate::{end_to_end, secs, Ctx, SetupTimes, Tally, DEFAULT_SEED};
use clouds::CloudProfile;
use journal::Journal;
use measure::campaign::run_campaign_capped;
use measure::stream::PANE_TENANTS;
use measure::{MeasureError, StreamSpec, StreamSummary};
use netsim::faults::{FaultInjector, FaultSchedule};
use netsim::rng::derive_seed;
use netsim::shaper::{MinShaper, Shaper, StaticShaper};
use netsim::tcp::{StreamConfig, StreamResult, StreamSim};
use netsim::{NicModel, TrafficPattern};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use topo::Wiring;
use vstats::sketch::{Coverage, Sketch, SketchConfig};

/// A streaming workload's fixed shape. The seed is the only input that
/// varies between runs.
pub struct Shape {
    profile: fn() -> CloudProfile,
    duration_s: f64,
    tenants: u64,
    /// Zoo topology name and host count, if tenants are placed.
    topology: Option<(&'static str, usize)>,
    /// Checkpoint cadence in tenants, if the campaign is journaled.
    journal_every: Option<u64>,
    /// The campaign fingerprint at the default seed.
    golden_fingerprint: u64,
}

/// Token bucket drains and stays pinned: the per-tick kernel dominates.
pub const EC2_TB: Shape = Shape {
    profile: clouds::ec2::c5_xlarge,
    duration_s: 3600.0,
    tenants: 10_000,
    topology: None,
    journal_every: None,
    golden_fingerprint: 0x48a3_41b3_bb51_1cfd,
};

/// Journal writes then reads, and the capped path behind a star.
pub const HPC8_JOURNAL: Shape = Shape {
    profile: hpc8,
    duration_s: 180.0,
    tenants: 50_000,
    topology: Some(("star", 16)),
    journal_every: Some(256),
    golden_fingerprint: 0x20bc_9ba8_da8e_ff38,
};

fn hpc8() -> CloudProfile {
    clouds::hpccloud::n_core(8)
}

/// Resumes per journaled pass, each from its own copy of the
/// mid-campaign journal: more samples of the shortest timed call.
const RESUMES: usize = 2;

/// Tenants in the kernel-only side pass of a traced run.
const SIDE_SAMPLE: u64 = 1024;

/// Inputs built before the timed call.
struct Inputs {
    spec: StreamSpec,
    placement: Option<Placement>,
    /// A fresh journal directory (journaled workloads only).
    jdir: Option<PathBuf>,
    wiring_new_s: f64,
}

impl Drop for Inputs {
    /// Remove the pass's journals as soon as the pass is done, so their
    /// dirty pages are never written back during a later pass.
    fn drop(&mut self) {
        if let Some(d) = &self.jdir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn setup(shape: &Shape, ctx: &Ctx, tag: &str) -> Result<Inputs, String> {
    let profile = (shape.profile)().with_reference_faults();
    let mut spec = StreamSpec::new(
        profile,
        TrafficPattern::FullSpeed,
        shape.duration_s,
        shape.tenants,
        ctx.seed,
    );
    let mut wiring_new_s = 0.0;
    let placement = match shape.topology {
        None => None,
        Some((name, hosts)) => {
            let topo = topo::zoo::by_name(name, hosts).map_err(|e| e.to_string())?;
            // The same wiring `run_fleet_stream` resolves internally.
            let t = Instant::now();
            let wiring = Wiring::new(
                topo.clone(),
                topo.hosts().len(),
                spec.seed,
                spec.placement_seed,
            )
            .map_err(|e| e.to_string())?;
            wiring_new_s = secs(t);
            let caps = topo.directed_caps();
            spec.topology = Some(topo);
            Some(Placement { wiring, caps })
        }
    };
    let jdir = match shape.journal_every {
        None => None,
        Some(every) => {
            spec.checkpoint_every = every;
            Some(ctx.dir(tag)?)
        }
    };
    Ok(Inputs {
        spec,
        placement,
        jdir,
        wiring_new_s,
    })
}

/// Before a journaled pass, wait until the kernel has written back all
/// dirty pages, so the gigabyte or so of journal rewrites one pass
/// leaves in flight does not slow the next pass down.
fn settle_disk(shape: &Shape) {
    if shape.journal_every.is_none() {
        return;
    }
    #[cfg(unix)]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: sync(2) takes no arguments, reads and writes no memory
        // of this process, and cannot fail.
        unsafe { sync() };
    }
}

/// One untraced pass and what its checks found.
struct Pass {
    wall_s: f64,
    /// Seconds to finish after restarting at mid-campaign: each resume
    /// call where the campaign is journaled, else the full re-run.
    resume_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    summary: Option<StreamSummary>,
    /// Everything the output checks found wrong.
    problems: Vec<String>,
}

fn err_text(r: &std::thread::Result<Result<impl Sized, MeasureError>>) -> Option<String> {
    match r {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(format!("campaign failed: {e}")),
        Err(_) => Some("campaign panicked".into()),
    }
}

fn check_summary(shape: &Shape, spec: &StreamSpec, s: &StreamSummary, problems: &mut Vec<String>) {
    let outcomes = s.alive + s.partial + s.dead + s.panicked;
    if s.tenants_done != spec.tenants || outcomes != spec.tenants {
        problems.push(format!(
            "tenant outcomes do not add up: {outcomes} folded, {} done, {} requested",
            s.tenants_done, spec.tenants
        ));
    }
    if spec.seed == DEFAULT_SEED && s.fingerprint != shape.golden_fingerprint {
        problems.push(format!(
            "fingerprint {:#018x} != golden {:#018x}",
            s.fingerprint, shape.golden_fingerprint
        ));
    }
}

fn untraced_pass(shape: &Shape, inp: &Inputs, jobs: usize) -> Pass {
    let spec = &inp.spec;
    let mut problems = Vec::new();
    let Some(jdir) = &inp.jdir else {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| measure::run_fleet_stream(spec, jobs)));
        let wall_s = secs(t);
        let summary = match r {
            Ok(Ok(s)) => Some(s),
            other => {
                problems.extend(err_text(&other));
                None
            }
        };
        let failed = summary.as_ref().map_or(spec.tenants, |s| s.panicked);
        if let Some(s) = &summary {
            check_summary(shape, spec, s, &mut problems);
        }
        return Pass {
            wall_s,
            resume_s: vec![wall_s],
            attempted: spec.tenants,
            failed,
            summary,
            problems,
        };
    };

    // The uninterrupted journaled run, copying the journal aside at the
    // first checkpoint past mid-campaign (copy time is not counted).
    let full = jdir.join("full.jnl");
    let mids: Vec<PathBuf> = (0..RESUMES)
        .map(|k| jdir.join(format!("mid-{k}.jnl")))
        .collect();
    let half = spec.tenants / 2;
    let (mut copy_s, mut mid_done, mut copy_err) = (0.0, None, None);
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        measure::run_fleet_stream_journaled(spec, &full, false, jobs, |done| {
            if mid_done.is_none() && done >= half && done < spec.tenants {
                let c = Instant::now();
                for mid in &mids {
                    if let Err(e) = std::fs::copy(&full, mid) {
                        copy_err = Some(e.to_string());
                    }
                }
                copy_s = secs(c);
                mid_done = Some(done);
            }
        })
    }));
    let wall_s = secs(t) - copy_s;
    problems.extend(err_text(&r));
    problems.extend(copy_err);
    let run = match r {
        Ok(Ok(j)) => Some(j),
        _ => None,
    };
    let mut failed = run.as_ref().map_or(spec.tenants, |j| j.summary.panicked);
    let mut attempted = spec.tenants;
    let mut resume_s = Vec::new();
    match (&run, mid_done) {
        (Some(run), Some(skipped)) => {
            check_summary(shape, spec, &run.summary, &mut problems);
            let expect = run.summary.render(spec);
            for mid in &mids {
                attempted += spec.tenants - skipped;
                let (dt, lost) = resume(spec, jobs, &full, mid, skipped, &expect, &mut problems);
                resume_s.push(dt);
                failed += lost;
            }
        }
        (Some(_), None) => problems.push("no checkpoint landed past mid-campaign".into()),
        _ => {}
    }
    let summary = run.map(|j| j.summary);
    Pass {
        wall_s,
        resume_s,
        attempted,
        failed,
        summary,
        problems,
    }
}

/// Resume from the mid-campaign copy `mid` and check that the report
/// and the final journal match the uninterrupted run's. Returns the
/// resume's wall time and the tenants it lost.
fn resume(
    spec: &StreamSpec,
    jobs: usize,
    full: &Path,
    mid: &Path,
    skipped: u64,
    expect: &str,
    problems: &mut Vec<String>,
) -> (f64, u64) {
    let t = Instant::now();
    let rr = catch_unwind(AssertUnwindSafe(|| {
        measure::run_fleet_stream_journaled(spec, mid, true, jobs, |_| ())
    }));
    let dt = secs(t);
    problems.extend(err_text(&rr));
    let Ok(Ok(res)) = rr else {
        return (dt, spec.tenants - skipped);
    };
    if !(res.resume.resumed && res.resume.verified_pane) || res.resume.tenants_skipped != skipped {
        problems.push(format!(
            "resume did not restart at {skipped}: {:?}",
            res.resume
        ));
    }
    if res.summary.render(spec) != expect {
        problems.push("resumed report differs from the uninterrupted one".into());
    }
    match (std::fs::read(full), std::fs::read(mid)) {
        (Ok(a), Ok(b)) if a == b => {}
        (Ok(_), Ok(_)) => {
            problems.push("resumed journal differs from the uninterrupted one".into())
        }
        (a, b) => problems.push(format!("reading journals: {:?} {:?}", a.err(), b.err())),
    }
    (dt, res.summary.panicked)
}

impl Pass {
    fn account(&self, tally: &mut Tally) {
        tally.record(
            self.attempted,
            self.failed,
            &self.problems,
            self.summary.as_ref().map(|s| s.fingerprint),
        );
    }
}

/// One pane re-driven with spans around each layer's public call.
struct PaneTrace {
    records: Vec<TenantRecord>,
    alive: u64,
    partial: u64,
    dead: u64,
    fatal: bool,
    mean_bps: Sketch,
    within_cov: Sketch,
    coverage: Coverage,
    route_s: f64,
    campaign_s: f64,
    fold_s: f64,
}

fn trace_pane(inp: &Inputs, pane: u64) -> PaneTrace {
    let spec = &inp.spec;
    let start = pane * PANE_TENANTS;
    let end = (start + PANE_TENANTS).min(spec.tenants);
    let mut p = PaneTrace {
        records: Vec::with_capacity((end - start) as usize),
        alive: 0,
        partial: 0,
        dead: 0,
        fatal: false,
        mean_bps: Sketch::new(SketchConfig::bandwidth_bps()),
        within_cov: Sketch::new(SketchConfig::ratio()),
        coverage: Coverage::default(),
        route_s: 0.0,
        campaign_s: 0.0,
        fold_s: 0.0,
    };
    // Placement glue is private to `measure::stream`: this span covers the
    // placer draws and minimum-capacity scan around `Wiring::route_for`.
    let t = Instant::now();
    let caps: Vec<Option<f64>> = (start..end)
        .map(|i| {
            inp.placement
                .as_ref()
                .and_then(|pl| tenant::path_cap(pl, derive_seed(spec.seed, i), i))
        })
        .collect();
    if inp.placement.is_some() {
        p.route_s = secs(t);
    }
    for (i, cap) in (start..end).zip(caps) {
        let pair_seed = derive_seed(spec.seed, i);
        let death = tenant::death_s(&spec.profile, pair_seed);
        let alive = death >= spec.duration_s;
        let run_s = if alive { spec.duration_s } else { death };
        let t = Instant::now();
        let r = run_campaign_capped(&spec.profile, spec.pattern, run_s, pair_seed, cap);
        p.campaign_s += secs(t);
        let rec = match r {
            Ok(r) => {
                let (tag, expected, gaps, death_s) = if alive {
                    p.alive += 1;
                    (
                        0,
                        r.gap_summary.expected_n as u64,
                        r.gaps.len() as u64,
                        f64::INFINITY,
                    )
                } else {
                    // `measure` re-annotates a dead pair's coverage
                    // against the requested duration, with one more gap.
                    p.partial += 1;
                    let lost = tenant::expected_intervals(
                        spec.pattern,
                        death,
                        spec.duration_s,
                        r.trace.interval,
                    );
                    (
                        1,
                        r.gap_summary.expected_n as u64 + lost,
                        r.gaps.len() as u64 + 1,
                        death,
                    )
                };
                TenantRecord {
                    tag,
                    tenant: i,
                    mean: r.summary.mean,
                    cov: r.summary.cov,
                    min: r.summary.min,
                    max: r.summary.max,
                    expected,
                    observed: r.gap_summary.observed_n as u64,
                    gaps,
                    retrans: r.total_retransmissions,
                    total_bits: r.total_bits,
                    death_s,
                }
            }
            Err(MeasureError::EmptyTrace) if !alive => {
                p.dead += 1;
                TenantRecord::empty(2, i, 0, death)
            }
            Err(_) => {
                p.fatal = true;
                break;
            }
        };
        p.records.push(rec);
    }
    let t = Instant::now();
    for r in p.records.iter().filter(|r| r.tag < 2) {
        p.mean_bps.push(r.mean);
        p.within_cov.push(r.cov);
        p.coverage.add(r.expected, r.observed, r.gaps);
    }
    p.fold_s = secs(t);
    p
}

/// Re-drive every tenant in `measure::stream`'s pane and wave order, with the
/// same worker count, timing each layer. Returns the layer values and
/// the traced wall time.
fn traced_pass(inp: &Inputs, jobs: usize, expect: &StreamSummary) -> Result<(Layers, f64), String> {
    let spec = &inp.spec;
    let panes = spec.tenants.div_ceil(PANE_TENANTS);
    let mut mean_bps = Sketch::new(SketchConfig::bandwidth_bps());
    let mut within_cov = Sketch::new(SketchConfig::ratio());
    let mut coverage = Coverage::default();
    let mut fp = tenant::fnv_basis();
    let (mut alive, mut partial, mut dead, mut panicked) = (0u64, 0u64, 0u64, 0u64);
    let (mut route_s, mut campaign_s, mut fold_s) = (0.0, 0.0, 0.0);
    let (mut busy_s, mut stolen, mut pool_wall_s) = (0.0, 0u64, 0.0);
    let t_all = Instant::now();
    let mut pane = 0;
    while pane < panes {
        let wave = (pane..(pane + CHUNK_PANES).min(panes)).collect::<Vec<u64>>();
        let t = Instant::now();
        let (results, pool) =
            exec::par_map_indexed_report(jobs, wave.len(), |k| trace_pane(inp, wave[k]));
        pool_wall_s += secs(t);
        busy_s += pool.busy_total().as_secs_f64();
        stolen += pool.total_stolen();
        for (res, &p) in results.into_iter().zip(&wave) {
            let pane_fp = match res {
                Ok(pt) => {
                    if pt.fatal {
                        return Err(format!("traced pass: a tenant in pane {p} failed"));
                    }
                    route_s += pt.route_s;
                    campaign_s += pt.campaign_s;
                    alive += pt.alive;
                    partial += pt.partial;
                    dead += pt.dead;
                    let t = Instant::now();
                    let merged = mean_bps.merge(&pt.mean_bps) && within_cov.merge(&pt.within_cov);
                    coverage.merge(&pt.coverage);
                    fold_s += pt.fold_s + secs(t);
                    if !merged {
                        return Err("pane sketch configs differ".into());
                    }
                    pt.records
                        .iter()
                        .fold(tenant::fnv_basis(), |h, r| tenant::fnv_fold(h, &r.bytes()))
                }
                Err(_) => {
                    let n = (spec.tenants - p * PANE_TENANTS).min(PANE_TENANTS);
                    panicked += n;
                    tenant::fnv_fold(
                        tenant::fnv_basis(),
                        &TenantRecord::empty(3, p, n, 0.0).bytes(),
                    )
                }
            };
            fp = tenant::fnv_fold(fp, &pane_fp.to_le_bytes());
        }
        pane += CHUNK_PANES;
    }
    let wall_s = secs(t_all);

    let mut encoded = Vec::new();
    mean_bps.encode_into(&mut encoded);
    within_cov.encode_into(&mut encoded);
    let mut want = Vec::new();
    expect.mean_bps.encode_into(&mut want);
    expect.within_cov.encode_into(&mut want);
    let counts = (alive, partial, dead, panicked);
    if fp != expect.fingerprint
        || counts != (expect.alive, expect.partial, expect.dead, expect.panicked)
        || coverage != expect.coverage
        || encoded != want
    {
        return Err(format!(
            "traced pass diverged from the campaign: fingerprint {fp:#018x} vs {:#018x}, \
             outcomes {counts:?}",
            expect.fingerprint
        ));
    }

    let mut l = Layers::default();
    l.set("topo.route_s", route_s);
    l.set("topo.wiring_new_s", inp.wiring_new_s);
    l.set("measure.campaign_s", campaign_s);
    l.set("vstats.sketch_fold_s", fold_s);
    l.set("vstats.sketch_encoded_bytes", encoded.len() as f64);
    l.set("exec.busy_frac", busy_s / (jobs as f64 * pool_wall_s));
    l.set("exec.tasks_stolen", stolen as f64);
    Ok((l, wall_s))
}

fn timed_kernel<S: Shaper>(
    mut shaper: S,
    nic: &mut NicModel,
    cfg: &StreamConfig,
) -> (f64, StreamResult) {
    let t = Instant::now();
    let res = StreamSim::run(&mut shaper, nic, cfg);
    (secs(t), res)
}

/// Kernel-only side pass over every `tenants / SIDE_SAMPLE`-th tenant:
/// VM set-up and `StreamSim::run` alone, then the whole campaign call
/// for the same tenant, so the campaign time outside the kernel can be
/// apportioned. The two alternate which runs first, so neither always
/// finds the caches warm. Serial, and outside the traced pass whose
/// overhead is reported, so no tenant is simulated twice there.
fn side_pass(inp: &Inputs, l: &mut Layers) -> Result<(), String> {
    let spec = &inp.spec;
    let profile = &spec.profile;
    let stride = (spec.tenants / SIDE_SAMPLE).max(1);
    // Per sampled tenant: VM set-up seconds, kernel ns per step, and
    // the share of its campaign call spent outside both. Medians keep
    // a preempted tenant from skewing the layer split.
    let (mut inst, mut ns_per_step, mut other) = (Vec::new(), Vec::new(), Vec::new());
    let mut total_steps = 0u64;
    for i in 0..spec.tenants {
        let pair_seed = derive_seed(spec.seed, i);
        let run_s = tenant::death_s(profile, pair_seed).min(spec.duration_s);
        total_steps += tenant::kernel_steps(run_s);
        if i % stride != 0 {
            continue;
        }
        let cap = inp
            .placement
            .as_ref()
            .and_then(|pl| tenant::path_cap(pl, pair_seed, i));
        let campaign = || {
            let t = Instant::now();
            let r = run_campaign_capped(profile, spec.pattern, run_s, pair_seed, cap);
            (secs(t), r)
        };
        let early = (inst.len() % 2 == 1).then(campaign);
        let t = Instant::now();
        let mut vm = profile.instantiate(pair_seed);
        let inst_s = secs(t);
        let cfg = StreamConfig::new(run_s, spec.pattern);
        // Every stream shape runs with reference faults, so the kernel
        // always sees the fault injector `run_campaign_capped` wraps.
        let schedule = FaultSchedule::generate(
            &profile.faults,
            1,
            run_s,
            derive_seed(pair_seed, tenant::LABEL_FAULT_TIMELINE),
        );
        let (dt, res) = match cap {
            None => timed_kernel(
                FaultInjector::new(vm.shaper, 0, schedule),
                &mut vm.nic,
                &cfg,
            ),
            Some(c) => timed_kernel(
                FaultInjector::new(MinShaper::new(vm.shaper, StaticShaper::new(c)), 0, schedule),
                &mut vm.nic,
                &cfg,
            ),
        };
        let (campaign_s, r) = early.unwrap_or_else(campaign);
        inst.push(inst_s);
        ns_per_step.push(dt * 1e9 / tenant::kernel_steps(run_s).max(1) as f64);
        other.push((campaign_s - inst_s - dt) / campaign_s);
        // Censoring only removes samples: the campaign's expected count
        // is the kernel's sample count.
        if let Ok(r) = r {
            if r.gap_summary.expected_n != res.bandwidth.samples.len() {
                return Err(format!(
                    "side pass: tenant {i} kernel trace does not match its campaign"
                ));
            }
        }
    }
    let ns_per_step = median(&ns_per_step);
    l.set("netsim.stream_steps", total_steps as f64);
    l.set("netsim.stream_ns_per_step", ns_per_step);
    l.set(
        "netsim.stream_run_s",
        ns_per_step * total_steps as f64 / 1e9,
    );
    l.set("clouds.instantiate_s", median(&inst) * spec.tenants as f64);
    l.set("measure.campaign_other_frac", median(&other));
    Ok(())
}

/// Reopen the journal the run wrote, then re-append its exact records
/// into a fresh journal: the journal layer's work on this workload.
/// Returns the replay's wall time.
fn journal_replay(jdir: &Path, l: &mut Layers) -> Result<f64, String> {
    let src = jdir.join("full.jnl");
    let dst = jdir.join("replay.jnl");
    let io0 = IoSnapshot::take();
    let t = Instant::now();
    let (j, _) = Journal::open_unchecked(&src).map_err(|e| e.to_string())?;
    let open_s = secs(t);
    let io1 = IoSnapshot::take();
    let records = j.records().to_vec();
    let t = Instant::now();
    let mut out = Journal::create(&dst, j.config_fingerprint()).map_err(|e| e.to_string())?;
    for rec in records {
        out.append(rec).map_err(|e| e.to_string())?;
    }
    let append_s = secs(t);
    let io2 = IoSnapshot::take();
    let replayed = std::fs::read(&dst).map_err(|e| e.to_string())?;
    if replayed != std::fs::read(&src).map_err(|e| e.to_string())? {
        return Err("replayed journal differs from the one the run wrote".into());
    }
    l.set("journal.open_s", open_s);
    let read = io0.zip(io1).and_then(|(a, b)| a.read_until(&b));
    l.set_opt("journal.read_bytes", read.map(|b| b as f64));
    l.set("journal.append_s", append_s);
    l.set("journal.appends", j.len() as f64);
    let written = io1.zip(io2).and_then(|(a, b)| a.written_until(&b));
    l.set_opt("journal.write_bytes", written.map(|b| b as f64));
    l.set("journal.file_bytes", replayed.len() as f64);
    Ok(open_s + append_s)
}

/// One traced iteration: an untraced pass for the baseline wall time
/// and the journal, then the traced re-drive, journal replay and side
/// pass. A failed check yields no layer values.
fn traced_iteration(
    shape: &Shape,
    ctx: &Ctx,
    i: usize,
    tally: &mut Tally,
) -> Result<Layers, String> {
    settle_disk(shape);
    let inp = setup(shape, ctx, &format!("iter-{i}"))?;
    let pass = untraced_pass(shape, &inp, ctx.jobs);
    pass.account(tally);
    let Some(summary) = &pass.summary else {
        return Ok(Layers::default());
    };
    let traced = traced_pass(&inp, ctx.jobs, summary).and_then(|(mut l, mut traced_s)| {
        if let Some(jdir) = &inp.jdir {
            traced_s += journal_replay(jdir, &mut l)?;
        }
        l.set("trace.overhead_frac", traced_s / pass.wall_s - 1.0);
        side_pass(&inp, &mut l)?;
        Ok(l)
    });
    Ok(traced.unwrap_or_else(|e| {
        tally.problem(e);
        Layers::default()
    }))
}

pub fn run(shape: &Shape, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let metrics = if trace {
        let iters = ctx.repeat(|i| traced_iteration(shape, ctx, i, &mut tally))?;
        Layers::summarize(&iters)?
    } else {
        let mut setups = SetupTimes::default();
        let passes = ctx.repeat(|i| {
            settle_disk(shape);
            setups.sample(|k| setup(shape, ctx, &format!("setup-{k}")))?;
            let inp = setup(shape, ctx, &format!("iter-{i}"))?;
            Ok(untraced_pass(shape, &inp, ctx.jobs))
        })?;
        passes.iter().for_each(|p| p.account(&mut tally));
        let ops_per_s: Vec<f64> = passes
            .iter()
            .map(|p| shape.tenants as f64 / p.wall_s)
            .collect();
        let resume: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.resume_s.iter().copied())
            .collect();
        eprintln!(
            "perfbench: ops/s {}, resume s {}",
            spread_text(&ops_per_s),
            spread_text(&resume)
        );
        eprintln!("perfbench: passes {ops_per_s:?} {resume:?}");
        end_to_end(median(&ops_per_s), median(&resume), setups.median(), &tally)
    };
    Ok(tally.finish(metrics))
}
