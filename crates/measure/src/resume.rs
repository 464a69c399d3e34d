//! Crash-safe, resumable fleet campaigns with supervised execution.
//!
//! The paper's campaigns run for days; the ROADMAP's million-tenant
//! campaigns will run for hours of wall-clock even simulated. A process
//! death must not lose completed work, and a wedged or repeatedly dying
//! shard must not hang or starve the rest of the campaign. This module
//! drives a fleet campaign through a [`journal`] write-ahead log and a
//! supervision layer built on [`exec`]'s deterministic budgets:
//!
//! * **Checkpointing** — every settled shard (VM pair) is appended to
//!   the journal before the next shard settles, so a SIGKILL at any
//!   instant loses at most the shard in flight.
//! * **Resume** — `resume: true` re-opens the journal, *verifies* a
//!   deterministic sample of journaled shards bit-for-bit against fresh
//!   recomputation (divergence is a hard [`MeasureError::ResumeDivergence`],
//!   never a silent overwrite), replays the retry accountant from the
//!   journaled supervision prefixes, and computes only the missing
//!   shards. The final report is byte-identical to an uninterrupted
//!   run's — the verify.sh `campaign-kill-resume` gate proves it.
//! * **Supervision** — each shard attempt is charged a deterministic
//!   *simulated-step* deadline up front (sim-time, not wall-clock, so
//!   results stay machine-independent); a shard that cannot afford an
//!   attempt is degraded with a typed [`MeasureError::BudgetExhausted`]
//!   instead of hanging the run, and retries of dead or panicked shards
//!   draw from a campaign-wide [`exec::RetryAccountant`] whose
//!   exhaustion is surfaced in the DEGRADED report.
//!
//! ## Determinism of supervision
//!
//! Retry grants are consulted in **strict shard-index order** — shard
//! `i`'s supervision depends only on the outcomes of shards `< i`, all
//! of which the journal records exactly (retries consumed + starved
//! flag). A resumed run therefore reconstructs the accountant in the
//! same state the interrupted run would have reached, and every
//! downstream decision replays identically. First attempts are still
//! sharded across workers; only the (rare) retries run serially.

use crate::campaign::{assemble_fleet, simulate_pair_seeded, FleetResult, PairSim};
use crate::error::MeasureError;
use crate::wire::{decode_outcome, encode_outcome, ShardOutcome, ShardSim};
use clouds::CloudProfile;
use exec::{RetryAccountant, StepBudget};
use journal::{fingerprint64, Journal, JournalRecord};
use netsim::pattern::TrafficPattern;
use netsim::rng::{derive_seed, SimRng};
use std::collections::BTreeMap;
use std::path::Path;

/// Seed-derivation labels: retry re-incarnations and the verify-sample
/// choice come from decoupled streams, so turning verification on or
/// off never perturbs the campaign itself.
const LABEL_RETRY: u64 = 0x52E7;
const LABEL_VERIFY: u64 = 0x7E81;

/// The fluid-simulation step the stream engine uses (see
/// [`netsim::tcp::StreamConfig`]); step budgets are denominated in it.
const FLUID_STEP_S: f64 = 0.1;

/// How many first attempts are simulated per parallel wave before the
/// driver settles and journals them. Purely a throughput/durability
/// trade-off: results are invariant to it (and to the worker count).
const SHARD_BATCH: usize = 8;

/// Supervision limits for a journaled campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Attempts a single shard may consume (first attempt included).
    /// A shard whose pair dies before producing data — or whose task
    /// panics — is retried under a re-derived seed (a fresh VM-pair
    /// incarnation, as the paper's methodology would re-allocate), up
    /// to this many times.
    pub max_shard_attempts: u32,
    /// Campaign-wide cap on retries across all shards. Exhaustion is
    /// surfaced in the report, not an error: the campaign settles for
    /// what it has, which is the paper's own degraded-data discipline.
    pub retry_budget: u32,
    /// Per-shard deadline in simulated fluid steps, charged once per
    /// attempt before it runs. `0` means "auto": enough for exactly
    /// `max_shard_attempts` full-duration attempts.
    pub shard_step_budget: u64,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy { max_shard_attempts: 3, retry_budget: 8, shard_step_budget: 0 }
    }
}

/// Everything that defines a journaled fleet campaign. Two specs with
/// the same [`config_fingerprint`](FleetSpec::config_fingerprint)
/// produce bit-identical campaigns; the journal header binds a log to
/// one fingerprint so resuming under a changed config fails loudly.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The cloud under measurement.
    pub profile: CloudProfile,
    /// Traffic pattern for every pair.
    pub pattern: TrafficPattern,
    /// Campaign duration per pair, seconds.
    pub duration_s: f64,
    /// Number of VM pairs (shards).
    pub n_pairs: usize,
    /// Campaign seed; per-shard streams derive from it.
    pub seed: u64,
    /// Supervision limits.
    pub supervise: SupervisePolicy,
}

impl FleetSpec {
    /// 64-bit fingerprint of the campaign configuration. Covers every
    /// input that influences results (profile, pattern, duration bits,
    /// pair count, seed, supervision policy) and nothing that does not
    /// (worker count, journal path, verification sample size).
    pub fn config_fingerprint(&self) -> u64 {
        let rendered = format!(
            "{:?}|{}|{:x}|{}|{:x}|{:?}",
            self.profile,
            self.pattern.label(),
            self.duration_s.to_bits(),
            self.n_pairs,
            self.seed,
            self.supervise,
        );
        fingerprint64(rendered.as_bytes())
    }

    /// Simulated steps one full-duration attempt costs.
    fn attempt_steps(&self) -> u64 {
        ((self.duration_s / FLUID_STEP_S).ceil() as u64).max(1)
    }

    /// The per-shard step budget with the `0 = auto` default applied.
    fn shard_budget(&self) -> u64 {
        match self.supervise.shard_step_budget {
            0 => self.attempt_steps() * self.supervise.max_shard_attempts.max(1) as u64,
            explicit => explicit,
        }
    }

    /// Seed for a shard's `attempt`-th try. Attempt 0 is the plain
    /// fleet derivation (`derive_seed(seed, shard)`), so an
    /// unsupervised journaled run is bit-identical to [`run_fleet`];
    /// retries re-derive through [`LABEL_RETRY`] — a fresh incarnation
    /// whose stream never overlaps any other shard's.
    ///
    /// [`run_fleet`]: crate::campaign::run_fleet
    fn attempt_seed(&self, shard: usize, attempt: u32) -> u64 {
        let base = derive_seed(self.seed, shard as u64);
        match attempt {
            0 => base,
            k => derive_seed(base, LABEL_RETRY.wrapping_add(k as u64)),
        }
    }
}

/// What resuming found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeStats {
    /// Whether an existing journal was opened (vs created fresh).
    pub resumed: bool,
    /// Shards taken from the journal instead of recomputed.
    pub skipped: usize,
    /// Shards computed in this run.
    pub computed: usize,
    /// Journaled shards re-verified bit-for-bit.
    pub verified: usize,
    /// Bytes of torn tail the journal discarded on open (a crash mid-
    /// append; the interrupted shard is recomputed).
    pub truncated_bytes: usize,
}

/// How much supervision the campaign consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Retries granted across the whole campaign (journaled runs
    /// replay prior grants, so this is cumulative).
    pub retries_used: u32,
    /// The campaign's total retry budget.
    pub retry_budget: u32,
    /// Some shard wanted another attempt and was refused one (retry
    /// budget or its step budget ran dry). The report must say so: the
    /// sample is not just degraded, it is *capped*.
    pub retry_exhausted: bool,
    /// Shards whose step budget could not afford even one attempt.
    pub budget_denied: Vec<usize>,
}

/// A journaled campaign's complete result.
#[derive(Debug, Clone)]
pub struct JournaledFleet {
    /// The fleet result, assembled from the journal (both fresh and
    /// resumed runs decode the log, so the two are byte-identical by
    /// construction once the records are).
    pub fleet: FleetResult,
    /// The campaign config fingerprint the journal is bound to.
    pub config_fingerprint: u64,
    /// Resume accounting.
    pub resume: ResumeStats,
    /// Supervision accounting.
    pub supervision: SupervisionStats,
}

/// [`run_fleet_journaled_with`] without a progress callback.
pub fn run_fleet_journaled(
    spec: &FleetSpec,
    journal_path: &Path,
    resume: bool,
    verify_sample: usize,
    jobs: usize,
) -> Result<JournaledFleet, MeasureError> {
    run_fleet_journaled_with(spec, journal_path, resume, verify_sample, jobs, |_| {})
}

/// Run (or resume) a crash-safe fleet campaign.
///
/// * `resume: false` requires `journal_path` not to exist (a stale
///   journal must be deleted explicitly, never silently clobbered).
/// * `resume: true` opens an existing journal — failing loudly on a
///   config mismatch — or starts fresh when none exists.
/// * `verify_sample` journaled shards (chosen by a seed-derived stream)
///   are recomputed and compared bit-for-bit before any new work runs.
/// * `on_journaled(n)` fires after each append with the journal's new
///   record count — the CLI's crash-testing hook.
///
/// The returned fleet is assembled by decoding the (now complete)
/// journal, so an interrupted-then-resumed campaign and an
/// uninterrupted one produce byte-identical reports.
pub fn run_fleet_journaled_with(
    spec: &FleetSpec,
    journal_path: &Path,
    resume: bool,
    verify_sample: usize,
    jobs: usize,
    mut on_journaled: impl FnMut(u64),
) -> Result<JournaledFleet, MeasureError> {
    let config_fp = spec.config_fingerprint();
    let (mut jnl, resumed, truncated_bytes) = open_journal(journal_path, config_fp, resume)?;

    // Decode what the journal already holds (last record per shard
    // wins; a record for a shard outside the spec can only appear if
    // the config fingerprint was defeated, so treat it as corruption).
    let mut done: BTreeMap<usize, ShardOutcome> = BTreeMap::new();
    for rec in jnl.records() {
        let shard = rec.shard as usize;
        if shard >= spec.n_pairs {
            return Err(MeasureError::JournalFailed {
                detail: format!("record for shard {shard} outside 0..{}", spec.n_pairs),
            });
        }
        let out = decode_outcome(&rec.payload, &spec.profile, spec.pattern, shard).ok_or_else(
            || MeasureError::JournalFailed {
                detail: format!("record for shard {shard} failed to decode"),
            },
        )?;
        done.insert(shard, out);
    }
    let skipped = done.len();

    // Replay the retry accountant from the journaled supervision
    // prefixes, in shard order — the exact state the interrupted run
    // had after settling these shards.
    let mut accountant = RetryAccountant::new(spec.supervise.retry_budget);
    let mut any_starved = false;
    for out in done.values() {
        accountant.replay(out.retries);
        any_starved |= out.starved;
    }

    // Verify a deterministic sample of journaled shards bit-for-bit
    // before trusting — or extending — the log.
    let verified = verify_resumed_shards(spec, &jnl, &done, verify_sample)?;

    // Compute the missing shards, batching first attempts across
    // workers but settling + journaling strictly in shard order.
    let missing: Vec<usize> = (0..spec.n_pairs).filter(|i| !done.contains_key(i)).collect();
    let computed = missing.len();
    for batch in missing.chunks(SHARD_BATCH) {
        run_batch(spec, batch, jobs, &mut accountant, &mut done, |shard, out| {
            let payload = encode_outcome(out);
            let fingerprint = fingerprint64(&payload);
            let seed = final_attempt_seed(spec, shard, out.retries);
            jnl.append(JournalRecord { shard: shard as u64, seed, fingerprint, payload })?;
            on_journaled(jnl.len() as u64);
            Ok(())
        })?;
    }

    // Assemble the fleet from the now-complete journal.
    let mut outcomes: Vec<Result<PairSim, exec::TaskPanic>> = Vec::with_capacity(spec.n_pairs);
    let mut budget_denied = Vec::new();
    let mut first_denial = None;
    for (shard, out) in &done {
        any_starved |= out.starved;
        match &out.sim {
            ShardSim::Alive(r) => outcomes.push(Ok(PairSim::Alive(r.clone()))),
            ShardSim::Partial(r, f) => outcomes.push(Ok(PairSim::Partial(r.clone(), *f))),
            ShardSim::Dead(f) => outcomes.push(Ok(PairSim::Dead(*f))),
            ShardSim::Panicked(payload) => {
                outcomes.push(Err(exec::TaskPanic { task: *shard, payload: payload.clone() }))
            }
            ShardSim::Denied { needed_steps, remaining_steps } => {
                budget_denied.push(*shard);
                first_denial.get_or_insert(MeasureError::BudgetExhausted {
                    shard: *shard,
                    needed_steps: *needed_steps,
                    remaining_steps: *remaining_steps,
                });
            }
        }
    }
    if outcomes.is_empty() {
        if let Some(denial) = first_denial {
            return Err(denial);
        }
    }
    let fleet = assemble_fleet(outcomes, spec.n_pairs)?;

    Ok(JournaledFleet {
        fleet,
        config_fingerprint: config_fp,
        resume: ResumeStats { resumed, skipped, computed, verified, truncated_bytes },
        supervision: SupervisionStats {
            retries_used: accountant.used(),
            retry_budget: accountant.budget(),
            retry_exhausted: accountant.exhausted() || any_starved,
            budget_denied,
        },
    })
}

/// The seed the journal records for a shard settled after `retries`
/// retries — the seed of the attempt that was accepted.
fn final_attempt_seed(spec: &FleetSpec, shard: usize, retries: u32) -> u64 {
    spec.attempt_seed(shard, retries)
}

/// The one journal-open path of both journaled drivers: with `resume`,
/// open an existing journal (failing loudly on a config mismatch);
/// otherwise, or when none exists, create a fresh one. Returns the
/// journal, whether it was resumed, and the torn-tail bytes it skipped.
pub(crate) fn open_journal(
    path: &Path,
    config_fp: u64,
    resume: bool,
) -> Result<(Journal, bool, usize), MeasureError> {
    if resume && path.exists() {
        let (j, rep) = Journal::open(path, config_fp)?;
        Ok((j, true, rep.truncated_bytes))
    } else {
        Ok((Journal::create(path, config_fp)?, false, 0))
    }
}

/// Recompute `verify_sample` journaled shards and require their encoded
/// bytes to match the journal exactly. The sample is chosen by a
/// dedicated derived stream over the *simulatable* records (panicked
/// and budget-denied shards have nothing to recompute).
fn verify_resumed_shards(
    spec: &FleetSpec,
    jnl: &Journal,
    done: &BTreeMap<usize, ShardOutcome>,
    verify_sample: usize,
) -> Result<usize, MeasureError> {
    let mut candidates: Vec<usize> = done
        .iter()
        .filter(|(_, out)| {
            matches!(out.sim, ShardSim::Alive(_) | ShardSim::Partial(..) | ShardSim::Dead(_))
        })
        .map(|(shard, _)| *shard)
        .collect();
    let k = verify_sample.min(candidates.len());
    if k == 0 {
        return Ok(0);
    }
    let mut rng = SimRng::new(derive_seed(spec.seed, LABEL_VERIFY));
    rng.shuffle(&mut candidates);
    candidates.truncate(k);
    candidates.sort_unstable();
    for shard in candidates {
        let Some(rec) = jnl.lookup(shard as u64) else {
            return Err(MeasureError::JournalFailed {
                detail: format!("shard {shard} vanished from the journal"),
            });
        };
        let Some(out) = done.get(&shard) else {
            return Err(MeasureError::JournalFailed {
                detail: format!("shard {shard} missing from the decoded set"),
            });
        };
        // Re-run the accepted attempt under its journaled seed, with
        // the panic containment the original run had.
        let recomputed = supervised_attempt(spec, shard, rec.seed);
        let recomputed_fp = match recomputed {
            Ok(sim) => {
                let sim = match sim {
                    PairSim::Alive(r) => ShardSim::Alive(r),
                    PairSim::Partial(r, f) => ShardSim::Partial(r, f),
                    PairSim::Dead(f) => ShardSim::Dead(f),
                    PairSim::Fatal(e) => return Err(e),
                };
                let bytes =
                    encode_outcome(&ShardOutcome { retries: out.retries, starved: out.starved, sim });
                let fp = fingerprint64(&bytes);
                if bytes == rec.payload && fp == rec.fingerprint {
                    continue;
                }
                fp
            }
            // The journal says this shard simulated cleanly; a panic on
            // recomputation is divergence, not a new outcome.
            Err(_) => 0,
        };
        return Err(MeasureError::ResumeDivergence {
            shard: shard as u64,
            journaled_fp: rec.fingerprint,
            recomputed_fp,
        });
    }
    Ok(k)
}

/// Run one shard attempt with contained panics (a single-task pass
/// through the exec pool reuses its `catch_unwind` machinery).
fn supervised_attempt(
    spec: &FleetSpec,
    shard: usize,
    attempt_seed: u64,
) -> Result<PairSim, exec::TaskPanic> {
    let mut out = exec::try_par_map(1, &[attempt_seed], |&s| {
        simulate_pair_seeded(&spec.profile, spec.pattern, spec.duration_s, s, shard, None)
    });
    match out.pop() {
        Some(res) => res.map_err(|p| exec::TaskPanic { task: shard, payload: p.payload }),
        None => Err(exec::TaskPanic { task: shard, payload: "empty pool result".into() }),
    }
}

/// Simulate a batch of shards: first attempts fan out across workers,
/// then each shard settles (retries, budget accounting) and is
/// journaled **in shard-index order**, so every supervision decision is
/// a pure function of lower-indexed outcomes and the journal's record
/// sequence is worker-count invariant.
fn run_batch(
    spec: &FleetSpec,
    batch: &[usize],
    jobs: usize,
    accountant: &mut RetryAccountant,
    done: &mut BTreeMap<usize, ShardOutcome>,
    mut settle: impl FnMut(usize, &ShardOutcome) -> Result<(), MeasureError>,
) -> Result<(), MeasureError> {
    let attempt_steps = spec.attempt_steps();
    // Charge attempt 0 for each shard; shards that cannot afford it
    // are denied up front and skip simulation entirely.
    let mut budgets: Vec<StepBudget> = Vec::with_capacity(batch.len());
    let mut affordable: Vec<(usize, u64)> = Vec::new();
    for &shard in batch {
        let mut budget = StepBudget::new(spec.shard_budget());
        if budget.try_charge(attempt_steps) {
            affordable.push((shard, spec.attempt_seed(shard, 0)));
        }
        budgets.push(budget);
    }
    let mut first: BTreeMap<usize, Result<PairSim, exec::TaskPanic>> =
        exec::try_par_map(jobs, &affordable, |&(shard, seed)| {
            simulate_pair_seeded(&spec.profile, spec.pattern, spec.duration_s, seed, shard, None)
        })
        .into_iter()
        .zip(&affordable)
        .map(|(res, &(shard, _))| (shard, res))
        .collect();

    for (slot, &shard) in batch.iter().enumerate() {
        let budget = &mut budgets[slot];
        let outcome = match first.remove(&shard) {
            None => ShardOutcome {
                retries: 0,
                starved: false,
                sim: ShardSim::Denied {
                    needed_steps: attempt_steps,
                    remaining_steps: budget.remaining(),
                },
            },
            Some(mut attempt_result) => {
                let mut attempt: u32 = 0;
                let mut starved = false;
                loop {
                    let retriable = match &attempt_result {
                        Ok(PairSim::Fatal(e)) => return Err(e.clone()),
                        Ok(PairSim::Alive(_)) | Ok(PairSim::Partial(..)) => false,
                        Ok(PairSim::Dead(_)) | Err(_) => true,
                    };
                    if !retriable || attempt + 1 >= spec.supervise.max_shard_attempts {
                        break;
                    }
                    if budget.remaining() < attempt_steps || !accountant.try_grant() {
                        starved = true;
                        break;
                    }
                    budget.try_charge(attempt_steps);
                    attempt += 1;
                    attempt_result =
                        supervised_attempt(spec, shard, spec.attempt_seed(shard, attempt));
                }
                let sim = match attempt_result {
                    Ok(PairSim::Alive(r)) => ShardSim::Alive(r),
                    Ok(PairSim::Partial(r, f)) => ShardSim::Partial(r, f),
                    Ok(PairSim::Dead(f)) => ShardSim::Dead(f),
                    Ok(PairSim::Fatal(e)) => return Err(e),
                    Err(p) => ShardSim::Panicked(p.payload),
                };
                ShardOutcome { retries: attempt, starved, sim }
            }
        };
        settle(shard, &outcome)?;
        done.insert(shard, outcome);
    }
    Ok(())
}
