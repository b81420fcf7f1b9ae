//! The traced run: one campaign re-composed from each layer's public entry
//! points, with a span around every call.
//!
//! It follows `Campaign::run` with one round and one validation in flight
//! (`pair_workers(1)`, `workers(1)`, one pooled clone): the same sweep
//! plan, cut order, clone seeds, clone settings, candidate selection and
//! fault de-duplication. [`Outcome`] holds the campaign's deterministic
//! results; the caller compares them with an untraced `Campaign::run` and
//! rejects the traced run when they differ, because its spans would then
//! time a different program.

use std::collections::BTreeSet;

use dice_concolic::{explore, ExploreConfig, RunStatus};
use dice_core::{
    default_checkers, flips_baseline, run_checkers, take_consistent_snapshot, AttestationRegistry,
    Campaign, CampaignReport, CheckContext, FaultClass, SutCatalog,
};
use dice_netsim::{NodeId, QuietOutcome, SimRng, Simulator, TraceStats};

use crate::spans::Recorder;

/// The deterministic results a traced campaign must share with
/// `Campaign::run` on the same system and configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Concolic executions over all rounds.
    pub executions_total: usize,
    /// Inputs validated over all rounds.
    pub validated_total: usize,
    /// Branch-coverage union over all rounds.
    pub coverage_union: usize,
    /// De-duplicated fault keys.
    pub fault_keys: BTreeSet<(FaultClass, NodeId, String)>,
    /// Node checkpoints re-captured by the live system's cuts.
    pub nodes_recaptured: u64,
    /// Payload bytes sent on validation clones.
    pub wire_bytes: u64,
    /// Frames dropped, duplicated and reordered on validation clones.
    pub frames: [u64; 3],
}

impl Outcome {
    /// The same results, read from an untraced campaign report.
    pub fn of_report(report: &CampaignReport) -> Outcome {
        Outcome {
            executions_total: report.executions_total,
            validated_total: report.validated_total,
            coverage_union: report.coverage_union,
            fault_keys: report.faults.iter().map(|f| f.key()).collect(),
            nodes_recaptured: report.perf.nodes_recaptured,
            wire_bytes: report.perf.wire_bytes,
            frames: [
                report.perf.frames_dropped,
                report.perf.frames_duplicated,
                report.perf.frames_reordered,
            ],
        }
    }
}

/// Work counted at the layer boundaries of one traced campaign. Every
/// field is a pure function of the system and configuration, so two runs
/// of the same code at the same seed must agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Chandy–Lamport cuts taken on the live system.
    pub cuts: u64,
    /// Live-system deliveries plus timer firings while cutting.
    pub live_events: u64,
    /// Node checkpoints re-captured by the cuts.
    pub nodes_recaptured: u64,
    /// Bytes of node state the cuts captured.
    pub delta_bytes: u64,
    /// Validation clones acquired.
    pub clones: u64,
    /// Clones reset in place rather than built fresh.
    pub clones_reset: u64,
    /// Clone deliveries plus timer firings during validation runs.
    pub run_events: u64,
    /// Validation runs that hit the horizon before quiescing.
    pub run_timeouts: u64,
    /// Payload bytes sent on validation clones.
    pub wire_bytes: u64,
    /// Frames dropped by the channel-fidelity layer.
    pub frames_dropped: u64,
    /// Frames duplicated by the channel-fidelity layer.
    pub frames_duplicated: u64,
    /// Frames delivered out of order by the channel-fidelity layer.
    pub frames_reordered: u64,
    /// Concolic executions.
    pub executions: u64,
    /// Executions that covered a new (site, direction) pair.
    pub useful_executions: u64,
    /// Solver calls.
    pub solver_queries: u64,
    /// Solver SAT answers.
    pub solver_sat: u64,
    /// Solver backtracking steps.
    pub solver_steps: u64,
    /// Per-constraint solver-memo hits.
    pub memo_hits: u64,
    /// Verdicts published by the checker battery.
    pub verdicts: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.cuts += o.cuts;
        self.live_events += o.live_events;
        self.nodes_recaptured += o.nodes_recaptured;
        self.delta_bytes += o.delta_bytes;
        self.clones += o.clones;
        self.clones_reset += o.clones_reset;
        self.run_events += o.run_events;
        self.run_timeouts += o.run_timeouts;
        self.wire_bytes += o.wire_bytes;
        self.frames_dropped += o.frames_dropped;
        self.frames_duplicated += o.frames_duplicated;
        self.frames_reordered += o.frames_reordered;
        self.executions += o.executions;
        self.useful_executions += o.useful_executions;
        self.solver_queries += o.solver_queries;
        self.solver_sat += o.solver_sat;
        self.solver_steps += o.solver_steps;
        self.memo_hits += o.memo_hits;
        self.verdicts += o.verdicts;
    }
}

fn events(s: TraceStats) -> u64 {
    s.msgs_delivered + s.timers_fired
}

/// Run `campaign` against `live` layer by layer under `rec`. Round
/// ordinals continue from `*ordinal`, so the spans of several campaigns
/// in one repetition keep distinct trace ids.
pub fn run(
    rec: &mut Recorder,
    live: &mut Simulator,
    campaign: &Campaign,
    registry: &AttestationRegistry,
    ordinal: &mut u64,
) -> Result<(Outcome, Counts), String> {
    let cfg = campaign.config_ref();
    let template = &cfg.template;
    let catalog = SutCatalog::default();
    let checkers = default_checkers(template.oscillation_threshold);
    let topo = live.topology().clone();
    let plan = campaign.sweep_plan();
    if plan.is_empty() {
        return Err("campaign has no eligible (explorer, peer) pairs".into());
    }
    let root = rec.enter("core.campaign", 0);

    live.set_delta_snapshots(template.delta_snapshots);
    let _ = live.take_snapshot_stats();
    let mut schedule = match &template.schedule {
        Some(spec) if !spec.is_empty() => {
            let mut rng = SimRng::seed_from_u64(template.seed).split(0x5C4ED);
            spec.expand(&topo, live.now(), &mut rng)
        }
        _ => dice_netsim::Schedule::default(),
    };

    let mut out = Outcome::default();
    let mut n = Counts::default();
    let mut coverage: BTreeSet<(u32, bool)> = BTreeSet::new();
    // One pooled clone, as a single campaign worker keeps.
    let mut pooled: Option<Simulator> = None;

    for _sweep in 0..cfg.rounds.max(1) {
        schedule.apply_due(live);
        for (explorer, peers) in &plan {
            let before = events(live.trace().stats());
            let (shadow, _) = rec.time("core.snapshot", *ordinal + 1, || {
                take_consistent_snapshot(live, *explorer, template.snapshot_deadline)
            })?;
            n.cuts += 1;
            n.live_events += events(live.trace().stats()) - before;
            let snap = live.take_snapshot_stats();
            n.nodes_recaptured += snap.nodes_recaptured;
            n.delta_bytes += snap.delta_bytes;
            let shadow = shadow.into_shared();
            let baseline = flips_baseline(&catalog, &shadow);

            for peer in peers {
                *ordinal += 1;
                let round = rec.enter("core.round", *ordinal);
                let sut = shadow
                    .nodes()
                    .get(explorer)
                    .and_then(|node| catalog.resolve(node.as_ref()))
                    .ok_or("explorer node is not explorable")?;
                let xplan = rec.time("core.sut.plan", *ordinal, || {
                    sut.exploration_plan(*peer, template.grammar_seeds, template.seed)
                })?;
                let mut program = xplan.program;
                let explore_cfg = ExploreConfig {
                    strategy: template.strategy,
                    max_executions: template.concolic_executions,
                    solver_budget: template.solver_budget,
                    solver_cache: template.solver_cache,
                };
                let exploration = rec.time("concolic.explore", *ordinal, || {
                    explore(&mut *program, &xplan.seeds, &xplan.marker, &explore_cfg)
                });
                let execs = &exploration.executions;
                n.executions += execs.len() as u64;
                n.useful_executions += execs.iter().filter(|e| e.new_coverage > 0).count() as u64;
                n.solver_queries += exploration.solver.queries;
                n.solver_sat += exploration.solver.sat;
                n.solver_steps += exploration.solver.steps;
                n.memo_hits += exploration.solver.unary_memo_hits;
                out.executions_total += execs.len();
                coverage.extend(exploration.coverage.sites());

                // Candidate selection: crashes first, then most new
                // coverage, distinct inputs only, the null input first.
                let mut order: Vec<usize> = (0..execs.len()).collect();
                order.sort_by_key(|&i| {
                    let crash = matches!(execs[i].status, RunStatus::Crash(_));
                    (
                        std::cmp::Reverse(crash as u8),
                        std::cmp::Reverse(execs[i].new_coverage),
                        i,
                    )
                });
                let mut seen: BTreeSet<&[u8]> = BTreeSet::new();
                let mut candidates: Vec<Option<&[u8]>> = vec![None];
                for i in order {
                    if candidates.len() > template.validate_top {
                        break;
                    }
                    if seen.insert(execs[i].input.as_slice()) {
                        candidates.push(Some(execs[i].input.as_slice()));
                    }
                }
                out.validated_total += candidates.len();

                for (i, input) in candidates.into_iter().enumerate() {
                    let validate = rec.enter("core.validate", *ordinal);
                    let clone_seed = template.seed ^ ((i as u64) << 16);
                    let mut clone = rec.time("netsim.acquire", *ordinal, || {
                        let mut clone = match pooled.take() {
                            Some(mut sim) => {
                                sim.reset_from_shadow(&shadow, clone_seed);
                                n.clones_reset += 1;
                                sim
                            }
                            None => Simulator::from_shadow(&shadow, &topo, clone_seed),
                        };
                        clone.set_wire_config(template.wire_pool, template.batch_delivery);
                        clone.set_delta_snapshots(template.delta_snapshots);
                        if let Some(faults) = template.link_faults {
                            clone.set_link_faults(faults);
                        }
                        clone.set_unreliable_links(template.unreliable_links);
                        clone
                    });
                    n.clones += 1;
                    let before = events(clone.trace().stats());
                    let quiet = rec.time("netsim.run", *ordinal, || {
                        if let Some(bytes) = input {
                            clone.deliver_direct(*peer, *explorer, bytes);
                        }
                        clone.run_until_quiet(
                            template.quiet_window,
                            shadow.base_time() + template.horizon,
                        )
                    });
                    n.run_events += events(clone.trace().stats()) - before;
                    n.run_timeouts += u64::from(quiet == QuietOutcome::TimedOut);
                    let report = rec.time("core.check", *ordinal, || {
                        let cx = CheckContext {
                            sim: &clone,
                            catalog: &catalog,
                            registry,
                            baseline_flips: &baseline,
                            quiet,
                            injected: input.is_some(),
                        };
                        run_checkers(&checkers, &cx)
                    });
                    n.verdicts += report.verdicts.len() as u64;
                    out.fault_keys.extend(report.faults.iter().map(|f| f.key()));
                    let wire = clone.take_wire_stats();
                    n.wire_bytes += wire.wire_bytes;
                    n.frames_dropped += wire.frames_dropped;
                    n.frames_duplicated += wire.frames_duplicated;
                    n.frames_reordered += wire.frames_reordered;
                    pooled = Some(clone);
                    rec.exit(validate);
                }
                rec.exit(round);
            }
        }
    }
    rec.exit(root);

    out.coverage_union = coverage.len();
    out.nodes_recaptured = n.nodes_recaptured;
    out.wire_bytes = n.wire_bytes;
    out.frames = [n.frames_dropped, n.frames_duplicated, n.frames_reordered];
    Ok((out, n))
}
