//! The three benchmark workloads, each generated from the `--seed`
//! argument. README.md says why each exists and which layers it loads.
//!
//! The seed generates the *federation*: the live system's simulator seed,
//! which drives its latency sampling and session timing. Topologies are
//! fixed, and every campaign runs at the program's default master seed,
//! the one the repository's experiment binaries use.

use dice_core::{scenarios, AttestationRegistry, Campaign, FaultClass, SutCatalog};
use dice_netsim::{
    InternetParams, LinkFaults, NodeId, ScheduleSpec, SimDuration, SimRng, SimTime, Simulator,
    Topology,
};

/// Which benchmark workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 1 federation: concolic exploration dominates.
    Demo27,
    /// A 1000-node internet-like topology: validation runs, cuts and
    /// clone acquire dominate.
    Internet1k,
    /// Seeded defects of all three fault classes.
    Defects,
}

/// What a campaign's outcome must show to count as correct.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// No fault of any class.
    Healthy,
    /// This class is detected, and every needle appears in some fault's
    /// detail.
    Detects(FaultClass, &'static [&'static str]),
}

/// One campaign of a workload repetition: the converged live system, the
/// campaign constructed against it and what its report must show.
pub struct Prepared {
    /// Short label used in tables and records.
    pub label: &'static str,
    /// The live system the campaign snapshots.
    pub live: Simulator,
    /// The campaign, constructed at the point the scenario requires.
    pub campaign: Campaign,
    /// The attestation registry `Campaign::new` derived, rebuilt for the
    /// traced run (which has no access to the campaign's own copy).
    pub registry: Option<AttestationRegistry>,
    /// Required outcome.
    pub expect: Expect,
}

/// The seeded BGP parser defect on the nemesis federation's router 1.
pub const BGP_NEEDLE: &str = "unknown-attribute length overflow";
/// The seeded gossip defect on the nemesis federation's node 2.
pub const GOSSIP_NEEDLE: &str = "digest count overflow";

/// Nodes of the `internet-1k` topology.
const INTERNET_NODES: usize = 1000;
/// Prefix originators on `internet-1k` (bounded, as in `exp_topo`).
const INTERNET_ORIGINATORS: usize = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Demo27, Workload::Internet1k, Workload::Defects];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Demo27 => "demo27",
            Workload::Internet1k => "internet-1k",
            Workload::Defects => "defects",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed no tuning was done on: a claimed gain must also hold here.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Demo27 => 7027,
            Workload::Internet1k => 7001,
            Workload::Defects => 7003,
        }
    }

    /// Campaign workers on a host with `cores` cores: at most 2. The
    /// `defects` campaigns run one round at a time, so that a first
    /// detection's wall time does not depend on which worker finishes
    /// first.
    pub fn workers(self, cores: usize) -> usize {
        match self {
            Workload::Defects => 1,
            _ => cores.clamp(1, 2),
        }
    }

    /// Build and converge every live system of one repetition and
    /// construct its campaigns. `workers` sets both `pair_workers` and
    /// validation `workers`. With `traced`, each campaign's attestation
    /// registry is rebuilt alongside it.
    pub fn prepare(self, seed: u64, workers: usize, traced: bool) -> Vec<Prepared> {
        // `Campaign::new` derives the registry at construction, from the
        // live system as it is then and the campaign's master seed.
        let registry = |live: &Simulator, campaign: &Campaign| {
            traced.then(|| {
                SutCatalog::default().build_registry(live, campaign.config_ref().template.seed)
            })
        };
        let prepared = |label, live, campaign: Campaign, registry, expect| Prepared {
            label,
            live,
            campaign: campaign.workers(workers).pair_workers(workers),
            registry,
            expect,
        };
        match self {
            Workload::Demo27 => {
                let mut live = scenarios::demo27_system(seed);
                live.run_until_quiet(
                    SimDuration::from_secs(5),
                    SimTime::from_nanos(300_000_000_000),
                );
                // Every explorer x every peer (90 pairs), a concolic budget
                // well above the validation budget.
                let campaign = Campaign::new(&live)
                    .executions(64)
                    .validate_top(4)
                    .horizon(SimDuration::from_secs(30));
                let reg = registry(&live, &campaign);
                vec![prepared("demo27", live, campaign, reg, Expect::Healthy)]
            }
            Workload::Internet1k => {
                // `exp_topo`'s 1000-node graph: the topology is fixed, the
                // seed drives the federation's latency sampling.
                let params = InternetParams {
                    peering_prob: 8.0 / INTERNET_NODES as f64,
                    ..InternetParams::default()
                };
                let topo = Topology::internet_like(
                    INTERNET_NODES,
                    &params,
                    &mut SimRng::seed_from_u64(0xD1CE_0000 + INTERNET_NODES as u64),
                );
                let mut live =
                    scenarios::build_system_with_originators(&topo, INTERNET_ORIGINATORS, seed);
                live.run_until_quiet(
                    SimDuration::from_secs(5),
                    SimTime::from_nanos(600_000_000_000),
                );
                // One sweep: the first cut captures all 1000 nodes and the
                // other three take the delta path. Three peers per
                // explorer, so a third of the rounds carry a cut and the
                // round-time median and p90 sit inside the two modes
                // instead of on the boundary between them.
                let campaign = Campaign::new(&live)
                    .explorers((0..4).map(NodeId))
                    .max_peers_per_explorer(3)
                    .executions(16)
                    .validate_top(4)
                    .horizon(SimDuration::from_secs(30));
                let reg = registry(&live, &campaign);
                vec![prepared(
                    "internet-1k",
                    live,
                    campaign,
                    reg,
                    Expect::Healthy,
                )]
            }
            Workload::Defects => {
                // Policy conflict: BAD-GADGET never quiesces, so every
                // validation runs to the horizon. Two of its twelve pairs.
                let mut gadget = scenarios::bad_gadget_scenario(seed);
                gadget.run_until(SimTime::from_nanos(20_000_000_000));
                let gadget_campaign = Campaign::new(&gadget)
                    .explorers([NodeId(1), NodeId(2)])
                    .max_peers_per_explorer(1)
                    .executions(32)
                    .validate_top(4)
                    .horizon(SimDuration::from_secs(10));
                let gadget_reg = registry(&gadget, &gadget_campaign);

                // Operator mistake: the registry is derived while the
                // federation is healthy; the hijack happens afterwards.
                let mut hijack = scenarios::hijack_scenario(seed);
                hijack.run_until(SimTime::from_nanos(10_000_000_000));
                let hijack_campaign = Campaign::new(&hijack).executions(48).validate_top(8);
                let hijack_reg = registry(&hijack, &hijack_campaign);
                scenarios::apply_hijack(&mut hijack);
                hijack.run_until(SimTime::from_nanos(25_000_000_000));

                // Programming errors in both protocols, found through 5%
                // lossy clones after a partition and a churn cycle.
                let mut nemesis = scenarios::nemesis_federation(seed);
                nemesis.run_until(SimTime::from_nanos(12_000_000_000));
                let nemesis_campaign = Campaign::new(&nemesis)
                    .explorers([NodeId(1), NodeId(2)])
                    .rounds(2)
                    .executions(160)
                    .validate_top(16)
                    .horizon(SimDuration::from_secs(30))
                    .schedule(nemesis_schedule())
                    .unreliable_links(true)
                    .link_faults(LinkFaults::lossy(0.05));
                let nemesis_reg = registry(&nemesis, &nemesis_campaign);

                vec![
                    prepared(
                        "bad-gadget",
                        gadget,
                        gadget_campaign,
                        gadget_reg,
                        Expect::Detects(FaultClass::PolicyConflict, &[]),
                    ),
                    prepared(
                        "hijack",
                        hijack,
                        hijack_campaign,
                        hijack_reg,
                        Expect::Detects(FaultClass::OperatorMistake, &[]),
                    ),
                    prepared(
                        "nemesis",
                        nemesis,
                        nemesis_campaign,
                        nemesis_reg,
                        Expect::Detects(FaultClass::ProgrammingError, &[BGP_NEEDLE, GOSSIP_NEEDLE]),
                    ),
                ]
            }
        }
    }
}

/// The `exp_faults` dynamics overlay: one partition window and one churn
/// cycle, both firing before the first sweep, with the buggy nodes
/// protected.
fn nemesis_schedule() -> ScheduleSpec {
    ScheduleSpec {
        partitions: 1,
        partition_len: SimDuration::from_millis(50),
        churn: 1,
        churn_len: SimDuration::from_millis(50),
        start: SimDuration::ZERO,
        window: SimDuration::ZERO,
        protect_first: 3,
    }
}

/// Why a campaign report fails its workload's expectation, if it does.
pub fn check_outcome(expect: Expect, report: &dice_core::CampaignReport) -> Option<String> {
    match expect {
        Expect::Healthy if report.faults.is_empty() => None,
        Expect::Healthy => Some(format!(
            "healthy workload reported {} fault(s), first: {} {}",
            report.faults.len(),
            report.faults[0].class,
            report.faults[0].detail
        )),
        Expect::Detects(class, needles) => {
            if !report.classes().contains(&class) {
                return Some(format!("{class} not detected"));
            }
            needles
                .iter()
                .find(|n| !report.faults.iter().any(|f| f.detail.contains(*n)))
                .map(|n| format!("needle {n:?} not detected"))
        }
    }
}
