//! Golden digests: the SHA-256 of `CampaignReport::normalized()` JSON
//! for two fixed-seed campaigns, pinned to the bytes the campaign
//! engine produced before the copy-on-write, cut-bookkeeping and
//! lazy-link-stream optimisations. Any change to what a campaign
//! observes — a reordered marker, a shifted RNG draw, a config mutation
//! leaking across a clone — changes the digest.
//!
//! The lossy campaign also pins the channel-fidelity counters, so the
//! per-link fault streams must be drawn exactly as before, not merely
//! produce the same verdicts.

use dice_system::dice::hash::{hex, sha256};
use dice_system::dice::{scenarios, Campaign, CampaignReport};
use dice_system::netsim::{
    InternetParams, LinkFaults, NodeId, SimDuration, SimRng, SimTime, Topology,
};

fn digest(report: &CampaignReport) -> String {
    let json = serde_json::to_string(&report.normalized()).expect("report serializes");
    hex(&sha256(json.as_bytes()))
}

#[test]
fn demo27_smoke_campaign_digest_is_pinned() {
    let mut live = scenarios::demo27_system(3);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(300_000_000_000),
    );
    let report = Campaign::new(&live)
        .explorers([NodeId(0), NodeId(11)])
        .max_peers_per_explorer(2)
        .executions(24)
        .validate_top(4)
        .horizon(SimDuration::from_secs(30))
        .workers(1)
        .pair_workers(1)
        .run(&mut live)
        .expect("demo27 campaign runs");
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    // `normalized()` zeroes `perf`, so the digest cannot see how much
    // solver work the campaign did; pin it here.
    let p = &report.perf;
    assert_eq!(
        (p.solver_queries, p.unary_memo_hits, p.covered_flips_skipped),
        (1540, 30924, 0),
        "demo27 solver work drifted"
    );
    assert_eq!(
        digest(&report),
        "b53c40ecbe5ce4ecfd012ce2ef5876f6aa1c922fa14cb40bfd44524178031d9d",
        "demo27 normalized report drifted"
    );
}

#[test]
fn lossy_internet_campaign_digest_is_pinned() {
    const N: usize = 100;
    let params = InternetParams {
        peering_prob: 8.0 / N as f64,
        ..InternetParams::default()
    };
    let topo = Topology::internet_like(
        N,
        &params,
        &mut SimRng::seed_from_u64(0xD1CE_0000 + N as u64),
    );
    let mut live = scenarios::build_system_with_originators(&topo, 4, 17);
    live.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::from_nanos(600_000_000_000),
    );
    let report = Campaign::new(&live)
        .explorers([NodeId(0), NodeId(1)])
        .max_peers_per_explorer(2)
        .rounds(2)
        .executions(16)
        .validate_top(4)
        .horizon(SimDuration::from_secs(30))
        .workers(1)
        .pair_workers(1)
        .unreliable_links(true)
        .link_faults(LinkFaults::lossy(0.2))
        .run(&mut live)
        .expect("lossy internet campaign runs");
    let p = &report.perf;
    assert!(
        p.frames_dropped > 0,
        "20% loss must drop frames, so the fault streams are drawn: {p:?}"
    );
    assert_eq!(
        (
            p.frames_dropped,
            p.frames_duplicated,
            p.frames_reordered,
            p.wire_bytes
        ),
        (872, 444, 752, 295552),
        "channel-fidelity counters drifted"
    );
    assert_eq!(
        digest(&report),
        "8c9dd4713909c25c8d55348daea827a2b08db291de0d55860a56c219c03239ff",
        "lossy internet normalized report drifted"
    );
}
