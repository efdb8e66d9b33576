//! The player tallies `session.chunks_fetched` and
//! `session.chunk_download_us` in locals and flushes them once per session.
//! These tests check that the flushed totals still count every fetched
//! chunk exactly once, on clean, faulted and failover paths alike.
//!
//! This file is its own test binary, so its process-wide registry sees only
//! the sessions played here; the single test keeps the deltas free of
//! interference from parallel test threads.

use vmp_abr::algorithm::{Bba, Bola, ThroughputRule};
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_cdn::error::FetchError;
use vmp_cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp_core::cdn::CdnName;
use vmp_core::geo::ConnectionType;
use vmp_core::ladder::BitrateLadder;
use vmp_core::units::Seconds;
use vmp_faults::{FaultInjector, FaultProfile, RetryPolicy};
use vmp_session::player::{
    ChunkRequest, ChunkServe, ExitCause, MultiCdnContext, PlaybackConfig, Player, SessionOutcome,
};
use vmp_stats::Rng;

fn ladder() -> BitrateLadder {
    BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400]).unwrap()
}

fn network(quality: f64) -> NetworkModel {
    NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, quality))
}

/// (sessions, chunks_fetched, chunk_download_us count) as the global
/// registry currently reads them.
fn tallies() -> (u64, u64, u64) {
    (
        vmp_obs::counter("session.sessions").get(),
        vmp_obs::counter("session.chunks_fetched").get(),
        vmp_obs::histogram("session.chunk_download_us").count(),
    )
}

/// A fixed mix of sessions: clean single-CDN plays, plays under an outage
/// plus brownout plus manifest failures (some end fatally mid-stream or
/// before the first chunk), a zero-length view, and multi-CDN plays that
/// fail over off a dead CDN.
fn play_fixed_sessions() -> Vec<SessionOutcome> {
    let mut outcomes = Vec::new();
    let abrs: [&dyn vmp_abr::algorithm::AbrAlgorithm; 3] =
        [&ThroughputRule::DEFAULT, &Bba::DEFAULT, &Bola::DEFAULT];

    for seed in 0..12u64 {
        let abr = abrs[seed as usize % abrs.len()];
        let quality = 0.3 + 0.1 * seed as f64;
        let watch = Seconds(60.0 + 30.0 * seed as f64);
        let cfg = PlaybackConfig::vod(ladder(), Seconds(1200.0), watch);
        let mut player = Player::new(cfg, network(quality), abr).unwrap();
        outcomes.push(player.play(CdnName::A, &mut Rng::seed_from(seed)));
    }

    let plan = FaultInjector::new(
        FaultProfile::builder()
            .manifest_failures(CdnName::A, Seconds(0.0), Seconds(60.0), 0.9)
            .degrade(CdnName::A, Seconds(60.0), Seconds(120.0), 0.2)
            .outage(CdnName::A, Seconds(180.0), Seconds(600.0))
            .build(),
    );
    for seed in 0..16u64 {
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(1200.0), Seconds(300.0));
        cfg.retry = RetryPolicy::resilient();
        cfg.start_offset = Seconds(15.0 * seed as f64);
        let mut player = Player::new(cfg, network(1.0), &ThroughputRule::DEFAULT).unwrap();
        outcomes.push(player.play_with(CdnName::A, Some(&plan), &mut Rng::seed_from(100 + seed)));
    }

    let zero = PlaybackConfig::vod(ladder(), Seconds(120.0), Seconds(0.0));
    let mut player = Player::new(zero, network(1.0), &Bba::DEFAULT).unwrap();
    outcomes.push(player.play(CdnName::B, &mut Rng::seed_from(7)));

    let strategy = CdnStrategy::new(vec![
        CdnAssignment { cdn: CdnName::A, weight: 1.0, scope: CdnScope::All },
        CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::All },
    ])
    .unwrap();
    let broker = Broker::new(BrokerPolicy::Weighted);
    for seed in 0..8u64 {
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(240.0));
        cfg.retry = RetryPolicy::resilient();
        let mut player = Player::new(cfg, network(1.0), &ThroughputRule::DEFAULT).unwrap();
        let mut infra = |req: &ChunkRequest, _rng: &mut Rng| {
            if req.cdn == CdnName::A {
                Err(FetchError::Outage { cdn: CdnName::A })
            } else {
                Ok(ChunkServe::hit())
            }
        };
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy: &strategy,
            failure_probability: 0.02,
            failover_enabled: true,
            health_gate: false,
            faults: Some(&plan),
            retry_budget: None,
            infrastructure: &mut infra,
        };
        outcomes.push(player.play_multi_cdn(&mut ctx, &mut Rng::seed_from(200 + seed)));
    }
    outcomes
}

#[test]
fn flushed_chunk_tallies_count_every_fetched_chunk() {
    let before = tallies();
    let outcomes = play_fixed_sessions();
    let after = tallies();

    let chunks: u64 = outcomes.iter().map(|o| o.bitrates_used.len() as u64).sum();
    assert!(chunks > 0);
    assert!(
        outcomes.iter().any(|o| o.exit == ExitCause::FatalCdnFailure),
        "the faulted sessions must include fatal exits"
    );
    assert!(outcomes.iter().any(|o| o.cdns.len() > 1), "some session must fail over");
    assert!(outcomes.iter().any(|o| o.bitrates_used.is_empty()), "some session fetches nothing");

    assert_eq!(after.0 - before.0, outcomes.len() as u64, "session.sessions delta");
    assert_eq!(after.1 - before.1, chunks, "session.chunks_fetched delta");
    assert_eq!(after.2 - before.2, chunks, "session.chunk_download_us count delta");
}
