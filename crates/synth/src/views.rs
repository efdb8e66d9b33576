//! Weighted view-sample generation for one (publisher, snapshot) cell.
//!
//! Each cell generates `n` sampled views stratified to the publisher's
//! management plane at that snapshot, then weights them so the weighted sum
//! of view-hours equals the publisher's target for the two-day window
//! (Horvitz–Thompson; see `vmp_core::view::SampledView`). Every sample runs
//! a short real playback session (ABR + Markov network + broker-selected
//! CDN) so QoE fields come from the simulated data path, not a formula.

use vmp_abr::algorithm::{AbrAlgorithm, Bba, Bola, ThroughputRule};
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{SessionId, VideoId};
use vmp_core::platform::{BrowserTech, Platform};
use vmp_core::protocol::StreamingProtocol;
use vmp_core::publisher::SyndicationRole;
use vmp_core::sdk::SdkVersion;
use vmp_core::time::SnapshotId;
use vmp_core::units::Seconds;
use vmp_core::view::{OwnershipFlag, SampledView};
use vmp_faults::{FaultInjector, FaultProfile, RetryPolicy};
use vmp_session::player::{PlaybackConfig, Player};
use vmp_session::telemetry::{ClientContext, TelemetryBuilder};
use vmp_stats::{Discrete, Distribution, LogNormal, Rng, Zipf};

use crate::publisher_gen::{PublisherProfile, SnapshotPlane};
use crate::syndigraph::SyndicationGraph;
use crate::trends;

/// View-sampling configuration.
#[derive(Debug, Clone)]
pub struct ViewGenConfig {
    /// Minimum samples per (publisher, snapshot).
    pub min_samples: usize,
    /// Maximum samples per (publisher, snapshot).
    pub max_samples: usize,
    /// Cap on simulated media per session (QoE is measured on this prefix
    /// and extrapolated; the *recorded* viewing time is the full duration).
    pub sim_media_cap: Seconds,
    /// Deterministic fault plan replayed under every cell, if any. Sessions
    /// get staggered start offsets across the plan's horizon and run with
    /// [`RetryPolicy::resilient`]; `None` reproduces the fault-free
    /// generation byte for byte.
    pub faults: Option<FaultProfile>,
    /// View-volume multiplier (`repro --scale N`). Applied to the per-cell
    /// sample count *after* the min/max clamp, so `1` reproduces the
    /// default generation byte for byte; the Horvitz–Thompson weights
    /// shrink in proportion, keeping weighted aggregates on target.
    pub volume_scale: u64,
}

impl Default for ViewGenConfig {
    fn default() -> Self {
        ViewGenConfig {
            min_samples: 40,
            max_samples: 700,
            sim_media_cap: Seconds(36.0),
            faults: None,
            volume_scale: 1,
        }
    }
}

/// Generates the weighted samples for one publisher at one snapshot.
#[allow(clippy::too_many_arguments)]
pub fn generate_views(
    profile: &PublisherProfile,
    plane: &SnapshotPlane,
    graph: &SyndicationGraph,
    cfg: &ViewGenConfig,
    snapshot: SnapshotId,
    session_base: u32,
    rng: &mut Rng,
) -> Vec<SampledView> {
    let t = snapshot.progress();
    // Two-day window target view-hours.
    let target_vh = plane.vh_day * 2.0;
    let n = ((plane.vh_day / trends::X_VIEW_HOURS).powf(0.45) * 30.0) as usize;
    let n = n.clamp(cfg.min_samples, cfg.max_samples) * cfg.volume_scale.max(1) as usize;

    let platform_dist = Discrete::new_or_unit(&plane.platform_weights);
    let title_dist =
        Zipf::new(plane.titles.clamp(1, 5_000) as usize, 0.8).unwrap_or_else(|_| Zipf::unit());
    let broker = Broker::new(BrokerPolicy::Weighted);
    let faults = cfg.faults.as_ref().map(|p| FaultInjector::new(p.clone()));

    let mut raw: Vec<(SampledView, f64)> = Vec::with_capacity(n);
    let mut total_hours = 0.0f64;

    for i in 0..n {
        let platform = plane.platforms[platform_dist.sample(rng)];
        let device = sample_device(platform, t, rng);
        let class = sample_class(profile, device, rng);
        let protocol = sample_protocol(plane, profile, device, t, rng);
        let cdn = broker
            .select(&plane.strategy, class, rng)
            .or_else(|| plane.strategy.cdns().first().copied())
            .unwrap_or(CdnName::A);

        // Duration (hours) from the per-platform model, floored at 30 s.
        let (median, spread) = trends::duration_model(platform);
        let duration_dist = LogNormal::clamped_median_spread(median, spread);
        let hours = duration_dist.sample(rng).clamp(30.0 / 3600.0, 6.0);
        let watch = Seconds::from_hours(hours);

        let region = sample_region(rng);
        let isp = *rng.choose(&Isp::ALL);
        let connection = sample_connection(platform, rng);

        // Real (truncated) playback for the QoE fields.
        let quality = cdn_quality(cdn, isp, t);
        let network = NetworkModel::new(
            NetworkProfile::for_connection(connection, 1.0).scaled(quality),
        );
        let sim_watch = Seconds(watch.0.min(cfg.sim_media_cap.0.max(6.0)));
        let content = Seconds(watch.0 * rng.range_f64(1.0, 2.5));
        let mut playback = match class {
            ContentClass::Vod => PlaybackConfig::vod(plane.ladder.clone(), content, sim_watch),
            ContentClass::Live => PlaybackConfig::live(plane.ladder.clone(), content, sim_watch),
        };
        if let Some(injector) = faults.as_ref() {
            playback.retry = RetryPolicy::resilient();
            // Stagger sessions across the plan's horizon so every incident
            // catches some views at startup and others mid-stream.
            playback.start_offset =
                Seconds(injector.profile().horizon().0 * (i as f64 / n as f64));
        }
        let abr = abr_for_device(device);
        let start_clock = playback.start_offset;
        // `vod`/`live` configs always validate; skip the view rather than
        // panic if that invariant ever breaks.
        let Ok(mut player) = Player::new(playback, network, abr) else {
            continue;
        };
        // Speculative wide-event trace: a no-op scope unless the run armed
        // `--session-trace`. Session ids match the telemetry rows below.
        let trace = vmp_session::hooks::trace_begin(
            session_base.wrapping_add(i as u32) as u64,
            Some(u64::from(profile.publisher.id.raw())),
            Some(cdn),
            None,
            start_clock,
        );
        let mut outcome = player.play_with(cdn, faults.as_ref(), rng);
        vmp_session::hooks::trace_finish(trace, &outcome);
        // Extrapolate the truncated QoE to the full view.
        if outcome.qoe.played.0 > 0.0 && watch.0 > outcome.qoe.played.0 {
            let scale = watch.0 / outcome.qoe.played.0;
            outcome.qoe.rebuffer_time = Seconds(outcome.qoe.rebuffer_time.0 * scale);
            outcome.qoe.played = watch;
        }

        // Ownership: syndicators serve licensed content most of the time.
        let ownership = sample_ownership(profile, graph, rng);
        let video_rank = title_dist.sample(rng) as u32;

        let token = format!("v{video_rank:06x}");
        let prefix = format!("p{:04}", profile.publisher.id.raw());
        let manifest_url = vmp_manifest::manifest_url(protocol, &cdn.host(), &prefix, &token);

        let client = ClientContext {
            device,
            sdk_version: sample_sdk_version(plane, rng),
            region,
            isp,
            connection,
        };
        let builder = TelemetryBuilder {
            session: SessionId::new(session_base.wrapping_add(i as u32)),
            snapshot,
            publisher: profile.publisher.id,
            video: VideoId::new(video_rank),
            manifest_url,
            available_bitrates: plane.ladder.bitrates(),
            class,
            ownership,
        };
        let mut record = builder.build(&client, &outcome);
        record.viewing_time = watch;

        total_hours += hours;
        raw.push((SampledView { record, weight: 0.0 }, hours));
    }

    // Weight so the weighted view-hours hit the target exactly.
    let weight = if total_hours > 0.0 { target_vh / total_hours } else { 0.0 };
    raw.into_iter()
        .map(|(mut s, _)| {
            s.weight = weight;
            s
        })
        .collect()
}

/// Per-(CDN, ISP, time) delivery quality factor. CDN A's edge degrades over
/// the study while B and C invest — the §4.3 traffic-share shift has a
/// performance story behind it. ISP X is the stronger access network
/// (Fig 15's "ISP X on CDN A" vs "ISP Y on CDN B" panels need both).
pub fn cdn_quality(cdn: CdnName, isp: Isp, t: f64) -> f64 {
    let cdn_factor = match cdn {
        CdnName::A => 1.15 - 0.25 * t,
        CdnName::B => 0.85 + 0.30 * t,
        CdnName::C => 1.00,
        CdnName::D => 0.80,
        CdnName::E => 0.75,
        CdnName::Minor(_) => 0.60,
    };
    let isp_factor = match isp {
        Isp::X => 1.10,
        Isp::Y => 0.90,
        Isp::Z => 1.00,
    };
    cdn_factor * isp_factor
}

fn sample_device(platform: Platform, t: f64, rng: &mut Rng) -> DeviceModel {
    match platform {
        Platform::Browser => {
            // 12% of browser views come from mobile browsers (§4.2 counts
            // them under the Browser platform).
            if rng.chance(0.12) {
                return DeviceModel::MobileBrowser;
            }
            let weights: Vec<f64> = BrowserTech::ALL
                .iter()
                .map(|tech| trends::browser_tech_share(*tech).at(t).max(0.0))
                .collect();
            let dist = Discrete::new_or_unit(&weights);
            DeviceModel::DesktopBrowser(BrowserTech::ALL[dist.sample(rng)])
        }
        Platform::MobileApp => {
            let android = rng.chance(trends::mobile_device_share(true).prob_at(t));
            let tablet = rng.chance(0.30);
            match (android, tablet) {
                (true, true) => DeviceModel::AndroidTablet,
                (true, false) => DeviceModel::AndroidPhone,
                (false, true) => DeviceModel::IPad,
                (false, false) => DeviceModel::IPhone,
            }
        }
        Platform::SetTopBox => {
            let devices =
                [DeviceModel::Roku, DeviceModel::AppleTv, DeviceModel::FireTv, DeviceModel::Chromecast];
            let weights: Vec<f64> =
                devices.iter().map(|d| trends::settop_device_share(*d).at(t).max(0.0)).collect();
            let dist = Discrete::new_or_unit(&weights);
            devices[dist.sample(rng)]
        }
        Platform::SmartTv => {
            let devices = [DeviceModel::SamsungTv, DeviceModel::LgTv, DeviceModel::VizioTv];
            let weights: Vec<f64> =
                devices.iter().map(|d| trends::smarttv_device_share(*d).at(t).max(0.0)).collect();
            let dist = Discrete::new_or_unit(&weights);
            devices[dist.sample(rng)]
        }
        Platform::GameConsole => {
            if rng.chance(0.6) {
                DeviceModel::Xbox
            } else {
                DeviceModel::PlayStation
            }
        }
    }
}

fn sample_class(profile: &PublisherProfile, device: DeviceModel, rng: &mut Rng) -> ContentClass {
    // Live skews toward large screens slightly.
    let base = profile.publisher.kind.live_share();
    let adjusted = if device.platform().is_large_screen() { base * 1.2 } else { base * 0.9 };
    if rng.chance(adjusted.min(0.95)) {
        ContentClass::Live
    } else {
        ContentClass::Vod
    }
}

fn sample_protocol(
    plane: &SnapshotPlane,
    profile: &PublisherProfile,
    device: DeviceModel,
    t: f64,
    rng: &mut Rng,
) -> StreamingProtocol {
    let mut weights = Vec::with_capacity(plane.protocols.len());
    for proto in &plane.protocols {
        let device_w = trends::device_protocol_weight(device, *proto);
        let pref = trends::protocol_preference(*proto, profile.dash_first, t);
        weights.push(device_w * pref);
    }
    match Discrete::new(&weights) {
        Ok(dist) => plane.protocols[dist.sample(rng)],
        // Device can't play anything the publisher packages (e.g. a
        // Silverlight view at a DASH/HLS-only publisher): fall back to the
        // publisher's primary protocol — never to a protocol outside its
        // management plane, which would corrupt the support analyses.
        Err(_) => plane.protocols.first().copied().unwrap_or(StreamingProtocol::Hls),
    }
}

fn sample_ownership(
    profile: &PublisherProfile,
    graph: &SyndicationGraph,
    rng: &mut Rng,
) -> OwnershipFlag {
    let p_syndicated = match profile.publisher.role {
        SyndicationRole::FullSyndicator => 0.75,
        SyndicationRole::Mixed => 0.35,
        SyndicationRole::OwnerOnly => 0.0,
    };
    if p_syndicated > 0.0 && rng.chance(p_syndicated) {
        if let Some(owner) = graph.sample_owner(profile.publisher.id, rng) {
            return OwnershipFlag::Syndicated { owner };
        }
    }
    OwnershipFlag::Owned
}

fn sample_region(rng: &mut Rng) -> Region {
    let dist = Discrete::new_or_unit(&[0.10, 0.38, 0.22, 0.15, 0.10, 0.05]);
    Region::ALL[dist.sample(rng)]
}

fn sample_connection(platform: Platform, rng: &mut Rng) -> ConnectionType {
    match platform {
        Platform::MobileApp => {
            if rng.chance(0.5) {
                ConnectionType::Cellular4g
            } else {
                ConnectionType::Wifi
            }
        }
        Platform::Browser => {
            if rng.chance(0.3) {
                ConnectionType::Wired
            } else {
                ConnectionType::Wifi
            }
        }
        _ => {
            if rng.chance(0.6) {
                ConnectionType::Wired
            } else {
                ConnectionType::Wifi
            }
        }
    }
}

fn sample_sdk_version(plane: &SnapshotPlane, rng: &mut Rng) -> SdkVersion {
    // Users lag: pick a version within the publisher's support window. Each
    // major release ships one maintained minor line, so the number of
    // distinct builds per SDK equals the support-window size (the §5
    // unique-SDKs unit).
    let major = 4 + (plane.snapshot.index() / 8) as u16;
    let lag = rng.below(plane.sdk_window as u64) as u16;
    let effective = major.saturating_sub(lag).max(1);
    SdkVersion::new(effective, effective % 3)
}

fn abr_for_device(device: DeviceModel) -> &'static dyn AbrAlgorithm {
    // The algorithms are stateless (`choose(&self, ..)`), so every view of
    // a device family shares one instance.
    static APPLE: ThroughputRule = ThroughputRule { safety: 0.85 };
    static STREAMING_STICK: Bba = Bba::DEFAULT;
    static ANDROID: Bola = Bola::DEFAULT;
    static OTHER: ThroughputRule = ThroughputRule::DEFAULT;
    // Different SDKs ship different adaptation logic (§2).
    match device {
        DeviceModel::IPhone | DeviceModel::IPad | DeviceModel::AppleTv => &APPLE,
        DeviceModel::Roku | DeviceModel::FireTv | DeviceModel::Chromecast => &STREAMING_STICK,
        DeviceModel::AndroidPhone | DeviceModel::AndroidTablet => &ANDROID,
        _ => &OTHER,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::ids::PublisherId;

    fn setup(seed: u64) -> (PublisherProfile, SnapshotPlane, SyndicationGraph) {
        let mut rng = Rng::seed_from(seed);
        let pop: Vec<PublisherProfile> = (0..30)
            .map(|i| PublisherProfile::generate(PublisherId::new(i), &mut rng))
            .collect();
        let graph = SyndicationGraph::generate(&pop, &mut rng);
        let profile = pop.into_iter().max_by(|a, b| a.vh_day_final.total_cmp(&b.vh_day_final)).unwrap();
        let plane = profile.plane(SnapshotId::LAST);
        (profile, plane, graph)
    }

    fn small_cfg() -> ViewGenConfig {
        ViewGenConfig {
            min_samples: 30,
            max_samples: 60,
            sim_media_cap: Seconds(12.0),
            faults: None,
            volume_scale: 1,
        }
    }

    #[test]
    fn weighted_hours_hit_the_target() {
        let (profile, plane, graph) = setup(1);
        let mut rng = Rng::seed_from(2);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        let total: f64 = views.iter().map(|v| v.weighted_hours()).sum();
        let target = plane.vh_day * 2.0;
        assert!((total / target - 1.0).abs() < 1e-9, "total {total}, target {target}");
    }

    #[test]
    fn views_respect_the_management_plane() {
        let (profile, plane, graph) = setup(3);
        let mut rng = Rng::seed_from(4);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        for v in &views {
            // Platform supported.
            assert!(plane.platforms.contains(&v.record.device.platform()));
            // CDN in strategy.
            let cdn_ids: Vec<_> = plane.strategy.cdns().iter().map(|c| c.id()).collect();
            assert!(cdn_ids.contains(&v.record.cdns[0]));
            // Protocol classifiable from the URL and (modulo the HLS
            // fallback) supported by the plane.
            let proto = vmp_manifest::classify(&v.record.manifest_url).expect("classifiable");
            assert!(
                plane.protocols.contains(&proto) || proto == StreamingProtocol::Hls,
                "unexpected protocol {proto}"
            );
            // Ladder advertised.
            assert_eq!(v.record.available_bitrates, plane.ladder.bitrates());
            assert!(v.record.viewing_time.0 >= 29.0);
        }
    }

    #[test]
    fn apple_views_are_hls() {
        let (profile, plane, graph) = setup(5);
        let mut rng = Rng::seed_from(6);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        for v in views.iter().filter(|v| v.record.device.hls_only()) {
            assert_eq!(
                vmp_manifest::classify(&v.record.manifest_url),
                Some(StreamingProtocol::Hls)
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (profile, plane, graph) = setup(7);
        let mut rng1 = Rng::seed_from(8);
        let mut rng2 = Rng::seed_from(8);
        let a = generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng1);
        let b = generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.record, y.record);
        }
    }

    #[test]
    fn qoe_fields_are_populated() {
        let (profile, plane, graph) = setup(9);
        let mut rng = Rng::seed_from(10);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        let with_bitrate = views.iter().filter(|v| v.record.qoe.avg_bitrate.0 > 0).count();
        assert!(with_bitrate as f64 / views.len() as f64 > 0.95);
        for v in &views {
            let ratio = v.record.qoe.rebuffer_ratio();
            assert!((0.0..=1.0).contains(&ratio));
        }
    }

    #[test]
    fn faulted_generation_is_deterministic_and_degrades_qoe() {
        let (profile, plane, graph) = setup(11);
        // Brown out the publisher's primary CDN across the whole horizon.
        let victim = plane.strategy.cdns()[0];
        let faulted = ViewGenConfig {
            faults: Some(FaultProfile::cdn_brownout(victim)),
            ..small_cfg()
        };
        let gen = |cfg: &ViewGenConfig, seed: u64| {
            let mut rng = Rng::seed_from(seed);
            generate_views(&profile, &plane, &graph, cfg, SnapshotId::LAST, 0, &mut rng)
        };
        let a = gen(&faulted, 12);
        let b = gen(&faulted, 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.record, y.record);
        }
        let clean = gen(&small_cfg(), 12);
        // Rebuffer ratios are not comparable across the arms (armed timeouts
        // trade stalls for degraded bitrate, and fatal views barely play),
        // but delivered bitrate must suffer: retries refetch at the lowest
        // rung and outage-window views exit with nothing delivered.
        let bitrate = |views: &[SampledView]| {
            views.iter().map(|v| v.record.qoe.avg_bitrate.0 as f64).sum::<f64>()
                / views.len() as f64
        };
        assert!(
            bitrate(&a) < bitrate(&clean),
            "brownout should cut delivered bitrate: {} vs {}",
            bitrate(&a),
            bitrate(&clean)
        );
    }

    #[test]
    fn cdn_quality_table_shape() {
        // A degrades, B improves.
        assert!(cdn_quality(CdnName::A, Isp::Z, 0.0) > cdn_quality(CdnName::A, Isp::Z, 1.0));
        assert!(cdn_quality(CdnName::B, Isp::Z, 1.0) > cdn_quality(CdnName::B, Isp::Z, 0.0));
        // ISP X beats ISP Y on the same CDN.
        assert!(cdn_quality(CdnName::C, Isp::X, 0.5) > cdn_quality(CdnName::C, Isp::Y, 0.5));
        // Minors are worst.
        assert!(cdn_quality(CdnName::Minor(0), Isp::Z, 0.5) < cdn_quality(CdnName::E, Isp::Z, 0.5));
    }
}
