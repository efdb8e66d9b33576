//! Fault windows reach the Chrome trace as instants on the virtual
//! timeline. Kept in its own test binary: tracing is process-global, and
//! no other test here may build an injector while it is on.

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_faults::{FaultInjector, FaultProfile};

#[test]
fn injector_lays_windows_onto_the_trace_as_instants() {
    let profile = FaultProfile::builder()
        .outage(CdnName::A, Seconds(10.0), Seconds(20.0))
        .degrade(CdnName::B, Seconds(5.0), Seconds(2.5), 0.5)
        .flush(CdnName::C, Seconds(40.0))
        .build();

    // Untraced construction records nothing.
    let _quiet = FaultInjector::new(profile.clone());
    assert!(vmp_obs::trace_events().is_empty());

    vmp_obs::set_tracing(true);
    let _traced = FaultInjector::new(profile);
    vmp_obs::set_tracing(false);

    let instants: Vec<(String, u64, String)> = vmp_obs::trace_events()
        .into_iter()
        .map(|e| {
            assert_eq!(
                (e.ph, e.pid, e.global_instant),
                ('i', vmp_obs::trace::PID_VIRTUAL, true)
            );
            let detail = e
                .args
                .first()
                .and_then(|(_, v)| v.as_str())
                .unwrap_or_default();
            (e.name, e.ts, detail.to_string())
        })
        .collect();
    let expect = |name: &str, ts: u64, detail: &str| (name.to_string(), ts, detail.to_string());
    assert_eq!(
        instants,
        vec![
            expect("fault.start", 10_000_000, "outage on A"),
            expect("fault.stop", 30_000_000, "outage on A"),
            expect("fault.start", 5_000_000, "degraded_throughput on B"),
            expect("fault.stop", 7_500_000, "degraded_throughput on B"),
            // A flush is an instant: a start and no stop.
            expect("fault.start", 40_000_000, "edge_cache_flush on C"),
        ]
    );
}
