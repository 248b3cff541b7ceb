//! Hot-swap stress: readers racing a publisher never observe a torn or
//! stale-beyond-one-version serving snapshot.
//!
//! Each deployed model version `v` answers every request with exactly
//! `v as f64`, so a prediction is *torn* iff `value != version as f64` —
//! i.e. the reader saw a model body from one version stitched to another
//! version's metadata. Staleness is bounded against a watermark the
//! publisher bumps only **after** `Gateway::publish` returns: a read that
//! starts after the watermark reads `w` must be answered by version ≥ `w`.

use autonomous_data_services::obs::Obs;
use autonomous_data_services::serve::{FnModel, Gateway, GatewayConfig, Source};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const READERS: usize = 8;
const VERSIONS: u64 = 64;
const READS_PER_CHECK: usize = 32;

#[test]
fn hot_swap_never_tears_or_rewinds() {
    let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
    let handle = gateway.register("stress/versioned", |_f: &[f64]| -1.0);

    // Version the readers start from.
    gateway
        .publish(handle, Arc::new(FnModel(|_f: &[f64]| 1.0)), 0.0)
        .expect("registered");
    let watermark = AtomicU64::new(1);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader = |reader_id: usize| {
            let gateway = gateway.clone();
            let watermark = &watermark;
            let stop = &stop;
            move || {
                let mut last_seen = 0u64;
                let mut iter = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let published = watermark.load(Ordering::Acquire);
                    for _ in 0..READS_PER_CHECK {
                        iter += 1;
                        // Vary features so cache lookups exercise many keys.
                        let features = [(reader_id as u64 * 7919 + iter % 17) as f64];
                        let p = gateway
                            .predict(handle, &features, iter as f64)
                            .expect("registered");
                        assert!(
                            !p.source.is_fallback(),
                            "no faults are injected, so no fallback"
                        );
                        // Torn check: the value must be the one this exact
                        // version computes. Cache hits are keyed by version,
                        // so they must agree too.
                        assert_eq!(
                            p.value, p.version as f64,
                            "torn snapshot: version {} answered {} (source {:?})",
                            p.version, p.value, p.source
                        );
                        assert!(
                            p.version >= published,
                            "stale snapshot: watermark was {published}, served {}",
                            p.version
                        );
                        assert!(
                            p.version >= last_seen,
                            "version rewound from {last_seen} to {}",
                            p.version
                        );
                        last_seen = p.version;
                    }
                }
            }
        };
        let readers: Vec<_> = (0..READERS).map(|id| scope.spawn(reader(id))).collect();

        for v in 2..=VERSIONS {
            gateway
                .publish(handle, Arc::new(FnModel(move |_f: &[f64]| v as f64)), 0.0)
                .expect("registered");
            watermark.store(v, Ordering::Release);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });

    // After the race, the gateway serves the final version everywhere.
    let p = gateway.predict(handle, &[0.5], 0.0).expect("registered");
    assert_eq!(p.version, VERSIONS);
    assert_eq!(p.value, VERSIONS as f64);
    assert_eq!(p.source, Source::Model);
}

/// The registry behind each entry keeps the full version history while the
/// race runs — hot swap replaces the serving snapshot, not the lineage.
#[test]
fn hot_swap_preserves_version_lineage() {
    let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
    let handle = gateway.register("stress/lineage", |_f: &[f64]| 0.0);
    for v in 1..=10u64 {
        let version = gateway
            .publish(handle, Arc::new(FnModel(move |_f: &[f64]| v as f64)), 0.0)
            .expect("registered");
        assert_eq!(version, v, "publish returns sequential versions");
    }
    let p = gateway.predict(handle, &[1.0], 0.0).expect("registered");
    assert_eq!(p.version, 10);
    // Rollback redeploys an earlier body as a fresh version — never rewinds.
    let rolled = gateway
        .rollback(handle)
        .expect("registered")
        .expect("earlier versions exist");
    assert!(rolled > 10, "rollback must move the version forward");
}
