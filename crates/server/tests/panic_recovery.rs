//! The pooled session's empty engine slot is the server's one
//! panic-recovery path. A computation that panics takes its engine out
//! of the slot and poisons the session mutex; the next request for the
//! same circuit must recover the lock, rebuild the engine, and answer
//! with the frames a fresh server would send.
//!
//! The fault plane is process-global, so this test lives in its own
//! binary, away from the library unit tests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tm_resilience::fault;
use tm_server::gen::synthetic_blif;
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;

fn spcf_payload() -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(synthetic_blif(7, 12, 40))),
        ("algorithm", Json::str("short-path")),
        ("targets", Json::Arr(vec![Json::Num(0.9), Json::Num(0.7), Json::Num(0.5)])),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

#[test]
fn panicked_compute_recovers_on_the_pooled_session() {
    let _scope = tm_telemetry::Scope::enter();
    let payload = spcf_payload();
    let core = ServeCore::new(ServeConfig::default());
    {
        let guard = fault::arm_scoped("compute.panic@nth=1", 0).expect("valid fault spec");
        let outcome = catch_unwind(AssertUnwindSafe(|| core.handle_payload(payload.as_bytes())));
        assert!(outcome.is_err(), "the armed compute.panic must unwind the request");
        assert_eq!(guard.stats().injected(fault::Site::ComputePanic), 1);
    }

    let recovered = core.handle_payload(payload.as_bytes());
    let fresh = ServeCore::new(ServeConfig::default()).handle_payload(payload.as_bytes());
    assert_eq!(recovered, fresh, "the recovered session must answer like a fresh one");
    assert!(
        fresh.iter().any(|f| {
            let j = Json::parse(f).expect("frame parses");
            j.get("critical_patterns").and_then(Json::as_num).is_some_and(|n| n > 0.0)
        }),
        "vacuous fixture: every SPCF of the ladder is empty: {fresh:?}"
    );
    let stats = core.pool_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the panicked session stays pooled");
}
