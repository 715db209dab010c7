//! Tenant isolation (§3.6): a digi's driver and device act only on their
//! own model. Every home in a fleet has an `l1`; the driver and device of
//! one home's `l1` must not reach another home's.

use dspace::apiserver::{ApiError, ObjectRef, Query};
use dspace::core::Space;
use dspace::devices::GeeniLamp;
use dspace::digis::lamps;

/// Two homes, `h0` and `h1`, each with a Geeni lamp `l1` and its device.
fn two_homes() -> Space {
    let mut space = dspace::digis::new_space();
    for ns in ["h0", "h1"] {
        let l1 = space
            .create_digi_in("GeeniLamp", ns, "l1", lamps::geeni_driver())
            .unwrap();
        space.attach_actuator(&l1, Box::new(GeeniLamp::new()));
    }
    space
}

fn forbidden<T: std::fmt::Debug>(result: Result<T, ApiError>) -> bool {
    matches!(result, Err(ApiError::Forbidden { .. }))
}

#[test]
fn driver_and_device_subjects_stay_in_their_namespace() {
    let mut space = two_homes();
    let api = &mut space.world.api;
    let own = ObjectRef::new("GeeniLamp", "h0", "l1");
    let foreign = ObjectRef::new("GeeniLamp", "h1", "l1");
    let watch = |r: &ObjectRef| {
        Query::kind(r.kind.as_str())
            .in_ns(r.namespace.as_str())
            .named(r.name.as_str())
    };
    let intent = ".control.power.intent";

    let driver = "driver:h0/l1";
    api.get(driver, &own).unwrap();
    api.patch_path(driver, &own, intent, "on".into()).unwrap();
    api.watch_query(driver, &watch(&own)).unwrap();
    assert!(forbidden(api.get(driver, &foreign)));
    assert!(forbidden(api.patch_path(
        driver,
        &foreign,
        intent,
        "on".into()
    )));
    assert!(forbidden(api.watch_query(driver, &watch(&foreign))));

    let device = "device:h0/l1";
    api.get(device, &own).unwrap();
    api.patch_path(device, &own, intent, "off".into()).unwrap();
    assert!(forbidden(api.get(device, &foreign)));
    assert!(forbidden(api.patch_path(
        device,
        &foreign,
        intent,
        "off".into()
    )));

    // The foreign lamp was never written.
    let untouched = api.get_path(dspace::apiserver::ApiServer::ADMIN, &foreign, intent);
    assert!(untouched.unwrap().is_null());
}
