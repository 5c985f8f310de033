//! Smoke test of the layout optimizer's fault predictor against the paging
//! simulator: a few random layouts of micronaut and of Bounce at the small
//! runtime scale. The larger version is
//! `crates/core/tests/predictor_matches_simulator.rs`, which shares this
//! touch model.

#[path = "../crates/core/tests/support/touch_model.rs"]
mod touch_model;

use nimage::workloads::{Awfy, Microservice, RuntimeScale};

#[test]
fn predictor_matches_simulator_on_random_layouts() {
    touch_model::check_random_layouts("micronaut", &Microservice::Micronaut.program(), 4);
    let bounce = Awfy::Bounce.program_at(&RuntimeScale::small());
    touch_model::check_random_layouts("Bounce-small", &bounce, 8);
}
