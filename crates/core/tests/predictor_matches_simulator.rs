//! The layout optimizer's fault predictor equals the paging simulator on
//! the image the pipeline builds: 16 random layouts of micronaut and 64 of
//! Bounce at the small runtime scale, under fault-around windows of 1, 2,
//! 16 and 64 pages (see `support/touch_model.rs` for the touch model).

#[path = "support/touch_model.rs"]
mod touch_model;

use nimage_workloads::{Awfy, Microservice, RuntimeScale};

#[test]
fn predictor_matches_simulator_on_micronaut() {
    touch_model::check_random_layouts("micronaut", &Microservice::Micronaut.program(), 16);
}

#[test]
fn predictor_matches_simulator_on_bounce_small() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    touch_model::check_random_layouts("Bounce-small", &program, 64);
}
