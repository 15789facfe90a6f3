//! `cargo bench` target that regenerates every table and figure of the
//! paper (simulated-time measurements, so criterion is not involved).

use bench::experiments::*;
use bench::outln;
use bench::report::*;

fn main() {
    // `cargo bench` passes --bench; ignore arguments.
    outln!("uMiddle evaluation harness — all tables and figures");
    outln!("{}", render_e1(&e1_service_level(5)));
    outln!("{}", render_e2(&e2_device_level()));
    outln!("{}", render_e3(&e3_transport_level(30)));
    outln!("{}", render_e4(&e4_ablation_translation()));
    outln!("{}", render_e5(&e5_ablation_qos()));
    outln!("{}", render_e6(&e6_directory_scale(&[2, 4, 8, 12], 4)));
    outln!("{}", render_e7(&e7_ablation_scatter()));
    outln!("{}", render_e8(&e8_observability()));
}
