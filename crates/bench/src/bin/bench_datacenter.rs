//! The "busy datacenter day": all five runtimes' workloads replayed
//! concurrently through the multi-tenant scheduler (DESIGN.md §15).
//!
//! Three sections run back to back — an idle baseline, the diurnal rush
//! over the batch backbone, and the same rush with preemption disabled.
//! The table shows what multi-tenancy does to each queue's latency
//! distribution and what preemption buys the interactive tier. With
//! `--telemetry-out` the per-queue latency histograms, windowed
//! quantiles and SLO-attainment records land in the report JSON, which
//! is what the CI `datacenter-smoke` job asserts on.

fn main() {
    let args = hpcbd_bench::BenchArgs::parse();
    hpcbd_bench::banner("busy datacenter day (multi-tenant scheduler)");
    hpcbd_bench::run_with_report("bench_datacenter", &args, || {
        for (name, out) in hpcbd_bench::datacenter::run_all(args.quick) {
            println!();
            print!("{}", hpcbd_bench::datacenter::render(&out, name));
        }
        println!();
        println!("shape: the rush inflates the interactive tail via queueing; with");
        println!("preemption the scheduler reclaims over-share batch slots, without");
        println!("it the interactive queue waits out whole batch tasks.");
    });
}
