//! Figure 10: full-system performance and energy for approximation degrees
//! 0–16 on the Table II machine (4 OoO cores, MSI over a 2×2 mesh,
//! 160-cycle memory). Expected shape: mean speedup in the ~5–15% range
//! with the biggest wins for the high-MPKI benchmarks, and energy savings
//! growing with the approximation degree. Also reports the L1 miss latency
//! and interconnect-traffic reductions quoted in §VI-E.
//!
//! Like the paper — which drops from simlarge to simmedium inputs for
//! full-system simulation — this bench runs the workloads one scale down.

use lva_bench::{
    banner, fullsystem_grid, fullsystem_suite, print_series_table, scale_from_env, Series,
};
use lva_core::ApproximatorConfig;
use lva_energy::EnergyParams;
use lva_sim::MechanismKind;

fn main() {
    banner(
        "Figure 10 — full-system speedup and energy savings vs approximation degree",
        "San Miguel et al., MICRO 2014, Fig. 10 (+ §VI-E latency/traffic claims)",
    );
    let suite = fullsystem_suite(scale_from_env());
    let params = EnergyParams::cacti_32nm();

    const DEGREES: [u32; 5] = [0, 2, 4, 8, 16];
    let mechanisms: Vec<_> = std::iter::once(MechanismKind::Precise)
        .chain(DEGREES.map(|d| MechanismKind::Lva(ApproximatorConfig::with_degree(d))))
        .collect();
    let rows = fullsystem_grid(&suite, &mechanisms);
    let precise = &rows[0];

    let mut speedup = Vec::new();
    let mut savings = Vec::new();
    let mut misslat = Vec::new();
    let mut traffic = Vec::new();
    for (degree, runs) in DEGREES.iter().zip(&rows[1..]) {
        speedup.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(precise)
                .map(|(r, p)| (r.speedup_vs(p) - 1.0) * 100.0)
                .collect(),
        ));
        savings.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(precise)
                .map(|(r, p)| {
                    (1.0 - r.hierarchy_energy_nj(&params) / p.hierarchy_energy_nj(&params))
                        * 100.0
                })
                .collect(),
        ));
        misslat.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(precise)
                .map(|(r, p)| (1.0 - r.avg_miss_latency() / p.avg_miss_latency()) * 100.0)
                .collect(),
        ));
        traffic.push(Series::new(
            format!("approx-{degree}"),
            runs.iter()
                .zip(precise)
                .map(|(r, p)| (1.0 - r.flit_hops as f64 / p.flit_hops as f64) * 100.0)
                .collect(),
        ));
    }

    println!("(a) speedup over precise execution (%)");
    print_series_table("speedup %", &speedup);
    println!();
    println!("(b) dynamic energy savings in the memory hierarchy (%)");
    print_series_table("energy savings %", &savings);
    println!();
    println!("(§VI-E) L1 miss latency reduction (%)");
    print_series_table("miss lat. red. %", &misslat);
    println!();
    println!("(§VI-E) interconnect traffic reduction (%)");
    print_series_table("traffic red. %", &traffic);
    println!();
    println!("paper: 8.5% mean speedup (up to 28.6%); 12.6% mean energy savings at");
    println!("       degree 16 (up to 44.1%); 41% mean L1 miss-latency reduction;");
    println!("       37.2% traffic reduction at degree 16.");
}
