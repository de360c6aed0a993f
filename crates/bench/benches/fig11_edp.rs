//! Figure 11: L1-miss energy-delay product (EDP), normalized to precise
//! execution, for approximation degrees 0–16. Expected shape: EDP falls
//! monotonically with degree (the paper reports mean reductions of 41.9%,
//! 53.8% and 63.8% at degrees 0, 4 and 16).

use lva_bench::{
    banner, fullsystem_grid, fullsystem_suite, print_series_table, scale_from_env, Series,
};
use lva_core::ApproximatorConfig;
use lva_energy::EnergyParams;
use lva_sim::MechanismKind;

fn main() {
    banner(
        "Figure 11 — normalized L1-miss EDP vs approximation degree",
        "San Miguel et al., MICRO 2014, Fig. 11",
    );
    let suite = fullsystem_suite(scale_from_env());
    let params = EnergyParams::cacti_32nm();

    const DEGREES: [u32; 5] = [0, 2, 4, 8, 16];
    let mechanisms: Vec<_> = std::iter::once(MechanismKind::Precise)
        .chain(DEGREES.map(|d| MechanismKind::Lva(ApproximatorConfig::with_degree(d))))
        .collect();
    let rows = fullsystem_grid(&suite, &mechanisms);
    let precise = &rows[0];

    let mut series = vec![Series::new("baseline", vec![1.0; suite.len()])];
    for (degree, runs) in DEGREES.iter().zip(&rows[1..]) {
        let values: Vec<f64> = runs
            .iter()
            .zip(precise)
            .map(|(s, p)| {
                let base = p.l1_miss_edp(&params);
                if base == 0.0 {
                    1.0
                } else {
                    s.l1_miss_edp(&params) / base
                }
            })
            .collect();
        series.push(Series::new(format!("approx-{degree}"), values));
    }
    print_series_table("normalized EDP", &series);
    println!();
    println!("paper: mean EDP reduced by 41.9% / 53.8% / 63.8% at degrees 0 / 4 / 16.");
}
