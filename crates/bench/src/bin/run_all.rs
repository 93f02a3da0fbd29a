//! Regenerate every table of the paper in one run (set
//! FLUKE_BENCH_SCALE=quick for a fast smoke pass). The observability
//! sweep has its own bin and gate: `kmon`.
use fluke_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    println!("=== Fluke reproduction: full experiment sweep ({scale:?} scale) ===\n");
    println!("{}\n", fluke_bench::table1::render());
    println!("{}\n", fluke_bench::table3::render());
    println!("{}\n", fluke_bench::table5::render(scale));
    println!("{}\n", fluke_bench::table6::render(scale));
    println!("{}\n", fluke_bench::table7::render());
}
