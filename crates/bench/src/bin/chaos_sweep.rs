//! The `chaos_sweep` harness: the experiment of that name in
//! [`mosaic_bench::experiment`], run by the shared driver.

fn main() {
    mosaic_bench::experiment::main("chaos_sweep");
}
