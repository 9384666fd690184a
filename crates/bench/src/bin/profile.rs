//! The `profile` harness: the experiment of that name in
//! [`mosaic_bench::experiment`], run by the shared driver.

fn main() {
    mosaic_bench::experiment::main("profile");
}
