//! `dmbfs-bench reproduce <ID>|all` — see the library's crate doc.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dmbfs_bench::run(&args)
}
