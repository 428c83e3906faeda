//! `figs`: the paper's evaluation from one table; `--list` names the rows.

fn main() -> std::process::ExitCode {
    ermia_bench::main(std::env::args().skip(1))
}
