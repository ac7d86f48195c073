//! Untraced benchmark binary: end-to-end metrics (`run.py --trace 0`).

fn main() -> std::process::ExitCode {
    robonet_perfbench::main_with(false)
}
