//! Prints [`bench::fig5`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::fig5(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
