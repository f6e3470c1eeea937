//! Prints [`bench::fig6`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::fig6(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
