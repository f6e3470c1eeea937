//! Prints [`bench::table3`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::table3(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
