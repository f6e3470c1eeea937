//! Prints [`bench::table4`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::table4(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
