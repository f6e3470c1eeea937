//! Prints [`bench::fig4`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::fig4(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
