//! Prints [`bench::ablation`]; flags: `--scale F`, `--epochs N`, `--seed N`.

use bench::HarnessArgs;
use std::io;

fn main() -> io::Result<()> {
    bench::ablation(&HarnessArgs::from_env(), &mut io::stdout().lock())
}
